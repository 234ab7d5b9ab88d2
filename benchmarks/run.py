"""Benchmark of matt's law suite and checker through its command line.

    python3 benchmarks/run.py --workload laws-suite|laws-only|check-synth
                              --seed N --seconds S --trace 0|1

Run from the root of a source tree: matt is imported from `src/`.  The seed
generates the inputs into a temporary directory under `.bench_tmp/`.  Every
operation is `matt.cli.main(argv)` in this process, single-threaded, and
every output is checked.  After an untimed warm-up round, whole rounds run
until S seconds have passed.

Times are reference-normalised: each operation's wall time is scaled by
calib.NOMINAL_S over the reference kernel's time, taken as the mean of the
kernel passes just before and just after the operation.  See README.md.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 the first half of the time runs untraced
rounds and the second half traced ones, and the result holds the per-layer
metrics.  Earlier lines report the raw kernel and round times.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import gen
from calib import NOMINAL_S, run_kernel
from setup_probe import REFERENCE_NOMINAL_S
from spans import LAYERS, SELF_TIMED, SIZES, Tracer
from workloads import LAW_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21

# per-layer metrics: calls counted, sizes counted, and time spent per span
CALLS = list(dict.fromkeys(c for _, _, _, c in LAYERS if c))
SPANS = list(dict.fromkeys(n for _, _, n, _ in LAYERS if n))


def run_op(cli, op):
    """One command line in-process: (exit code or exception name, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback is an outcome the checks reject
            code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


@dataclass
class Round:
    norm_s: float  # reference-normalised seconds
    raw_s: float
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)


class Rounds:
    """Runs whole rounds of the operations, each bracketed by the kernel."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.k_prev = run_kernel()
        self.kernels: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def one(self, tracer=None, count=True) -> Round:
        rnd = Round(0.0, 0.0)
        if tracer:
            tracer.counts.clear()
        for op in self.ops:
            if tracer:
                tracer.start_op()
                result = run_op(self.cli, op)
                dt, self_s, incl_s = tracer.finish_op()
            else:
                t0 = time.perf_counter()
                result = run_op(self.cli, op)
                dt = time.perf_counter() - t0
            k = run_kernel()
            scale = NOMINAL_S / ((self.k_prev + k) / 2)
            self.k_prev = k
            self.kernels.append(k)
            rnd.norm_s += dt * scale
            rnd.raw_s += dt
            if tracer:
                for name, s in self_s.items():
                    rnd.self_s[name] += s * scale
                for name, s in incl_s.items():
                    rnd.incl_s[name] += s * scale
            problem = op.check(*result)
            if count:
                self.attempted += 1
                self.failed += problem is not None
            if problem and not op.fault:
                self.problems.append(f"{' '.join(op.argv)}: {problem}")
        if tracer:
            rnd.counts.update(tracer.counts)
        return rnd

    def timed(self, seconds, tracer=None) -> list[Round]:
        out = []
        deadline = time.perf_counter() + seconds
        while not out or time.perf_counter() < deadline:
            out.append(self.one(tracer))
        return out


def build():
    """Compile matt's bytecode, as installing it would.  Every run then
    imports the same way, whether or not the environment writes bytecode,
    and compiling in a child keeps it out of this process's peak memory."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(SRC / "matt")], check=True, capture_output=True,
                   timeout=120)


def measure_setup(workload):
    """Set-up time over fresh interpreters.  Each is normalised by the
    mean of the reference set-ups timed in the children just before and
    just after it; the result is the median.  The first set-up child is
    not counted."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    reference = probe + ["reference"]
    setup = probe + [str(SRC), workload.setup_kind,
                     *map(str, workload.setup_inputs)]

    def child(cmd):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                           cwd=ROOT)
        if r.returncode != 0:
            raise RuntimeError(f"setup probe failed: {r.stderr.strip()}")
        return float(r.stdout)

    child(setup)
    ref_before = child(reference)
    samples = []
    for _ in range(SETUP_SAMPLES):
        s = child(setup)
        ref_after = child(reference)
        samples.append(s * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(samples)


def layer_metrics(traced, untraced_round_s):
    """Median over traced rounds of every per-layer metric."""
    def med(f):
        return statistics.median(f(r) for r in traced)

    m = {}
    for c in CALLS:
        m[c + ".calls"] = (med(lambda r: r.counts[c]), "count")
    for c in SIZES:
        m[c] = (med(lambda r: r.counts[c]), "count")
    limits = m["fincat.limit.calls"][0]
    m["fincat.cones_per_limit"] = (
        med(lambda r: r.counts["fincat.limit_cones"]) / limits
        if limits else 0.0, "cones/limit")
    for name in SPANS + [f"laws.{law}" for law in LAW_NAMES]:
        times = "self_s" if name in SELF_TIMED else "incl_s"
        m[name + ".s"] = (med(lambda r: getattr(r, times)[name]), "s")
    traced_round = med(lambda r: r.norm_s)
    m["trace.round_s"] = (traced_round, "s")
    m["trace.overhead_s"] = (traced_round - untraced_round_s, "s")
    m["trace.unattributed_s"] = (med(lambda r: r.self_s["op"]), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "matt" / "cli.py").is_file():
        print(f"run.py: no matt sources at {SRC}", file=sys.stderr)
        return 2
    build()
    sys.path.insert(0, str(SRC))
    import matt.cli
    from matt.bundled import FIXTURES

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        out = Path(tmp)
        gen.copy_theories(out, FIXTURES / "theories")
        wl = WORKLOADS[args.workload](random.Random(args.seed), out)
        if not args.trace:
            setup_s = measure_setup(wl)
        rounds = Rounds(matt.cli, wl.ops)
        rounds.one(count=False)  # warm-up
        problems = [p for p in (c() for c in wl.final_checks) if p]
        if args.trace:
            untraced = rounds.timed(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = rounds.timed(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced = rounds.timed(args.seconds)
    problems += rounds.problems

    round_s = statistics.median(r.norm_s for r in untraced)
    raw_round_s = statistics.median(r.raw_s for r in untraced)
    kernel_s = statistics.median(rounds.kernels)
    print(f"calib.kernel_s {kernel_s:.6f} (nominal {NOMINAL_S}); "
          f"calib.raw_round_s {raw_round_s:.4f}; rounds {len(untraced)}, "
          f"fastest {min(r.norm_s for r in untraced):.4f} s normalised")
    if args.trace:
        metrics = layer_metrics(traced, round_s)
        metrics["calib.kernel_s"] = (kernel_s, "s")
        metrics["calib.raw_round_s"] = (raw_round_s, "s")
        for r in traced:
            gap = abs(sum(r.self_s.values()) - r.norm_s)
            if gap > 1e-6 * r.norm_s:
                problems.append(f"span self times miss the round by {gap}s")
        summary = {"self_s": dict(sorted(traced[-1].self_s.items())),
                   "incl_s": dict(sorted(traced[-1].incl_s.items()))}
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}.json", summary)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"round_s": (round_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mib": (rss, "MiB")}
    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

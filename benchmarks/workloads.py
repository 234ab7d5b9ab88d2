"""The three workloads: their operations, and the checks on every output.

An operation is one `matt` command line, run in-process through
`matt.cli.main`.  Its check knows what the output must be from how the input
was generated, never from matt itself.  An operation with `fault` set shows a
known fault of matt: while the fault stands it fails every time, and it is
counted as failed without making the run incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gen

LAW_NAMES = ("2functor", "adjunction", "limit-preservation",
             "lock-strictness", "pointwise-limits", "pseudonat",
             "radj-triangles", "universal-property", "up-ff")
THEORIES = ("trivial", "single_arrow", "2ltt", "reflective", "comonad",
            "semilattice")

_LAW_LINE = re.compile(r"LAW (\S+): (PASS|FAIL)(?: \((.*)\))?$")
_DIAG_LINE = re.compile(r"ERROR (\w+) @ (.+):(\d+):(\d+): ")


@dataclass
class Op:
    argv: list
    # (exit code or exception name, stdout, stderr) -> problem or None
    check: Callable[[object, str, str], Optional[str]]
    fault: Optional[str] = None


@dataclass
class Workload:
    ops: list
    setup_inputs: list  # paths set-up time loads and validates
    setup_kind: str     # "diagrams" or "theories"
    final_checks: list = field(default_factory=list)  # () -> problem|None


# --- output checks --------------------------------------------------------------

def expect_laws(spec: gen.DiagramSpec, only: Optional[str] = None):
    names = (only,) if only else LAW_NAMES

    def check(code, out, err):
        lines = out.splitlines()
        if err:
            return f"stderr: {err.strip()[:200]}"
        if len(lines) != len(names):
            return f"{len(lines)} lines for {len(names)} laws"
        seen = {}
        for ln in lines:
            m = _LAW_LINE.match(ln)
            if m is None:
                return f"unexpected line {ln!r}"
            seen[m.group(1)] = (m.group(2), m.group(3) or "")
        if sorted(seen) != sorted(names):
            return f"laws reported: {sorted(seen)}"
        for law, (verdict, detail) in seen.items():
            words = spec.failing.get(law)
            if words is None and verdict != "PASS":
                return f"{law} fails on a lawful input: {detail}"
            if words is not None and (verdict != "FAIL" or
                                      not all(w in detail for w in words)):
                return f"{law}: {verdict} ({detail}), expected a FAIL " \
                       f"naming {words}"
        want = 1 if any(law in spec.failing for law in names) else 0
        return None if code == want else f"exit {code}, expected {want}"
    return check


def expect_malformed(code, out, err):
    if code != 2 or out or not err.startswith("ERROR MalformedTable @ "):
        return f"exit {code}, stderr {err.strip()[:120]!r}: expected exit " \
               "2 with ERROR MalformedTable"
    return None


def expect_diagnostics(spec: gen.ProgramSpec):
    def check(code, out, err):
        if out:
            return f"stdout: {out.strip()[:200]}"
        diags, traces = [], []
        for ln in err.splitlines():
            m = _DIAG_LINE.match(ln)
            if m:
                diags.append((m.group(1), int(m.group(3))))
                traces.append([])
            elif ln.startswith("  trace: ") and spec.trace and traces:
                traces[-1].append(ln)
            else:
                return f"unexpected line {ln[:120]!r}"
        if diags != spec.expect:
            return f"diagnostics {diags}, expected {spec.expect}"
        if spec.trace and spec.expect:
            if not all(traces):
                return "a diagnostic has no --trace lines"
            for earlier, later in zip(traces, traces[1:]):
                if set(earlier) & set(later):
                    return "a --trace repeats the lines of an earlier " \
                           "diagnostic"
        codes = [c for c, _ in spec.expect]
        want = 2 if "ParseError" in codes else (1 if codes else 0)
        return None if code == want else f"exit {code}, expected {want}"
    return check


# --- workloads -----------------------------------------------------------------

def _write(spec, out: Path) -> Path:
    path = out / f"{spec.name}.matt"
    path.write_text(spec.text, encoding="utf-8")
    return path


def _codex_count(path: Path, spec: gen.DiagramSpec):
    def check():
        from matt.codex import enumerate_codex
        from matt.fincat import load_diagram
        n = len(enumerate_codex(load_diagram(path), "q").objects)
        if n != spec.codex_q:
            return f"{spec.name}: codex at q has {n} objects, the comma " \
                   f"count is {spec.codex_q}"
        return None
    return check


def _decl_count(path: Path, spec: gen.ProgramSpec):
    def check():
        from matt.cli import check_file
        diags, n = check_file(path, None)
        if diags or n != spec.decls:
            return f"{spec.name}: {n} declarations checked, " \
                   f"{len(diags)} diagnostics; expected {spec.decls}, 0"
        return None
    return check


def laws_suite(rng: random.Random, out: Path) -> Workload:
    specs = [gen.single_arrow_chain(rng, 5), gen.single_arrow_divisors(rng),
             gen.comonad_chain(rng, 4), gen.reflective_chain(rng, 4),
             gen.meet_dropping(rng, 3)]
    ops, paths, finals = [], [], []
    for spec in specs:
        path = gen.write_diagram(spec, out)
        paths.append(path)
        ops.append(Op(["sem", "laws", str(path), "--jobs", "1"],
                      expect_laws(spec)))
        if spec.codex_q is not None:
            finals.append(_codex_count(path, spec))
    bad = gen.FAULT_NO_CATEGORIES
    path = out / f"{bad['name']}.dg"
    path.write_text(json.dumps(bad["data"]), encoding="utf-8")
    ops.append(Op(["sem", "laws", str(path), "--jobs", "1"],
                  expect_malformed, fault=bad["fault"]))
    return Workload(ops, paths, "diagrams", finals)


def laws_only(rng: random.Random, out: Path) -> Workload:
    specs = [gen.reflective_chain(rng, 5), gen.comonad_chain(rng, 5)]
    ops, paths = [], []
    for spec in specs:
        path = gen.write_diagram(spec, out)
        paths.append(path)
        for law in LAW_NAMES:
            if law != "pointwise-limits":
                ops.append(Op(["sem", "laws", str(path), "--only", law,
                               "--jobs", "1"], expect_laws(spec, only=law)))
    return Workload(ops, paths, "diagrams")


def check_synth(rng: random.Random, out: Path) -> Workload:
    specs = [gen.declaration_heavy(rng, t, 16, 30) for t in THEORIES]
    specs += [gen.redex_heavy(rng, t, 60, 6) for t in gen.REDEX]
    for spec in specs[len(THEORIES):]:
        spec.trace = True
    specs += [gen.mutant(rng, t, 8, 5, gen.MUTATIONS[t]) for t in THEORIES]
    conv = gen.mutant(rng, "trivial", 8, 5, gen.CONVERSION)
    conv.trace = True
    specs += [conv, gen.fault_trace_repeats(), gen.fault_deep_spine()]
    ops, finals = [], []
    for spec in specs:
        path = _write(spec, out)
        argv = ["check", str(path)] + (["--trace"] if spec.trace else [])
        ops.append(Op(argv, expect_diagnostics(spec), fault=spec.fault))
        if not spec.expect and spec.fault is None:
            finals.append(_decl_count(path, spec))
    return Workload(ops, [out / f"{t}.mt" for t in THEORIES], "theories",
                    finals)


WORKLOADS = {"laws-suite": laws_suite, "laws-only": laws_only,
             "check-synth": check_synth}

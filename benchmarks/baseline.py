"""The scaled single_arrow baseline: both modes a chain of n objects, mu the
identity.  Times `build_bundle` and the `pointwise-limits` law once each.

    python3 benchmarks/baseline.py [n]      (n defaults to 6)

Prints raw seconds and reference-normalised seconds (see calib.py).
"""

import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
from calib import NOMINAL_S, run_kernel  # noqa: E402
from matt.bundled import FIXTURES  # noqa: E402
from matt.codex import build_bundle  # noqa: E402
from matt.fincat import load_diagram  # noqa: E402
from matt.laws import law_pointwise_limits  # noqa: E402


def timed(f):
    k0 = run_kernel()
    t0 = time.perf_counter()
    out = f()
    dt = time.perf_counter() - t0
    scale = NOMINAL_S / ((k0 + run_kernel()) / 2)
    return out, dt, dt * scale


def main(n: int) -> None:
    tmp_root = HERE.parent / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        out = Path(tmp)
        gen.copy_theories(out, FIXTURES / "theories")
        spec = gen.single_arrow_chain(random.Random(0), n)
        d = load_diagram(gen.write_diagram(spec, out))
    bundle, raw, norm = timed(lambda: build_bundle(d))
    cx = bundle.codexes["q"]
    print(f"n={n}: codex at q has {len(cx.objects)} objects, "
          f"{len(cx.cat.arrows)} arrows")
    print(f"build_bundle      {raw:.3f} s raw, {norm:.3f} s normalised")
    (ok, _), raw, norm = timed(lambda: law_pointwise_limits(d, bundle, None))
    print(f"pointwise-limits  {raw:.3f} s raw, {norm:.3f} s normalised "
          f"({'PASS' if ok else 'FAIL'})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)

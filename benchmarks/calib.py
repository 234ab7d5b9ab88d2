"""Reference kernel: a fixed pure-Python workload timed next to every
measured operation.

Raw seconds on a shared VM drift by tens of percent within one process, and
the drift is CPU speed, not descheduling.  A kernel that stresses the same
interpreter paths as matt slows down by about the same factor, so
`raw × NOMINAL_S / kernel` cancels most of the drift: frozen-dataclass
equality in linear scans over a dict of arrows (as `FinCat.hom` on a codex),
tuple hashing, and recursive rebuilding of a small tree (as `subst`).  It
allocates little, so its time does not depend on the state of the
allocator.

The kernel imports nothing from matt, builds its input once at import, and
pauses the garbage collector while it runs, so the program's heap cannot
change what it measures.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# Median kernel time on the machine the reference figures in README.md were
# taken on (Intel Xeon, 2 vCPU, CPython 3.11.7).  Normalised seconds are
# seconds on that machine.
NOMINAL_S = 0.0200


@dataclass(frozen=True)
class _Obj:
    mode: str
    comps: tuple
    struct: tuple


@dataclass(frozen=True)
class _Arr:
    name: tuple
    src: _Obj
    dst: _Obj


def _make_input():
    objs = [_Obj("q", (("id:q", f"q{i}"), ("mu", f"p{j}")), ((i, j),))
            for i in range(5) for j in range(i, 5)]
    arrows = {}
    for a in objs:
        for b in objs:
            if a.struct[0][0] <= b.struct[0][0] and \
                    a.struct[0][1] <= b.struct[0][1]:
                name = (a.comps, b.comps)
                arrows[name] = _Arr(name, a, b)
    tree = ("leaf", "a0")
    for i in range(120):
        tree = ("node", f"k{i % 7}", tree, ("leaf", f"x{i % 11}"))
    return objs, arrows, tree


_OBJS, _ARROWS, _TREE = _make_input()


def _hom(x, y):
    return [n for n, a in _ARROWS.items() if a.src == x and a.dst == y]


def _rebuild(t, key):
    if t[0] == "leaf":
        return ("leaf", t[1] + key) if t[1].startswith("x") else t
    return ("node", t[1], _rebuild(t[2], key), _rebuild(t[3], key))


def _work():
    found = 0
    for _ in range(6):
        for x in _OBJS[::2]:
            for y in _OBJS[1::2]:
                found += len(_hom(x, y))
        for k in ("'", "''", "'''"):
            _rebuild(_TREE, k)
    return found


def run_kernel() -> float:
    """Seconds one pass of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    import statistics
    for _ in range(20):
        run_kernel()
    xs = [run_kernel() for _ in range(200)]
    print(f"median {statistics.median(xs):.5f}s  min {min(xs):.5f}s  "
          f"max {max(xs):.5f}s")

"""Set-up time in a fresh interpreter; run.py runs it as a child.

    python3 setup_probe.py <src dir> diagrams|theories <path>...
    python3 setup_probe.py reference

The first form times importing matt's command line (and, for diagrams, the
law suite) plus loading and validating every input.  The second times a
fixed reference set-up: importing a fixed list of standard-library
modules.  Each prints its seconds.

Set-up does not speed up and slow down with the CPU as the pure-Python
reference kernel does: part of it is page faults and file reads.  So
set-up is normalised by the reference set-up, timed in children that
alternate with the measured ones, not by the kernel.
"""

import sys
import time

# Median reference set-up on the machine the figures in README.md were
# taken on (Intel Xeon, 2 vCPU, CPython 3.11.7).
REFERENCE_NOMINAL_S = 0.0900
REFERENCE_MODULES = ("decimal", "fractions", "statistics", "email.message",
                     "http.client", "xml.etree.ElementTree", "logging", "csv",
                     "sqlite3", "unittest", "typing", "ipaddress", "uuid")


def reference() -> float:
    import importlib
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t0


def setup(src: str, kind: str, paths: list) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import matt.cli  # noqa: F401
    if kind == "diagrams":
        import matt.laws  # noqa: F401  (`sem laws` imports it before any law)
        from matt.fincat import load_diagram
        for p in paths:
            bad = load_diagram(p).validate()
            if bad:
                sys.exit(f"{p}: {bad[0]}")
    else:
        from matt.mode_theory import load_mode_theory, validate_mode_theory
        for p in paths:
            if not validate_mode_theory(load_mode_theory(p)).ok:
                sys.exit(f"{p}: fails validation")
    return time.perf_counter() - t0


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        print(reference())
    else:
        print(setup(sys.argv[1], sys.argv[2], sys.argv[3:]))

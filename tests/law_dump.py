"""The law verdicts as text, to compare two trees or two hash seeds.

    python tests/law_dump.py [extra.dg ...] > verdicts.txt

Prints `run_law_suite` on every bundled `.dg` file, on the NOT_THIN
fixtures and the fork of tests/test_laws.py, on the k commuting comonads of
tests/comonads.py named in COMONADS, and on each diagram named on the
command line, under the caps in CAPS, for the full suite and for each law
alone (`--only`): a header line per run, then a line per law.  A change
that moves no verdict leaves the output as it was, byte for byte; CI runs
it under two hash seeds and compares the two outputs.  Pytest does not
collect this file: its name does not start with test_.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from comonads import write_comonads  # noqa: E402
from test_laws import NOT_THIN, fork_diagram, not_thin_diagram  # noqa: E402

from matt.bundled import FIXTURES  # noqa: E402
from matt.errors import MattError  # noqa: E402
from matt.laws import LAWS, run_law_suite  # noqa: E402

CAPS = (None, 0, 1, 2, 3, 4, 5, 8, 13, 50, 200)
COMONADS = ((2, 4), (3, 4))  # (k, n)


def dump(paths, out):
    for path in paths:
        for cap in CAPS:
            for only in (None, *sorted(LAWS)):
                out.write(f"== {path.name} cap={cap} only={only}\n")
                try:
                    results = run_law_suite(path, only=only, cap=cap)
                except MattError as e:
                    out.write(f"ERROR {e.code}: {e}\n")
                    continue
                for law, (ok, detail) in results.items():
                    out.write(f"{law}: {'PASS' if ok else 'FAIL'}"
                              + (f" ({detail})\n" if detail else "\n"))


def main(extra) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        made = [not_thin_diagram(Path(tmp), name) for name in NOT_THIN]
        paths = sorted((FIXTURES / "diagrams").glob("*.dg"))
        made += [fork_diagram(Path(tmp))]
        made += [write_comonads(Path(tmp), k, n) for k, n in COMONADS]
        dump(paths + made + extra, sys.stdout)


if __name__ == "__main__":
    main([Path(p) for p in sys.argv[1:]])

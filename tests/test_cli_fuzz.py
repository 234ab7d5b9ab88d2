"""Fuzzing the CLI's file readers: arbitrary bytes as a source file, a mode
theory or a diagram must give a diagnostic and an exit code, never a
traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matt.cli import main

# arbitrary bytes, plus valid UTF-8 (at most 4 bytes a character) so that
# some inputs reach the parsers
CONTENTS = st.one_of(st.binary(max_size=200),
                     st.text(max_size=50).map(str.encode))


@settings(max_examples=60, deadline=None)
@given(data=CONTENTS)
def test_readers_never_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in [("f.matt", ["check"]),
                           ("f.mt", ["modes", "validate"]),
                           ("f.dg", ["sem", "laws"])]:
            f = Path(tmp) / name
            f.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + [str(f)])
            assert code in (0, 1, 2), (argv, data)
            assert "Traceback" not in err.getvalue(), (argv, data)

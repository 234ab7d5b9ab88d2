"""Fuzzing the CLI's file readers: arbitrary bytes as a source file, a mode
theory or a diagram, or a bundled mode theory or diagram with one value
replaced, must give a diagnostic and an exit code, never a traceback."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matt.bundled import FIXTURES, diagram_path, theory_path
from matt.cli import main
from matt.parser import tokenize

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


# --- structured fuzzing: one value of a bundled file replaced -----------------

def _single_arrow_dg():
    data = json.loads(diagram_path("single_arrow").read_text())
    data["mode_theory"] = str(theory_path("single_arrow"))
    return data


SEEDS = {
    "f.mt": (json.loads(theory_path("reflective").read_text()),
             [["modes", "validate"],
              ["check", str(FIXTURES / "corpus" / "reflective_ok.matt"),
               "--mode-theory"]]),
    "f.dg": (_single_arrow_dg(), [["sem", "laws"]]),
}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) |
    st.sampled_from(["", "p", "q", "mu", "id:p", "0", "0<=1", "sharp"]),
    lambda inner: st.lists(inner, max_size=3) |
    st.dictionaries(st.sampled_from(["p", "mu", "0", "name"]), inner,
                    max_size=3),
    max_leaves=6)


def _paths(value, path=()):
    """The path of every value inside a JSON document, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _replaced(value, path, new):
    if not path:
        return new
    out = copy.copy(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_replaced_value_never_tracebacks(data):
    name = data.draw(st.sampled_from(sorted(SEEDS)), label="file")
    doc, commands = SEEDS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    mutant = _replaced(doc, path, data.draw(JSON, label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / name
        f.write_text(json.dumps(mutant))
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + [str(f)])
            assert code in (0, 1, 2), argv


# --- structured fuzzing: one token of a bundled corpus file mutated ----------

CORPUS = sorted((FIXTURES / "corpus").glob("*.matt"))


def _absolute(path: Path) -> str:
    """The file's text, its mode-theory path made absolute so that the
    mutant can be checked from another directory."""
    return path.read_text().replace('"../theories/',
                                    f'"{FIXTURES / "theories"}/')


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_mutated_token_never_tracebacks(data):
    src = _absolute(data.draw(st.sampled_from(CORPUS), label="file"))
    toks = tokenize(src)
    spans = [(o, o + len(t))
             for o, t in zip(toks.offs, toks.texts[:len(toks)])]
    i = data.draw(st.integers(0, len(spans) - 1), label="token")
    op = data.draw(st.sampled_from(["delete", "duplicate", "swap"]),
                   label="op")
    pieces = [src[a:b] for a, b in spans]
    if op == "delete":
        pieces[i] = ""
    elif op == "duplicate":
        pieces[i] += " " + pieces[i]
    else:
        j = data.draw(st.integers(0, len(spans) - 1), label="with")
        pieces[i], pieces[j] = pieces[j], pieces[i]
    gaps = [src[b:a] for (_, b), (a, _) in zip(spans, spans[1:])]
    mutant = src[:spans[0][0]] + "".join(
        p + g for p, g in zip(pieces, gaps + [src[spans[-1][1]:]]))
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "f.matt"
        f.write_text(mutant)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(f)])
        assert code in (0, 1, 2), mutant
        assert "Traceback" not in err.getvalue(), mutant

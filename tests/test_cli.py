"""Exit codes and diagnostic formats of the command-line front end."""

import gc
import io
import json

import pytest

from matt.bundled import FIXTURES, diagram_path, theory_path
from matt.cli import check_file, cmd_check, cmd_modes_validate, main
from matt.mode_theory import load_mode_theory

CORPUS = FIXTURES / "corpus"


def run_check(paths, **kw):
    out = io.StringIO()
    code = cmd_check([str(p) for p in paths], out=out, **kw)
    return code, out.getvalue()


def test_check_positive_file_exits_zero():
    code, out = run_check([CORPUS / "2ltt_ok.matt"])
    assert code == 0 and out == ""


def test_check_fibrant_exits_one_with_not_sharp():
    code, out = run_check([CORPUS / "2ltt_fibrant.matt"])
    assert code == 1
    line = out.strip().splitlines()[0]
    assert line.startswith("ERROR NotSharp @ ")
    # format: ERROR <code> @ <file>:<line>:<col>: <message>
    loc = line.split(" @ ")[1].split(": ")[0]
    fname, lno, cno = loc.rsplit(":", 2)
    assert fname.endswith("2ltt_fibrant.matt") and int(lno) > 0


def test_check_empty_file_exits_zero(tmp_path):
    f = tmp_path / "empty.matt"
    f.write_text("")
    assert run_check([f])[0] == 0


def test_check_parse_error_exits_two():
    code, out = run_check([CORPUS / "neg_parse.matt"])
    assert code == 2
    assert "ERROR ParseError" in out


def test_check_mode_theory_flag(tmp_path):
    f = tmp_path / "src.matt"
    f.write_text("const A : Type @ p;\nconst a0 : A @ p;\n"
                 "def x @ p : A = a0;\n")
    code, out = run_check([f])
    assert code == 2 and "no mode theory" in out
    code, out = run_check([f], mode_theory=str(theory_path("trivial")))
    assert code == 0, out


def test_check_invalid_mode_theory_exits_two(tmp_path):
    f = tmp_path / "bad.mt"
    f.write_text("{not json")
    code, out = run_check([CORPUS / "trivial_ok.matt"], mode_theory=str(f))
    assert code == 2


def test_modes_validate_bundled():
    out = io.StringIO()
    assert cmd_modes_validate(str(theory_path("reflective")), out=out) == 0
    assert "OK" in out.getvalue()


def test_modes_validate_broken_triangle(tmp_path):
    data = json.loads(theory_path("2ltt").read_text())
    data["adjoints"][0]["unit"] = "id:id:f"  # wrong boundary for the unit
    f = tmp_path / "broken.mt"
    f.write_text(json.dumps(data))
    out = io.StringIO()
    code = cmd_modes_validate(str(f), out=out)
    assert code in (1, 2)
    if code == 1:
        assert "VIOLATION" in out.getvalue()


def test_modes_validate_failure_names_axiom(tmp_path):
    data = json.loads(theory_path("semilattice").read_text())
    data["classes"]["transparent"].remove("id:p")
    f = tmp_path / "mut.mt"
    f.write_text(json.dumps(data))
    out = io.StringIO()
    assert cmd_modes_validate(str(f), out=out) == 1
    assert "identity-transparent" in out.getvalue()


def test_modes_validate_malformed_exits_two(tmp_path):
    f = tmp_path / "junk.mt"
    f.write_text("][")
    assert cmd_modes_validate(str(f)) == 2


def test_modes_validate_string_for_a_list_exits_two(tmp_path, capsys):
    data = json.loads(theory_path("single_arrow").read_text())
    data["modes"] = "pq"  # not read as ["p", "q"]
    f = tmp_path / "strings.mt"
    f.write_text(json.dumps(data))
    assert main(["modes", "validate", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR MalformedTable @ {f}:0:0: mode theory file is malformed: "
        "'pq' is not a list\n")


def test_modes_validate_unknown_class_exits_two(tmp_path, capsys):
    data = json.loads(theory_path("reflective").read_text())
    data["classes"]["sinster"] = data["classes"].pop("sinister")
    f = tmp_path / "misspelt.mt"
    f.write_text(json.dumps(data))
    assert main(["modes", "validate", str(f)]) == 2
    assert "unknown class sinster" in capsys.readouterr().err


def test_main_dispatch(capsys):
    assert main(["modes", "validate", str(theory_path("trivial"))]) == 0
    assert main(["check", str(CORPUS / "semilattice_ok.matt")]) == 0
    code = main(["check", str(CORPUS / "neg_conversion.matt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ERROR ConversionFailure" in err


def test_trace_flag_adds_detail(capsys):
    rc = main(["check", str(CORPUS / "neg_conversion.matt"), "--trace"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ERROR ConversionFailure" in err
    assert "trace:" in err


def test_trace_scoped_to_its_declaration(tmp_path, capsys):
    f = tmp_path / "two_failures.matt"
    f.write_text("const A : Type @ p;\nconst A2 : Type @ p;\n"
                 "const B : Type @ p;\nconst B2 : Type @ p;\n"
                 "const a0 : A @ p;\nconst b0 : B @ p;\n"
                 "def bad1 @ p : A2 = a0;\ndef bad2 @ p : B2 = b0;\n")
    rc = main(["check", str(f), "--trace",
               "--mode-theory", str(theory_path("trivial"))])
    assert rc == 1
    first, second = capsys.readouterr().err.split("ERROR ")[1:]
    assert "A vs A2" in first
    assert "B vs B2" in second and "A vs A2" not in second


def _single_arrow_dg():
    data = json.loads((FIXTURES / "diagrams" / "single_arrow.dg").read_text())
    data["mode_theory"] = str(theory_path("single_arrow"))
    return data


def _without_categories():
    data = _single_arrow_dg()
    del data["categories"]
    return json.dumps(data)


def _functor_missing_object():
    data = _single_arrow_dg()
    del data["functors"]["mu"]["objects"]["1"]
    return json.dumps(data)


def _diagram_with(edit, name="single_arrow"):
    data = json.loads(diagram_path(name).read_text())
    data["mode_theory"] = str(theory_path(name))
    edit(data)
    return json.dumps(data)


# tables that name an object or arrow their source lacks: (id, name, text)
UNKNOWN_KEYS = [
    ("functor-names-unknown-object", "9", _diagram_with(
        lambda d: d["functors"]["mu"]["objects"].update({"9": "1"}))),
    ("functor-names-unknown-arrow", "zz", _diagram_with(
        lambda d: d["functors"]["mu"]["arrows"].update({"zz": "0<=1"}))),
    ("natural-names-unknown-object", "9", _diagram_with(
        lambda d: d.update(naturals={"id:mu": {"components": {
            "0": "id:0", "1": "id:1", "9": "id:1"}}}))),
]


@pytest.mark.parametrize("text", [
    _without_categories(),
    '{"mode_theory": "single_arrow.mt", ',
    _functor_missing_object(),
    _diagram_with(lambda d: d.update(categories=[])),
    _diagram_with(
        lambda d: d["functors"]["mu"]["arrows"].update({"0<=1": ["0<=1"]})),
    _diagram_with(lambda d: d.update(naturals={
        "id:mu": {"components": {"0": ["id:0"], "1": "id:1"}}})),
    _diagram_with(
        lambda d: d["categories"]["p"].update(compose=[["0<=1", "id:0"]])),
    _diagram_with(lambda d: d.update(naturals={}), "comonad"),
    _diagram_with(
        lambda d: d["naturals"]["le"].update(components={}), "semilattice"),
    # an idempotent C_{id:p} passes every composite check, as id∘id = id
    _diagram_with(lambda d: d.update(functors={"id:p": {
        "objects": {"0": "1", "1": "1"}, "arrows": {"0<=1": "id:1"}}}),
        "trivial"),
    # C_p the monoid {*; e∘e = e}: C_{id:id:p} at e is natural and idempotent
    _diagram_with(lambda d: d.update(
        categories={"p": {"objects": ["*"], "arrows": [["e", "*", "*"]],
                          "compose": [["e", "e", "e"]]}},
        naturals={"id:id:p": {"components": {"*": "e"}}}), "trivial"),
    # a second row for 1<=2∘0<=1, before the real one
    _diagram_with(lambda d: d["categories"]["p"]["compose"].insert(
        0, ["1<=2", "0<=1", "id:0"]), "comonad"),
    *(text for _, _, text in UNKNOWN_KEYS),
    # an identity cell is checked against the identity, not for naturality,
    # and still needs a component at every object
    _diagram_with(lambda d: d.update(naturals={
        "id:mu": {"components": {"0": "id:0"}}})),
    "[" * 100000,
    # not read as ["0", "1"]
    _diagram_with(lambda d: d["categories"]["p"].update(objects="01")),
    # not read as {"0": "0", "1": "1"}
    _diagram_with(lambda d: d["functors"]["mu"].update(objects=["00", "11"])),
], ids=["no-categories", "not-json", "functor-misses-object", "categories-list",
        "functor-arrow-image-list", "natural-component-list",
        "compose-row-of-two", "natural-missing", "natural-misses-object",
        "identity-functor-not-identity", "identity-natural-not-identity",
        "compose-row-twice", *(i for i, _, _ in UNKNOWN_KEYS),
        "identity-natural-misses-object", "deeply-nested", "objects-string",
        "functor-objects-list"])
def test_sem_laws_malformed_diagram_exits_two(tmp_path, capsys, text):
    f = tmp_path / "bad.dg"
    f.write_text(text)
    assert main(["sem", "laws", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"ERROR MalformedTable @ {f}:")


@pytest.mark.parametrize("name, text", [(n, t) for _, n, t in UNKNOWN_KEYS],
                         ids=[i for i, _, _ in UNKNOWN_KEYS])
def test_sem_laws_names_a_key_the_source_lacks(tmp_path, capsys, name, text):
    f = tmp_path / "bad.dg"
    f.write_text(text)
    assert main(["sem", "laws", str(f)]) == 2
    err = capsys.readouterr().err
    assert f" {name}, not an " in err and "strictness" not in err


@pytest.mark.parametrize("cap", ["-1", "abc"])
def test_sem_laws_rejects_a_cap_that_is_not_a_count(capsys, cap):
    with pytest.raises(SystemExit) as exit_:
        main(["sem", "laws", str(diagram_path("single_arrow")), "--cap", cap])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: matt sem laws")
    assert f"--cap: invalid non-negative integer: '{cap}'" in err


def _non_utf8(tmp_path, name):
    f = tmp_path / name
    f.write_bytes(b"\xff\xfe not utf-8")
    return f


@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "missing.matt",
    lambda tmp: tmp,
    lambda tmp: _non_utf8(tmp, "bad.matt"),
], ids=["missing", "directory", "not-utf8"])
def test_check_unreadable_source_exits_two(tmp_path, capsys, make):
    f = make(tmp_path)
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR ParseError @ {f}:0:0: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["modes", "validate", "bad.mt"],
    ["check", "--mode-theory", "bad.mt", str(CORPUS / "trivial_ok.matt")],
    ["sem", "laws", "bad.dg"],
], ids=["modes-validate", "check", "sem-laws"])
def test_non_utf8_mode_theory_exits_two(tmp_path, capsys, argv):
    _non_utf8(tmp_path, "bad.mt")
    dg = tmp_path / "bad.dg"
    dg.write_text(json.dumps({**_single_arrow_dg(), "mode_theory": "bad.mt"}))
    argv = [str(tmp_path / a) if a.startswith("bad.") else a for a in argv]
    assert main(argv) == 2
    at = next(a for a in argv if a.startswith(str(tmp_path)))
    assert capsys.readouterr().err.startswith(
        f"ERROR MalformedTable @ {at}:0:0: {tmp_path / 'bad.mt'}: 'utf-8' "
        "codec can't decode")


def test_sem_laws_functor_missing_object_names_it(tmp_path, capsys):
    data = _single_arrow_dg()
    del data["functors"]["mu"]["objects"]["0"]
    f = tmp_path / "bad.dg"
    f.write_text(json.dumps(data))
    assert main(["sem", "laws", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR MalformedTable @ {f}:0:0: diagram fails validation: "
        "C_mu: object map misses 0\n")


def _reflective_with(edit):
    data = json.loads(theory_path("reflective").read_text())
    edit(data)
    return json.dumps(data).encode()


@pytest.mark.parametrize("content", [
    b"\xff\xfe not utf-8",
    b"{not json",
    json.dumps({"modes": ["p"], "morphisms": [{"name": "f"}]}).encode(),
    _reflective_with(lambda d: d["morphisms"][0].update(name=["mu"])),
    _reflective_with(lambda d: d["cells"][0].update(name=["eta"])),
    _reflective_with(lambda d: d.update(classes=["sharp"])),
    _reflective_with(lambda d: d.update(classes={"sharp": 5})),
    _reflective_with(lambda d: d["modes"].append(None)),
    # each entry below is named a second time, before the real one
    _reflective_with(lambda d: d["compose"].insert(0, ["numu", "numu",
                                                       "id:p"])),
    _reflective_with(lambda d: d["whisker_left"].insert(0, ["mu", "eta",
                                                            "id:mu"])),
    _reflective_with(lambda d: d["morphisms"].insert(
        0, {"name": "mu", "src": "q", "dst": "q"})),
    _reflective_with(lambda d: d["cells"].insert(
        0, {"name": "eta", "src": "id:p", "dst": "id:p"})),
    _reflective_with(lambda d: d["adjoints"].insert(0, d["adjoints"][0])),
    b"[" * 100000,
], ids=["not-utf8", "not-json", "malformed-table", "morphism-name-list",
        "cell-name-list", "classes-list", "class-not-list", "mode-null",
        "compose-row-twice", "whisker-row-twice", "morphism-twice",
        "cell-twice", "adjoint-twice", "deeply-nested"])
def test_check_bad_declared_mode_theory_exits_two(tmp_path, capsys, content):
    mt = tmp_path / "bad.mt"
    mt.write_bytes(content)
    f = tmp_path / "src.matt"
    f.write_text('mode-theory "bad.mt";\nconst A : Type @ p;\n')
    assert main(["check", str(f)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR MalformedTable @ {f}:1:13: ")
    # the same file named on the command line
    for argv in (["modes", "validate", str(mt)],
                 ["check", "--mode-theory", str(mt), str(f)]):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"ERROR MalformedTable @ {mt}:0:0: ")


def test_check_missing_declared_mode_theory_exits_two(tmp_path, capsys):
    f = tmp_path / "src.matt"
    f.write_text('mode-theory "missing.mt";\nconst A : Type @ p;\n')
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR ParseError @ {f}:1:13: [Errno 2] No such file or "
        f"directory: '{tmp_path / 'missing.mt'}'\n")


def test_invalid_mode_theory_names_each_axiom_once(tmp_path, capsys):
    # neither identity is transparent: two violations of one axiom
    mt = tmp_path / "bad.mt"
    mt.write_bytes(_reflective_with(
        lambda d: d["classes"].update(transparent=["nu", "numu"])))
    f = tmp_path / "src.matt"
    f.write_text('mode-theory "bad.mt";\nconst A : Type @ p;\n')
    dg = tmp_path / "bad.dg"
    dg.write_text(json.dumps({**_single_arrow_dg(), "mode_theory": "bad.mt"}))
    why = "mode theory fails validation: identity-transparent\n"
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == f"ERROR MalformedTable @ {f}:1:13: {why}"
    assert main(["check", "--mode-theory", str(mt), str(f)]) == 2
    assert capsys.readouterr().err == \
        f"ERROR MalformedTable @ {mt}:0:0: {why}"
    assert main(["sem", "laws", str(dg)]) == 2
    assert capsys.readouterr().err == \
        f"ERROR MalformedTable @ {dg}:0:0: {why}"


def test_sem_laws_blames_a_non_unital_whiskering_on_the_theory(tmp_path,
                                                               capsys):
    # 1◁eta = id:id:p breaks a law of the theory, not of the diagram
    mt = tmp_path / "bad.mt"
    mt.write_bytes(_reflective_with(
        lambda d: d["whisker_left"].append(["id:p", "eta", "id:id:p"])))
    dg = tmp_path / "bad.dg"
    data = json.loads((FIXTURES / "diagrams" / "reflective.dg").read_text())
    dg.write_text(json.dumps({**data, "mode_theory": "bad.mt"}))
    assert main(["sem", "laws", str(dg)]) == 2
    assert capsys.readouterr().err == (
        f"ERROR MalformedTable @ {dg}:0:0: "
        "mode theory fails validation: whisker-left-unital\n")


def test_check_bad_cell_in_declaration_exits_one(capsys):
    # a MalformedTable raised while checking a declaration is a failed check
    assert main(["check", str(CORPUS / "neg_bad_cell.matt")]) == 1
    assert capsys.readouterr().err.startswith("ERROR MalformedTable @ ")


def _nested(depth):
    term = "a0"
    for _ in range(depth):
        term = f"f ({term})"
    return ("const A : Type @ p;\nconst a0 : A @ p;\n"
            f"const f : (x : A) A @ p;\ndef deep @ p : A = {term};\n")


@pytest.mark.parametrize("depth,code", [(300, 0), (2000, 2)])
def test_deep_nesting_checks_or_exits_two(tmp_path, capsys, depth, code):
    # too deep for the recursive parser: a diagnostic, never a traceback
    f = tmp_path / "deep.matt"
    f.write_text(_nested(depth))
    assert main(["check", str(f), "--mode-theory",
                 str(theory_path("trivial"))]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"ERROR ParseError @ {f}:4:1: nesting too deep to " \
                      "parse\n"
    else:
        assert err == ""


def test_too_deep_declaration_exits_two_and_later_ones_run(
        tmp_path, capsys, monkeypatch):
    import matt.cli

    def check_decl(kernel, d):
        if getattr(d, "name", None) == "deep":
            raise RecursionError("maximum recursion depth exceeded")
        return real(kernel, d)

    real = matt.cli._check_decl
    monkeypatch.setattr(matt.cli, "_check_decl", check_decl)
    f = tmp_path / "deep.matt"
    f.write_text(_nested(3) + "def bad @ p : A = a0 a0;\n")
    assert main(["check", str(f), "--mode-theory",
                 str(theory_path("trivial"))]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"ERROR ParseError @ {f}:4:1: nesting too deep to check",
        f"ERROR ExpectedPi @ {f}:5:19: application head has type A"]


def test_long_type_gives_a_bounded_error_line(tmp_path, capsys):
    # the expected type prints in over 1200 characters; the ERROR line cuts
    # it, and the --trace line keeps it whole
    pis = "".join(f"(x{i} : A) -> " for i in range(80))
    f = tmp_path / "long.matt"
    f.write_text("const A : Type @ p;\nconst a0 : A @ p;\n"
                 f"def d @ p : {pis}A = a0;\n")
    assert main(["check", str(f), "--trace", "--mode-theory",
                 str(theory_path("trivial"))]) == 1
    error, trace = capsys.readouterr().err.splitlines()
    assert error.startswith(f"ERROR ConversionFailure @ {f}:3:")
    assert error.endswith("…") and len(error) < 300 + len(str(f))
    assert trace.startswith("  trace: type head mismatch: A vs (x") and \
        len(trace) > 1200


@pytest.mark.parametrize("text,message", [
    ("$ const A : Type @ p;\n", "unexpected character '$'"),
    (")\nconst A : Type @ p;\n", "expected a declaration, found ')'"),
])
def test_error_at_offset_zero_is_line_one_column_one(tmp_path, capsys, text,
                                                     message):
    f = tmp_path / "first.matt"
    f.write_text(text)
    assert main(["check", str(f), "--mode-theory",
                 str(theory_path("trivial"))]) == 2
    assert capsys.readouterr().err == \
        f"ERROR ParseError @ {f}:1:1: {message}\n"


@pytest.mark.parametrize("text,line", [
    ("const A : Type @ p;\nconst B : Type @ q;\n", 2),
    ("const A : Type @ p;\nconst a : A @ p;\ndef b @ q : A = a;\n", 3),
])
def test_declaration_at_an_undeclared_mode_exits_one(tmp_path, capsys, text,
                                                     line):
    # trivial.mt has the one mode p
    f = tmp_path / "mode_q.matt"
    f.write_text(text)
    assert main(["check", str(f), "--mode-theory",
                 str(theory_path("trivial"))]) == 1
    assert capsys.readouterr().err == \
        f"ERROR ModeMismatch @ {f}:{line}:1: mode q is not in the mode " \
        "theory\n"


def _trivial_file(tmp_path, lines):
    f = tmp_path / "src.matt"
    f.write_text(f'mode-theory "{theory_path("trivial")}";\n'
                 + "".join(line + "\n" for line in lines))
    return f


def _rendered(diags):
    return [(d.code, f"{d.line}:{d.col}", d.message) for d in diags]


def test_syntax_error_anywhere_stops_the_whole_file(tmp_path, capsys):
    f = _trivial_file(tmp_path, ["const A : Type @ p;", "const a : A @ p;",
                                 "def ok @ p : A = a;",
                                 "def broken @ p : A = ;"])
    diags, n = check_file(f, None)
    assert _rendered(diags) == [
        ("ParseError", "5:22", "expected a term, found ';'")]
    assert n == 0
    assert main(["check", str(f)]) == 2


def test_resolution_errors_belong_to_their_declaration(tmp_path, capsys):
    # a const that fails to resolve is not declared, so bad stays unknown
    # until line 5 declares it, and A on line 7 is declared twice
    f = _trivial_file(tmp_path, ["const A : Type @ p;",
                                 "const bad : Ghost @ p;",
                                 "def use @ p : A = bad;",
                                 "const bad : A @ p;",
                                 "def use2 @ p : A = bad;",
                                 "const A : Type @ p;"])
    diags, n = check_file(f, None)
    assert _rendered(diags) == [
        ("ParseError", "3:13", "unknown type constant Ghost"),
        ("ParseError", "4:19", "unknown name bad"),
        ("UnknownConstant", "7:1", "constant A declared twice")]
    assert n == 3
    assert main(["check", str(f)]) == 2


def test_resolution_reads_the_first_of_two_declarations(tmp_path, capsys):
    # the second c is refused, so c a0 is split at the arity of the first,
    # checked c: no parser that reads the text alone could know which
    f = _trivial_file(tmp_path, ["const A : Type @ p;", "const a0 : A @ p;",
                                 "const c : A @ p;",
                                 "const c : (x : A) A @ p;",
                                 "def d @ p : A = c a0;"])
    diags, n = check_file(f, None)
    assert _rendered(diags) == [
        ("UnknownConstant", "5:1", "constant c declared twice"),
        ("ExpectedPi", "6:17", "application head has type A")]
    assert n == 3
    assert main(["check", str(f)]) == 1


@pytest.mark.parametrize("head", ["El", "A"])
def test_type_constant_at_the_head_of_a_term_exits_two(tmp_path, capsys,
                                                        head):
    # El takes one argument and A none: either way it is not a term
    f = _trivial_file(tmp_path, ["const A : Type @ p;", "const a0 : A @ p;",
                                 "const El : (x : A) Type @ p;",
                                 f"def u @ p : A = {head} a0;"])
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == \
        f"ERROR ParseError @ {f}:5:17: type constant {head} used as a term\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["check", str(CORPUS / "trivial_ok.matt")], id="check-ok"),
    pytest.param(["check", str(CORPUS / "neg_conversion.matt"), "--trace"],
                 id="check-trace"),
    pytest.param(["check", str(CORPUS / "neg_parse.matt")],
                 id="check-parse-error"),
    pytest.param(["check", str(CORPUS / "missing.matt")],
                 id="check-missing"),
    pytest.param(["sem", "laws", str(diagram_path("single_arrow"))],
                 id="laws"),
    pytest.param(["sem", "laws", str(diagram_path("reflective")),
                  "--only", "adjunction"], id="laws-only"),
    pytest.param(["sem", "laws", str(diagram_path("single_arrow")),
                  "--cap", "0"], id="laws-cap-0"),
    pytest.param(["sem", "laws", str(FIXTURES / "missing.dg")],
                 id="laws-missing"),
    pytest.param(["modes", "validate", str(theory_path("reflective"))],
                 id="modes-validate"),
])
def test_a_call_leaves_no_cyclic_garbage(capsys, argv):
    main(argv)  # warm-up: first-use caches may hold cycles for good
    gc.collect()
    gc.disable()
    try:
        main(argv)
        # collect while disabled: an automatic collection would hide it
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("theory,lines", [
    ("single_arrow", ["const A : Type @ p;",
                      "const f : (k : (x : A) -> A) A @ p;",
                      r"def d2 @ p : A = f \x. x;"]),
    ("single_arrow", ["const A : Type @ p;", "const a0 : A @ p;",
                      "const B : Type @ q;",
                      "const h : (y : F[mu] A) B @ q;",
                      "def d3 @ q : B = h mod[mu] a0;"]),
    ("2ltt", ["const B : Type @ f;", "const b0 : B @ f;",
              "const C : Type @ e;", "const k : (M : U[iota] B) C @ e;",
              "const g : (x : B) B @ f;",
              "def d4 @ e : C = k shut[iota] b0;",
              "def d5 @ f : B = g open[iota] shut[iota] b0;"]),
], ids=["lambda", "mod", "shut-open"])
def test_a_trailing_argument_needs_no_parentheses(tmp_path, theory, lines):
    # a λ, mod, shut or open argument closes its spine: it runs to the end
    f = tmp_path / "src.matt"
    f.write_text("".join(line + "\n" for line in lines))
    assert check_file(f, load_mode_theory(theory_path(theory))) == \
        ([], len(lines))

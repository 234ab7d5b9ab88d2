"""Command-line front end.

    matt check <src>... --mode-theory <mt> [--trace]
    matt modes validate <mt>
    matt sem laws <diagram> [--only <law>] [--cap <n>]

Exit codes: 0 success, 1 a check or law failed, 2 malformed input.
Diagnostics go to stderr as "ERROR <code> @ <file>:<line>:<col>: <message>".
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .checker import Kernel
from .errors import MattError, ModeMismatch, ParseError
from .mode_theory import (ModeTheory, load_mode_theory, load_valid_mode_theory,
                          validate_mode_theory)
from .parser import (SourceLines, SurfaceConst, SurfaceDef, SurfaceModeTheory,
                     parse_program, resolve_term, resolve_type)
from .record import frozen
from .syntax import (ConstDecl, Param, Signature, empty_context, fresh,
                     push_lock, push_var)


@frozen
class Diagnostic:
    code: str
    file: str
    line: int
    col: int
    message: str
    trace: tuple = ()
    bad_input: bool = False  # malformed input (exit 2), not a failed check

    def render(self, with_trace: bool = False) -> str:
        out = f"ERROR {self.code} @ {self.file}:{self.line}:{self.col}: " \
              f"{self.message}"
        if with_trace and self.trace:
            out += "".join(f"\n  trace: {line}" for line in self.trace)
        return out


def _diag(err: MattError, filename: str, lines: SourceLines,
          fallback: int | None = None, bad_input: bool = False) -> Diagnostic:
    span = err.span if err.span is not None else fallback
    line, col = lines(span) if span is not None else (0, 0)
    return Diagnostic(err.code, filename, line, col, err.message,
                      getattr(err, "trace", ()), bad_input)


def check_file(path: Path, mt: ModeTheory | None):
    """Check every declaration in one source file.

    Returns (diagnostics, n_checked).  A mode-theory declaration in the file
    is used when no theory was supplied; declarations after a failing one are
    still attempted so a file reports all its independent errors.  A file
    declares at most one mode theory: a second declaration is malformed
    input, reported at its position before anything is checked.
    """
    filename = str(path)
    try:
        src = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return [Diagnostic("ParseError", filename, 0, 0, str(e))], 0
    lines = SourceLines(src)
    try:
        decls = parse_program(src)
    except MattError as e:
        return [_diag(e, filename, lines)], 0
    declared = [d for d in decls if isinstance(d, SurfaceModeTheory)]
    if len(declared) > 1:
        return [Diagnostic("ParseError", filename, *lines(declared[1].span),
                           "a second mode-theory declaration: a file "
                           "declares at most one")], 0

    diags: list[Diagnostic] = []
    sig = Signature()
    kernel = None
    checked = 0
    for d in decls:
        if isinstance(d, SurfaceModeTheory):
            if mt is None:
                try:
                    mt = load_valid_mode_theory(path.parent / d.path)
                except OSError as e:
                    diags.append(Diagnostic("ParseError", filename,
                                            *lines(d.span), str(e)))
                    return diags, checked
                except MattError as e:
                    diags.append(_diag(e, filename, lines, d.span,
                                       bad_input=True))
                    return diags, checked
            continue
        if mt is None:
            diags.append(Diagnostic(
                "ParseError", filename, *lines(d.span),
                "no mode theory: pass --mode-theory or declare one"))
            return diags, checked
        if kernel is None:
            kernel = Kernel(mt, sig)
        kernel.trace.clear()  # a diagnostic's trace explains its own failure
        try:
            _check_decl(kernel, d)
            checked += 1
        except MattError as e:
            diags.append(_diag(e, filename, lines, d.span))
        except RecursionError:
            diags.append(Diagnostic("ParseError", filename, *lines(d.span),
                                    "nesting too deep to check"))
    return diags, checked


def _check_decl(kernel: Kernel, d):
    mt, sig = kernel.mt, kernel.sig
    if d.mode not in mt.modes:
        raise ModeMismatch(f"mode {d.mode} is not in the mode theory", d.span)
    if isinstance(d, SurfaceConst):
        ctx = empty_context(d.mode)
        scope: dict[str, str] = {}
        params = []
        for (pname, pmor, pty, pspan) in d.params:
            pmor = kernel._mor(ctx, pmor)
            sty = resolve_type(pty, scope, sig)
            ty = kernel.check_type(push_lock(mt, ctx, pmor), sty)
            v = fresh(pname)
            scope = {**scope, pname: v}
            params.append(Param(v, pmor, ty))
            ctx = push_var(mt, ctx, v, pmor, ty, pspan)
        result = None
        if d.result is not None:
            result = kernel.check_type(ctx, resolve_type(d.result, scope, sig))
        sig.declare(ConstDecl(d.name, d.mode, tuple(params), result))
        return
    if isinstance(d, SurfaceDef):
        ctx = empty_context(d.mode)
        ty = kernel.check_type(ctx, resolve_type(d.ty, {}, sig))
        term = resolve_term(d.term, {}, sig)
        kernel.check(ctx, term, ty)
        # definitions are opaque: later declarations see only the type
        sig.declare(ConstDecl(d.name, d.mode, (), ty))
        return
    raise ParseError(f"unknown declaration {d!r}")


# --- subcommands --------------------------------------------------------------

def _bad_input(path, e: Exception, out) -> int:
    """Report a file a command could not load; malformed input exits 2."""
    print(f"ERROR {getattr(e, 'code', 'ParseError')} @ {path}:0:0: {e}",
          file=out)
    return 2


def cmd_check(paths, mode_theory=None, trace=False, out=None) -> int:
    out = out if out is not None else sys.stderr
    mt = None
    if mode_theory is not None:
        try:
            mt = load_valid_mode_theory(mode_theory)
        except (OSError, MattError) as e:
            return _bad_input(mode_theory, e, out)
    worst = 0
    for p in paths:
        diags, _ = check_file(Path(p), mt)
        for dg in diags:
            print(dg.render(with_trace=trace), file=out)
            worst = max(worst, 2 if dg.code == "ParseError" or
                        dg.bad_input else 1)
    return worst


def cmd_modes_validate(path, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        report = validate_mode_theory(load_mode_theory(path))
    except (OSError, MattError) as e:
        return _bad_input(path, e, sys.stderr)
    if report.ok:
        print(f"{path}: OK", file=out)
        return 0
    for v in sorted(report.violations, key=lambda v: (v.axiom, v.message)):
        print(f"VIOLATION {v.axiom}: {v.message}", file=out)
    return 1


def cmd_sem_laws(path, only=None, cap=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    from .laws import run_law_suite
    try:
        results = run_law_suite(path, only=only, cap=cap)
    except (OSError, MattError) as e:
        return _bad_input(path, e, sys.stderr)
    failed = False
    for name in sorted(results):
        ok, detail = results[name]
        print(f"LAW {name}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail and not ok else ""), file=out)
        failed = failed or not ok
    return 1 if failed else 0


def _cap(text: str) -> int:
    """--cap: a search bound, so a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"invalid non-negative integer: {text!r}")
    return n


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """Built once, on first use: argparse leaves reference cycles behind."""
    ap = argparse.ArgumentParser(prog="matt",
                                 description="modal type checker and "
                                             "semantics law runner")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="type-check source files")
    p_check.add_argument("src", nargs="+")
    p_check.add_argument("--mode-theory", default=None)
    p_check.add_argument("--trace", action="store_true")

    p_modes = sub.add_parser("modes", help="mode theory utilities")
    modes_sub = p_modes.add_subparsers(dest="modes_cmd", required=True)
    p_validate = modes_sub.add_parser("validate")
    p_validate.add_argument("mt")

    p_sem = sub.add_parser("sem", help="semantics law suites")
    sem_sub = p_sem.add_subparsers(dest="sem_cmd", required=True)
    p_laws = sem_sub.add_parser("laws")
    p_laws.add_argument("diagram")
    p_laws.add_argument("--only", default=None)
    p_laws.add_argument("--cap", type=_cap, default=None)
    p_laws.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    return ap


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    if args.cmd == "check":
        return cmd_check(args.src, args.mode_theory, args.trace)
    if args.cmd == "modes":
        return cmd_modes_validate(args.mt)
    if args.cmd == "sem":
        return cmd_sem_laws(args.diagram, args.only, args.cap)
    return 2


if __name__ == "__main__":
    sys.exit(main())

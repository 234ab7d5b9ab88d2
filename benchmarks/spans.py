"""Span tracing of matt's layers from outside the package.

`Tracer.install()` replaces the public functions named in LAYERS with
wrappers, in the module or class that defines them and in every matt module
that imported them by name (as `codex` and `laws` import `fincat.limit`).
A wrapper records a span (name, start, end, parent) and counts calls; a
call made while a span of the same name is open (recursion, or `check`
inside `infer`) is folded into that span, so spans of one name never nest.  Lookups that are too small to time are only counted.

Spans stay in memory until `finish_op()`, which turns the spans of one
operation into per-name totals and self times; `dump()` writes the spans of
the longest operation and the totals at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name or None for count-only, call counter)
LAYERS = [
    ("matt.fincat", "FinCat.__init__", "fincat.FinCat", "fincat.FinCat"),
    ("matt.fincat", "FinCat.hom", "fincat.hom", "fincat.hom"),
    ("matt.fincat", "FinCat.comp", "fincat.comp", "fincat.comp"),
    ("matt.fincat", "limit", "fincat.limit", "fincat.limit"),
    ("matt.fincat", "all_cones", None, None),
    ("matt.codex", "build_bundle", "codex.build_bundle", "codex.build_bundle"),
    ("matt.codex", "enumerate_codex", "codex.enumerate_codex", None),
    ("matt.codex", "incl", "codex.incl", None),
    ("matt.codex", "codex_right_adjoint", "codex.codex_right_adjoint", None),
    ("matt.codex", "lock_functor", "codex.lock_functor", "codex.lock_functor"),
    ("matt.mode_theory", "load_mode_theory", "mode_theory.load", None),
    ("matt.mode_theory", "validate_mode_theory", "mode_theory.validate",
     None),
    ("matt.mode_theory", "ModeTheory.compose", None, "mode_theory.lookup"),
    ("matt.mode_theory", "ModeTheory.vcomp", None, "mode_theory.lookup"),
    ("matt.mode_theory", "ModeTheory.wl", None, "mode_theory.lookup"),
    ("matt.mode_theory", "ModeTheory.wr", None, "mode_theory.lookup"),
    ("matt.parser", "tokenize", "parser.tokenize", None),
    ("matt.parser", "parse_program", "parser.parse_program", None),
    ("matt.parser", "resolve_term", "parser.resolve", None),
    ("matt.parser", "resolve_type", "parser.resolve", None),
    ("matt.checker", "Kernel.check", "checker.elaborate", "checker.check"),
    ("matt.checker", "Kernel.infer", "checker.elaborate", "checker.infer"),
    ("matt.checker", "Kernel.check_type", "checker.elaborate", None),
    ("matt.checker", "Kernel.convert_types", "checker.convert", None),
    ("matt.checker", "Kernel.convert", "checker.convert", None),
    ("matt.checker", "Kernel.whnf", "checker.whnf", "checker.whnf"),
    ("matt.syntax", "subst", "syntax.subst", "syntax.subst"),
    ("matt.syntax", "apply_key", "syntax.apply_key", "syntax.apply_key"),
    ("matt.syntax", "rename_var", "syntax.rename_var", "syntax.rename_var"),
    ("matt.cli", "check_file", "cli.check_file", None),
    ("matt.laws", "run_law_suite", "cli.run_law_suite", None),
]

# sizes counted from results: cones enumerated, objects and arrows of every
# codex enumerated, tokens produced
SIZES = ("fincat.cones", "codex.objects", "codex.arrows", "parser.tokens")

# reported as self time; every other span name is reported as the time
# inside its outermost calls
SELF_TIMED = {"checker.elaborate"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.counts: Counter = Counter()
        self.longest: tuple = (0.0, [])  # (duration, spans) of one operation
        self._undo: list = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, fn, name, calls):
        spans, stack, counts = self.spans, self.stack, self.counts
        open_names = self.open_names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if calls:
                counts[calls] += 1
            if name in open_names:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(i)
            open_names.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                open_names.discard(name)
                stack.pop()
                spans[i][2] = clock()
        return traced

    def _count_wrapper(self, fn, calls):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return counted

    def _cones_wrapper(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def cones(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["fincat.cones"] += len(out)
            if stack and spans[stack[-1]][0] == "fincat.limit":
                counts["fincat.limit_cones"] += len(out)
            return out
        return cones

    def _codex_wrapper(self, fn):
        counts = self.counts

        def codex(*args, **kwargs):
            cx = fn(*args, **kwargs)
            counts["codex.objects"] += len(cx.cat.objects)
            counts["codex.arrows"] += len(cx.cat.arrows)
            return cx
        return codex

    def _tokens_wrapper(self, fn):
        counts = self.counts

        def tokens(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["parser.tokens"] += len(out)
            return out
        return tokens

    def _wrap(self, fn, attr, name, calls):
        if attr == "all_cones":
            return self._cones_wrapper(fn)
        if attr == "enumerate_codex":
            fn = self._codex_wrapper(fn)
        if attr == "tokenize":
            fn = self._tokens_wrapper(fn)
        if name is None:
            return self._count_wrapper(fn, calls)
        return self._span_wrapper(fn, name, calls)

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function and law; undone by `uninstall()`."""
        import matt.cli  # noqa: F401  (load every module before patching)
        import matt.laws
        mods = [m for n, m in sys.modules.items()
                if n == "matt" or n.startswith("matt.")]
        for modname, path, name, calls in LAYERS:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = owner.__dict__[attr]
            wrapped = self._wrap(fn, attr, name, calls)
            self._set(owner, attr, wrapped)
            if not cls:
                for m in mods:
                    if m is not owner and m.__dict__.get(attr) is fn:
                        self._set(m, attr, wrapped)
        laws = matt.laws.LAWS
        for law, fn in list(laws.items()):
            laws[law] = self._span_wrapper(fn, f"laws.{law}", None)
            self._undo.append((laws, law, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- per-operation accounting -----------------------------------------

    def start_op(self):
        """Drop the last operation's spans and open the root span."""
        self.spans.clear()
        self.spans.append(["op", time.perf_counter(), 0.0, -1])
        self.stack[:] = [0]

    def finish_op(self) -> tuple[float, dict, dict]:
        """Close the root span; returns its duration and, per span name, the
        self time and the time inside its (never nested) spans.  The self
        times sum to the root's duration."""
        self.spans[0][2] = time.perf_counter()
        self.stack.clear()
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans[1:]:
            own[parent] -= end - start
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        for (name, start, end, _), s in zip(self.spans, own):
            self_s[name] += s
            incl_s[name] += end - start
        total = self.spans[0][2] - self.spans[0][1]
        if total > self.longest[0]:
            self.longest = (total, list(self.spans))
        return total, self_s, incl_s

    def dump(self, path, summary: dict):
        """Write the summary and the spans of the longest operation, times
        in seconds from its start."""
        spans = self.longest[1]
        names = sorted({sp[0] for sp in spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = spans[0][1] if spans else 0.0
        data = {"summary": summary, "names": names,
                "spans_of_longest_op": [[ids[n], round(s - t0, 7),
                                         round(e - t0, 7), p]
                                        for n, s, e, p in spans]}
        path.write_text(json.dumps(data), encoding="utf-8")

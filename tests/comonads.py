"""k commuting idempotent comonads on one mode, over a chain of n objects:
inputs that scale the mode theory and the codex together.

    write_comonads(out, k, n)    # out/comonads<k>.mt and out/comonads<k>_<n>.dg

The theory has one mode p.  Its morphisms are the subsets S of {1..k},
named a<S> (a12 for {1, 2}) and id:p for the empty set; composition is
union, and there is a cell S => T, named a<S>>a<T>, when S contains T.
Every table is generated from that order, so the theory is locally
posetal.  The diagram is the chain 0 <= 1 <= ... <= n-1, with a_i sending
x to the largest multiple of 2^i at or below it, or x itself at the top.
These floors are nested, so a_S is a_(max S), each a_S is idempotent, they
commute, and a_S lies below a_T when S contains T: each cell's component at
x is the arrow a_S(x) -> a_T(x).  k=1 is comonad.mt over comonad_chain, up
to names.  Every law passes on these diagrams.  The codex at p takes one
component per subset, so the component product is n^(2^k).
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


def subsets(k: int) -> list:
    return [frozenset(s) for r in range(k + 1)
            for s in itertools.combinations(range(1, k + 1), r)]


def mor(s) -> str:
    return "a" + "".join(map(str, sorted(s))) if s else "id:p"


def cell(s, t) -> str:
    return f"id:{mor(s)}" if s == t else f"{mor(s)}>{mor(t)}"


def comonad_theory(k: int) -> dict:
    """The .mt data of k commuting idempotent comonads on p."""
    subs = subsets(k)
    cells = [(s, t) for s in subs for t in subs if s > t]
    return {
        "modes": ["p"],
        "morphisms": [{"name": mor(s), "src": "p", "dst": "p"}
                      for s in subs if s],
        "compose": [[mor(g), mor(f), mor(g | f)]
                    for g in subs for f in subs if g and f],
        "cells": [{"name": cell(s, t), "src": mor(s), "dst": mor(t)}
                  for s, t in cells],
        "vcompose": [[cell(t, u), cell(s, t), cell(s, u)]
                     for s, t in cells for t2, u in cells if t2 == t],
        "whisker_left": [[mor(m), cell(s, t), cell(m | s, m | t)]
                         for m in subs if m for s, t in cells],
        "whisker_right": [[cell(s, t), mor(m), cell(s | m, t | m)]
                          for m in subs if m for s, t in cells],
        "classes": {"tangible": [mor(s) for s in subs],
                    "sharp": [mor(s) for s in subs],
                    "transparent": ["id:p"], "sinister": []},
        "adjoints": []}


def floor(s, n: int, x: int) -> int:
    """a_S(x): the largest multiple of 2^(max S) at or below x, or x at
    the top."""
    if not s or x == n - 1:
        return x
    return x - x % 2 ** max(s)


def comonad_diagram(k: int, n: int, theory: str) -> dict:
    """The .dg data of the chain of n under k floors; theory is the path
    of the .mt file, as the .dg file reads it."""
    objs = [str(x) for x in range(n)]

    def arrow(x, y):
        return f"id:{x}" if x == y else f"{x}<={y}"

    chain = {"objects": objs,
             "arrows": [[arrow(x, y), str(x), str(y)]
                        for x in range(n) for y in range(x + 1, n)],
             "compose": [[arrow(y, z), arrow(x, y), arrow(x, z)]
                         for x in range(n) for y in range(x + 1, n)
                         for z in range(y + 1, n)]}
    subs = subsets(k)
    functors = {mor(s): {
        "objects": {str(x): str(floor(s, n, x)) for x in range(n)},
        "arrows": {arrow(x, y): arrow(floor(s, n, x), floor(s, n, y))
                   for x in range(n) for y in range(x + 1, n)}}
        for s in subs if s}
    naturals = {cell(s, t): {"components": {
        str(x): arrow(floor(s, n, x), floor(t, n, x)) for x in range(n)}}
        for s in subs for t in subs if s > t}
    return {"mode_theory": theory, "categories": {"p": chain},
            "functors": functors, "naturals": naturals}


def write_comonads(out: Path, k: int, n: int) -> Path:
    """Write the theory and the diagram under out; the diagram's path."""
    theory = out / f"comonads{k}.mt"
    theory.write_text(json.dumps(comonad_theory(k)))
    path = out / f"comonads{k}_{n}.dg"
    path.write_text(json.dumps(comonad_diagram(k, n, theory.name)))
    return path

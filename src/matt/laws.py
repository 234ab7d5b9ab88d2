"""Executable law suite for a diagram of categories.

Each law is a self-contained check over the diagram and its codex bundle.
Laws report PASS or FAIL with a short counterexample; errors raised while
building the needed structure (absent limits, blown caps) fail the law that
asked for it instead of aborting the suite.
"""

from __future__ import annotations

from .codex import (build_bundle, dextrify_colax, psnat_component,
                    reflect_colax, transpose)
from .errors import MattError, MalformedTable, ParseError
from .fincat import (first_unpreserved_limit, is_iso, isomorphic,
                     load_diagram)


def _triangles(family: dict):
    """Both triangle identities of every adjunction in a family."""
    for m, adj in family.items():
        top, bottom = adj.left.src, adj.right.src
        for x in top.objects:
            lx = adj.left.omap[x]
            if bottom.comp(adj.counit[lx], adj.left.amap[adj.unit[x]]) != \
                    bottom.id_arr(lx):
                return False, f"left triangle fails for {m} at {x}"
        for y in bottom.objects:
            ry = adj.right.omap[y]
            if top.comp(adj.right.amap[adj.counit[y]], adj.unit[ry]) != \
                    top.id_arr(ry):
                return False, f"right triangle fails for {m} at {y}"
    return True, ""


def law_adjunction(d, bundle, cap):
    """Both triangles and the hom bijection for every reflect -| incl pair:
    transposing along the unit sends hom(reflect x, y) onto hom(x, incl y)."""
    ok, detail = _triangles(bundle.adjunctions)
    if not ok:
        return ok, detail
    for m, adj in bundle.adjunctions.items():
        top, bottom = adj.left.src, adj.right.src
        for x in top.objects:
            for y in bottom.objects:
                below = bottom.hom(adj.left.omap[x], y)
                if {transpose(adj, x, f) for f in below} != \
                        set(top.hom(x, adj.right.omap[y])):
                    return False, f"hom bijection fails for {m} at ({x}, {y})"
    return True, ""


def law_up_ff(d, bundle, cap):
    """Inclusion along an identity is fully faithful: its counit is iso."""
    for p in d.mt.modes:
        adj = bundle.adjunctions[d.mt.id_mor(p)]
        cp = d.cat(p)
        for g in cp.objects:
            if not is_iso(cp, adj.counit[g]):
                return False, f"counit at {g} in mode {p} is not iso"
    return True, ""


def _first_failure(rows):
    bad = [(n, det) for n, ok, det in rows if not ok]
    if bad:
        return False, f"{bad[0][0]}: {bad[0][1]}"
    return True, ""


def law_lock_strictness(d, bundle, cap):
    return _first_failure(r for r in bundle.report if r[0].startswith("lock-"))


def law_2functor(d, bundle, cap):
    return _first_failure(bundle.report)


def law_radj_triangles(d, bundle, cap):
    return _triangles(bundle.right_adjoints)


def law_pseudonat(d, bundle, cap):
    """The identity-component comparison of each right adjoint is iso."""
    for m in d.mt.morphisms.values():
        cq = d.cat(m.dst)
        for delta in bundle.codexes[m.src].objects:
            if not is_iso(cq, psnat_component(bundle, m.name, delta)):
                return False, f"comparison for {m.name} at {delta} " \
                              "is not iso"
    return True, ""


def law_limit_preservation(d, bundle, cap):
    """Every functor in the diagram preserves the binary and empty limits
    that exist in its source."""
    for m in d.mt.morphisms.values():
        f = d.fun(m.name)
        if hit := first_unpreserved_limit(f.src, [f], cap=cap):
            what = f"meet of {hit[1]['l']} and {hit[1]['r']}" if hit[1] \
                else "terminal object"
            return False, f"{m.name} does not preserve the {what}"
    return True, ""


def law_pointwise_limits(d, bundle, cap):
    """Reflections and locks preserve the limits the codex category has."""
    mt = d.mt
    for p in mt.modes:
        cx = bundle.codexes[p]
        fs = [family[m.name].left
              for family in (bundle.adjunctions, bundle.right_adjoints)
              for m in mt.morphisms.values() if m.dst == p]
        if hit := first_unpreserved_limit(cx.cat, fs, cap=cap):
            return False, f"{hit[0].name} does not preserve a limit " \
                          f"in the codex at {p}"
    return True, ""


def law_universal_property(d, bundle, cap):
    """Dextrifying the component projections is the identity up to iso."""
    mt = d.mt
    g, gamma = reflect_colax(bundle)
    ghat = dextrify_colax(bundle, g, gamma)
    for r in mt.modes:
        cx = bundle.codexes[r]
        for obj in cx.objects:
            im = ghat[r].omap[obj]
            if im.component(mt.id_mor(r)) != g[r].omap[obj]:
                return False, f"identity component drifts at {r}: {obj}"
            if not isomorphic(cx.cat, im, obj):
                return False, f"round trip not iso at {r}: {obj}"
    return True, ""


LAWS = {
    "adjunction": law_adjunction,
    "up-ff": law_up_ff,
    "lock-strictness": law_lock_strictness,
    "radj-triangles": law_radj_triangles,
    "pseudonat": law_pseudonat,
    "pointwise-limits": law_pointwise_limits,
    "limit-preservation": law_limit_preservation,
    "2functor": law_2functor,
    "universal-property": law_universal_property,
}

def run_law_suite(path, only=None, cap=None) -> dict:
    """Run the laws against the diagram at path.

    Returns {law name: (ok, detail)}.  A law that cannot even build what it
    checks (absent limit, blown cap) fails with that error as its detail.
    """
    d = load_diagram(path)
    bad = d.validate()
    if bad:
        raise MalformedTable("diagram fails validation: " + "; ".join(bad))
    if only is not None:
        if only not in LAWS:
            raise ParseError(f"unknown law {only!r}; known: "
                             + ", ".join(sorted(LAWS)))
        selected = {only: LAWS[only]}
    else:
        selected = LAWS

    bundle = build_bundle(d, cap=cap)
    results = {}
    for name, law in sorted(selected.items()):
        try:
            results[name] = law(d, bundle, cap)
        except MattError as e:
            results[name] = (False, str(e))
    return results

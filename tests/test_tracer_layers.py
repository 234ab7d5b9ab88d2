"""The names the benchmark tracer wraps still name functions of matt.

`benchmarks/spans.py` lists in LAYERS, as (module, attribute path, ...)
rows, the functions `Tracer.install` wraps: it looks the module up, takes
the class for a dotted path, and reads the attribute from that owner's
own __dict__.  A rename in src/ would break only the traced benchmark
run, so the rows are read here with ast, without importing benchmarks/,
and each is looked up the same way.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def layers() -> list:
    """The (module, attribute path) pairs of the LAYERS assignment."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == \
                ["LAYERS"]:
            return [tuple(row)[:2] for row in ast.literal_eval(node.value)]
    raise AssertionError(f"no LAYERS assignment in {SPANS}")


LAYERS = layers()


def test_layers_are_listed():
    assert LAYERS


@pytest.mark.parametrize("module,path", LAYERS,
                         ids=[f"{m}:{p}" for m, p in LAYERS])
def test_each_layer_resolves_as_the_tracer_looks_it_up(module, path):
    owner = importlib.import_module(module)
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    assert callable(owner.__dict__.get(attr)), f"{module}.{path}"

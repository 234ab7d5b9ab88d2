"""Paths to the fixture files shipped with the package."""

from __future__ import annotations

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

THEORY_NAMES = ("trivial", "single_arrow", "2ltt", "reflective", "comonad",
                "semilattice")
DIAGRAM_NAMES = ("trivial", "single_arrow", "comonad", "reflective",
                 "semilattice")


def theory_path(name: str) -> Path:
    return FIXTURES / "theories" / f"{name}.mt"


def diagram_path(name: str) -> Path:
    return FIXTURES / "diagrams" / f"{name}.dg"

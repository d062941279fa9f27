"""Packaged example graphs (.sg) and systems (.is)."""

from ..graph import SepGraph, parse_graph
from ..isystem import ISystem, parse_isystem

_GRAPHS = ("g1", "g2", "g3", "g4", "g5")
_SYSTEMS = ("s1", "s2")


def graph_names():
    return list(_GRAPHS)


def system_names():
    return list(_SYSTEMS)


def fixture_text(filename: str) -> str:
    from importlib import resources  # imported here to keep `import sepmonoid` light

    return resources.files(__package__).joinpath(filename).read_text(encoding="utf-8")


def fixture_graph(name: str) -> SepGraph:
    if name not in _GRAPHS:
        raise KeyError(f"unknown graph fixture '{name}', have {_GRAPHS}")
    return parse_graph(fixture_text(f"{name}.sg"))


def fixture_system(name: str) -> ISystem:
    if name not in _SYSTEMS:
        raise KeyError(f"unknown system fixture '{name}', have {_SYSTEMS}")
    return parse_isystem(fixture_text(f"{name}.is"))

"""Source scans of src/sepmonoid that guard the design, not behaviour."""

import ast
from pathlib import Path

import sepmonoid

SRC = Path(sepmonoid.__file__).parent

# public entry points that nothing in src/ calls, each with why it stays
UNREFERENCED_ALLOWED = {
    "confluence_search": "the public bounded search that confluence_equal wraps; "
                         "tests call it for its traces and stats",
    "system_names": "the public list of fixture systems, beside graph_names",
    "solve_left": "the lattice-membership oracle of the abelian and rewrite tests, "
                  "and the z0 half of the planned exact lattice-point routine",
}


def _unreferenced(root):
    """Every function, and every method that is not a dunder, whose name
    nothing under root references: a function counts as referenced by a
    Name, an Attribute, an import alias or a string constant of its name, a
    method by an Attribute only."""
    trees = [ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))]
    names, attrs, defs = set(), set(), []
    for tree in trees:
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, id(node) in methods))
    out = set()
    for name, method in defs:
        if method:
            if not (name.startswith("__") and name.endswith("__")) and name not in attrs:
                out.add(name)
        elif name not in names and name not in attrs:
            out.add(name)
    return out


def test_no_unreferenced_helpers():
    # a definition that no code in src/ reads is dead weight or public API;
    # public API that nothing reads stays only with a reason here
    assert _unreferenced(SRC) == set(UNREFERENCED_ALLOWED)

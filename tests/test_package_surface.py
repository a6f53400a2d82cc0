"""The library holds what the pipeline runs: no public function or class of
`src/fbsdelab` may be used only from the tests."""

import ast
import pathlib

import fbsdelab

SRC = pathlib.Path(fbsdelab.__file__).resolve().parent

# public names used from outside src/ alone, each with the reason it stays
ALLOWED = {
    "hjb.cfl_max_dt": "perfbench/tracing.py wraps it to count CFL scans",
    "hjb.viscosity_check": "to be wired into the hjb stage's verdict",
}


def test_every_public_definition_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    # a use is a name loaded or read as an attribute; an import alone is not
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    }
    # an allowlisted name that src/ starts to use, or that is deleted,
    # leaves the allowlist
    assert unused == set(ALLOWED)

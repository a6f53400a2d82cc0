"""The library holds what the pipeline runs: no public function or class of
`src/fbsdelab` may be used only from the tests, and no parameter default
may be a knob that nothing in `src/fbsdelab` sets."""

import ast
import math
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


# parameters with a default that no call in src/ passes, each with the
# reason it stays; the functions on ALLOWED are exempt as a whole
UNSET_ALLOWED = {
    "cli.main.argv": "the console entry point calls main(); only the tests "
    "and perfbench pass argv",
}


def _defaulted(module, tree):
    """(label, key, name, position) of each parameter with a default: key is
    the function's name, or "Class.__init__"; position counts the
    arguments a call spells out (not a method's self), None for a
    keyword-only parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                item.owner = node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            owner = getattr(node, "owner", None)
            key = f"{owner}.__init__" if node.name == "__init__" else node.name
            prefix = f"{module}.{owner + '.' if owner else ''}{node.name}"
            a = node.args
            visible = (a.posonlyargs + a.args)[owner is not None :]
            for j in range(len(visible) - len(a.defaults), len(visible)):
                yield f"{prefix}.{visible[j].arg}", key, visible[j].arg, j
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{arg.arg}", key, arg.arg, None


def _init_of(name, classes):
    """The key of the __init__ a call of class `name` runs, or None when it
    is not defined in src/."""
    while name in classes and not classes[name][1]:
        name = classes[name][0]
    return f"{name}.__init__" if name in classes else None


def _calls(tree, classes):
    """(key, positional count, keywords) of each call: a class call reaches
    its __init__, super().__init__ the base's, any other call every def of
    its name.  *args or **kwargs pass every parameter."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                node.cls = cls.name
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        key = getattr(func, "id", getattr(func, "attr", None))
        if key in classes:
            key = _init_of(key, classes)
        elif key == "__init__" and ast.unparse(func.value) == "super()":
            key = _init_of(classes[call.cls][0], classes)
        star = any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        )
        yield key, math.inf if star else len(call.args), {kw.arg for kw in call.keywords}


def test_every_defaulted_parameter_is_passed_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    classes = {  # name -> (first base, whether it defines __init__)
        node.name: (
            next((b.id for b in node.bases if isinstance(b, ast.Name)), None),
            any(getattr(item, "name", None) == "__init__" for item in node.body),
        )
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    calls = {}
    for tree in trees.values():
        for key, positional, keywords in _calls(tree, classes):
            calls.setdefault(key, []).append((positional, keywords))
    unset = {
        label
        for module, tree in trees.items()
        for label, key, name, j in _defaulted(module, tree)
        if label.rsplit(".", 1)[0] not in ALLOWED
        and not any(
            name in keywords or (j is not None and j < positional)
            for positional, keywords in calls.get(key, [])
        )
    }
    assert unset == set(UNSET_ALLOWED)


# private names of one module that another module reads, each with the
# reason it is shared
SHARED_PRIVATE = {
    "adjoint._distinct_paths": "q's broadcast layout, read by cli and jets",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_names_stay_in_their_module():
    crossing = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
        ]
        modules = {}  # local name -> the sibling module it binds
        for node in imports:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    crossing.add(f"{node.module}.{alias.name}")
        crossing |= {
            f"{modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    # a shared name that no other module reads any more leaves the allowlist
    assert crossing == set(SHARED_PRIVATE)

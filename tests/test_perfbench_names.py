"""The benchmark's tracer wraps fbsdelab functions by name; each must exist."""

import importlib
import pathlib
import types

from fbsdelab import problem

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py as a module, run from its source: no bytecode
    file is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrapped_function_resolves():
    tracing = _tracing()
    names = tracing.CAPTURED + tracing.TRACED + tracing.WRITERS
    missing = [
        f"{mod}.{fn}"
        for mod, fn in names
        if not callable(getattr(importlib.import_module(f"fbsdelab.{mod}"), fn, None))
    ]
    assert missing == []
    spec = problem.builtin_problem("example31")
    assert [a for a in tracing.EVALUATORS if not callable(getattr(spec, a))] == []

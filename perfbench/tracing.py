"""Spans recorded around calls into fbsdelab, from outside the package.

`instrument` replaces public functions of the fbsdelab modules by
wrappers for the length of a `with` block and restores them afterwards.
Each wrapper keeps the function's last return value, so the checks can
read what a stage produced, and, when tracing is on, records a span:
name, start, end and the span that was open when it began.  Spans stay
in memory until `Tracer.dump` writes them out.

The package calls these functions through module attributes (the CLI
through `forward_mod.simulate_forward`, `solve_adjoint` through the
module global `solve_q`), so replacing the attribute is enough to see
every call; outputs are unchanged because the wrapper returns what the
wrapped function returned.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# (module, function) pairs whose last result the checks read; wrapped in
# every run, traced or not.
CAPTURED = (
    ("problem", "builtin_problem"),
    ("problem", "parse_problem"),
    ("forward", "simulate_forward"),
    ("backward", "solve_backward"),
    ("adjoint", "solve_q"),
    ("adjoint", "solve_pk"),
    ("adjoint", "check_maximum_condition"),
    ("hjb", "solve_hjb_fd"),
    ("hjb", "regularity_probe"),
    ("jets", "verify_connection"),
)
# further stage functions, wrapped only when tracing
TRACED = (
    ("forward", "generate_increments"),
    ("hjb", "cfl_time_grid"),
    ("hjb", "cfl_max_dt"),
    ("jets", "estimate_jets_1d"),
)
# the CSV and JSON artifact writers, wrapped only when tracing
WRITERS = (
    ("forward", "pathbatch_summary_csv"),
    ("backward", "backward_csv"),
    ("adjoint", "adjoint_csv"),
    ("hjb", "value_grid_csv"),
    ("hjb", "value_grid_meta_json"),
    ("jets", "connection_csv"),
    ("cli", "_json_dump"),
)
# coefficient and gradient evaluators of a ProblemSpec
EVALUATORS = (
    "drift",
    "diffusion",
    "driver",
    "terminal",
    "drift_x",
    "diffusion_x",
    "driver_x",
    "driver_y",
    "driver_z",
    "terminal_x",
)
EVALUATOR_PREFIX = "problem.eval."
WRITER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in WRITERS)


class Tracer:
    """Span store and wrapper factory for one operation.

    With `enabled` false the wrappers only keep return values.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.results = {}
        self.spec_built_at = None
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self._open = [-1]

    def wrap(self, name, fn):
        results = self.results
        if not self.enabled:

            def keep(*args, **kwargs):
                out = fn(*args, **kwargs)
                results[name] = out
                return out

            return keep

        names, parents, starts, ends, open_spans = (
            self.names, self.parents, self.starts, self.ends, self._open,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_spans.pop()
            results[name] = out
            return out

        return traced

    def wrap_builder(self, name, fn):
        """Wrap a spec builder: note when the spec exists, trace evaluators."""
        inner = self.wrap(name, fn)

        def build(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self.spec_built_at is None:
                self.spec_built_at = time.monotonic()
            spec = out[0] if isinstance(out, tuple) else out
            if self.enabled:
                for attr in EVALUATORS:
                    setattr(spec, attr, self.wrap(EVALUATOR_PREFIX + attr, getattr(spec, attr)))
            return out

        return build

    def summary(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            agg = out[name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[sid]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path):
        """Write spans as {names, spans: [[name index, parent, start, end]]}."""
        index = {}
        rows = []
        for sid, name in enumerate(self.names):
            rows.append(
                [index.setdefault(name, len(index)), self.parents[sid], self.starts[sid], self.ends[sid]]
            )
        with open(path, "w") as fh:
            json.dump({"names": list(index), "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


@contextlib.contextmanager
def instrument(modules, tracer):
    """Replace the listed functions of `modules` (name -> module) for a block."""
    table = list(CAPTURED)
    if tracer.enabled:
        table += list(TRACED) + list(WRITERS)
    saved = []
    try:
        for mod_name, fn_name in table:
            mod = modules[mod_name]
            original = getattr(mod, fn_name)
            saved.append((mod, fn_name, original))
            name = f"{mod_name}.{fn_name}"
            if mod_name == "problem":
                wrapper = tracer.wrap_builder(name, original)
            else:
                wrapper = tracer.wrap(name, original)
            setattr(mod, fn_name, wrapper)
        yield tracer
    finally:
        for mod, fn_name, original in reversed(saved):
            setattr(mod, fn_name, original)

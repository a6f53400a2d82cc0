"""Control problem data model.

A control problem is described by drift b(s,x,u), diffusion sigma(s,x,u),
driver f(s,x,y,z,u), terminal phi(x), a box control set, and a horizon.
Every coefficient, the built-ins included, is an expression in a small
arithmetic DSL, and every gradient the adjoint equations need (b_x,
sigma_x, f_x, f_y, f_z, phi_x) is derived symbolically from the same parse
tree, and so are the control gradients the maximum condition needs (b_u,
sigma_u, f_u).  Where a derivative jumps -- abs at 0, min and max at a
tie -- it is taken as the mean of the two one-sided derivatives, the
value central differences return there: abs'(0) = 0, and each tied
argument of min or max carries weight 1/2.

Config file format (UTF-8, ini-like; see also the CLI help)::

    [dims]
    n = 1
    d = 1
    k = 1
    lipschitz_hint = 2.0     # optional

    [horizon]
    T = 1.0

    [control]
    lo = 0.0                 # k comma-separated values
    hi = 1.0

    [initial]                # optional; pipeline start point
    t = 0.0
    x = 0.0                  # n comma-separated values

    [coefficients]
    b1 = "x1 * u1"           # n entries b1..bn
    sigma1_1 = "x1"          # n*d entries sigma{i}_{j}
    f = "x1 - y"
    phi = "x1"

Expressions may use s, x1..xn, y, z1..zd, u1..uk (per slot: b/sigma see
s,x,u; f sees everything; phi sees x only), numeric literals, + - * / ^,
unary minus, and exp, log, sin, cos, sqrt, abs, min, max.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProblemError",
    "ConfigError",
    "ExpressionSyntaxError",
    "DomainError",
    "ControlBoxError",
    "CoefficientExpr",
    "ProblemSpec",
    "parse_expression",
    "parse_problem",
    "builtin_problem",
    "builtin_names",
    "control_grid",
]


class ProblemError(Exception):
    """Base class for problem-definition and evaluation failures."""


class ConfigError(ProblemError):
    """Malformed problem config; carries 1-based line and column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class ExpressionSyntaxError(ConfigError):
    """Syntax error inside a coefficient expression."""


class DomainError(ProblemError):
    """A coefficient was evaluated outside its mathematical domain."""


class ControlBoxError(ProblemError):
    """A control value lies outside the declared control box."""


# --------------------------------------------------------------------------
# Expression DSL
# --------------------------------------------------------------------------

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}
# functions only derivative trees call: sign for abs, and for min and max a
# step with step(0) = 1/2
_CALLS = {**_FUNCTIONS, "sign": np.sign, "step": lambda t: np.heaviside(t, 0.5)}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[+\-*/^(),]))"
)


def _tokenize(text, line, col0):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if rest == "":
                break
            col = col0 + len(text) - len(rest)
            raise ExpressionSyntaxError(f"unexpected character {rest[0]!r}", line, col)
        # a token's column is where it starts, past the whitespace before it
        col = col0 + m.start(m.lastgroup)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group(0)), col))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), col))
        else:
            op = m.group("op")
            if op == "**":
                op = "^"
            tokens.append((op, op, col))
        pos = m.end()
    tokens.append(("end", None, col0 + len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the coefficient DSL."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.i = 0
        self.line = line

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ExpressionSyntaxError(msg, self.line, tok[2])

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            self.error(f"expected {kind!r}", tok)
        return tok

    def parse(self):
        node = self.expression()
        if self.peek()[0] != "end":
            self.error("trailing input after expression")
        return node

    def expression(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek()[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            # right-associative exponent
            return ("bin", "^", base, self.unary())
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "name":
            if self.peek()[0] == "(":
                self.take()
                args = [self.expression()]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.expression())
                self.expect(")")
                name = tok[1]
                if name not in _FUNCTIONS:
                    self.error(f"unknown function {name!r}", tok)
                arity = 2 if name in ("min", "max") else 1
                if len(args) != arity:
                    count = ("one argument", "two arguments")[arity - 1]
                    self.error(f"{name} takes {count}", tok)
                return ("call", name, args)
            return ("var", tok[1], tok[2])
        if tok[0] == "(":
            node = self.expression()
            self.expect(")")
            return node
        if tok[0] == "end":
            self.error("unexpected end of expression", tok)
        self.error(f"unexpected token {tok[1]!r}", tok)


def _collect_vars(node, out):
    if node[0] == "var":
        out.add(node[1])
    elif node[0] == "bin":
        _collect_vars(node[2], out)
        _collect_vars(node[3], out)
    elif node[0] == "neg":
        _collect_vars(node[1], out)
    elif node[0] == "call":
        for a in node[2]:
            _collect_vars(a, out)


def _eval_node(node, env, source):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_eval_node(node[1], env, source)
    if kind == "bin":
        op = node[1]
        a = _eval_node(node[2], env, source)
        b = _eval_node(node[3], env, source)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if np.any(b == 0):
                raise DomainError(f"division by zero in {source!r}")
            return a / b
        # '^'
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.power(a, b)
        if not np.all(np.isfinite(r)):
            raise DomainError(f"invalid power in {source!r}")
        return r
    # call
    name, args = node[1], node[2]
    vals = [_eval_node(a, env, source) for a in args]
    if name == "log" and np.any(vals[0] <= 0):
        raise DomainError(f"log of a nonpositive value in {source!r}")
    if name == "sqrt" and np.any(vals[0] < 0):
        raise DomainError(f"sqrt of a negative value in {source!r}")
    return _CALLS[name](*vals)


_ZERO, _ONE = ("num", 0.0), ("num", 1.0)


def _neg(a):
    if a[0] == "num":
        return ("num", -a[1]) if a[1] else _ZERO
    return a[1] if a[0] == "neg" else ("neg", a)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else ("bin", "+", a, b)


def _sub(a, b):
    return _neg(b) if a == _ZERO else a if b == _ZERO else ("bin", "-", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else ("bin", "*", a, b)


def _div(a, b):
    return a if a == _ZERO or b == _ONE else ("bin", "/", a, b)


def _derivative(node, var):
    """Parse tree of d node / d var, with 0 and 1 folded while building."""
    kind = node[0]
    if kind == "num":
        return _ZERO
    if kind == "var":
        return _ONE if node[1] == var else _ZERO
    if kind == "neg":
        return _neg(_derivative(node[1], var))
    if kind == "bin":
        op, a, b = node[1:]
        da, db = _derivative(a, var), _derivative(b, var)
        if op == "+":
            return _add(da, db)
        if op == "-":
            return _sub(da, db)
        if op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if op == "/":
            return _sub(_div(da, b), _div(_mul(_div(a, b), db), b))
        if db == _ZERO:
            # constant exponent c: c a^(c-1), defined wherever a^c is
            c1 = ("num", b[1] - 1.0) if b[0] == "num" else ("bin", "-", b, _ONE)
            power = a if c1 == _ONE else _ONE if c1 == _ZERO else ("bin", "^", a, c1)
            return _mul(_mul(b, power), da)
        return _mul(node, _add(_mul(db, ("call", "log", [a])), _div(_mul(b, da), a)))
    name, a = node[1], node[2][0]
    da = _derivative(a, var)
    if name in ("min", "max"):
        b = node[2][1]
        gap = _sub(b, a) if name == "min" else _sub(a, b)  # > 0: a is chosen
        step_a, step_b = ("call", "step", [gap]), ("call", "step", [_neg(gap)])
        return _add(_mul(step_a, da), _mul(step_b, _derivative(b, var)))
    outer = {
        "exp": node,
        "log": ("bin", "/", _ONE, a),
        "sin": ("call", "cos", [a]),
        "cos": _neg(("call", "sin", [a])),
        "sqrt": ("bin", "/", ("num", 0.5), node),
        "abs": ("call", "sign", [a]),
    }[name]
    return _mul(outer, da)


@dataclass
class CoefficientExpr:
    """A parsed scalar coefficient expression."""

    source: str
    tree: tuple
    variables: frozenset

    def evaluate(self, env):
        """Evaluate on an environment of (broadcastable) numpy arrays."""
        return _eval_node(self.tree, env, self.source)

    def derivative(self, var):
        """The partial derivative in `var`, as an expression on the same source."""
        tree = _derivative(self.tree, var)
        used = set()
        _collect_vars(tree, used)
        return CoefficientExpr(self.source, tree, frozenset(used))


def parse_expression(text, allowed_vars, line=1, col0=0):
    """Parse one DSL expression, restricted to `allowed_vars`.

    Raises ExpressionSyntaxError (with line/column) on malformed input and
    on references to variables outside the allowed set.
    """
    tokens = _tokenize(text, line, col0)
    tree = _Parser(tokens, line).parse()
    used = set()
    _collect_vars(tree, used)
    bad = used - set(allowed_vars)
    if bad:
        # report the first offending occurrence with its column
        for tok in tokens:
            if tok[0] == "name" and tok[1] in bad:
                raise ExpressionSyntaxError(
                    f"variable {tok[1]!r} not available here", line, tok[2]
                )
        raise ExpressionSyntaxError(f"undeclared variables {sorted(bad)}", line, col0)
    return CoefficientExpr(text, tree, frozenset(used))


# --------------------------------------------------------------------------
# Problem specification
# --------------------------------------------------------------------------


def _names(prefix, count):
    return [f"{prefix}{i + 1}" for i in range(count)]


_GRADIENTS = (
    "drift_x", "diffusion_x", "driver_x", "driver_y", "driver_z", "terminal_x",
    "drift_u", "diffusion_u", "driver_u",
)


@dataclass
class ProblemSpec:
    """A stochastic recursive control problem on one probability space.

    Evaluators are vectorized over leading batch axes: `drift(s, x, u)`
    maps (..., n) states and (..., k) controls to (..., n); `diffusion`
    to (..., n, d); `driver(s, x, y, z, u)` and `terminal(x)` to (...,).
    All evaluators are deterministic and safe to share between workers.
    """

    n: int
    d: int
    k: int
    horizon: float
    control_lo: np.ndarray
    control_hi: np.ndarray
    drift: callable
    diffusion: callable
    driver: callable
    terminal: callable
    # variable names each coefficient group actually references; lets
    # solvers hoist invariants
    b_variables: frozenset
    sigma_variables: frozenset
    f_variables: frozenset
    # b_x (..., n, n), sigma_x (..., n, d, n), f_x (..., n), f_y (...,), f_z
    # (..., d), phi_x (..., n), b_u (..., n, k), sigma_u (..., n, d, k), f_u
    # (..., k); spec_from_expressions derives them
    drift_x: callable = None
    diffusion_x: callable = None
    driver_x: callable = None
    driver_y: callable = None
    driver_z: callable = None
    terminal_x: callable = None
    drift_u: callable = None
    diffusion_u: callable = None
    driver_u: callable = None
    lipschitz_hint: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ProblemError("dimensions n, d, k must all be >= 1")
        if not self.horizon > 0:
            raise ProblemError("horizon T must be strictly positive")
        self.control_lo = np.asarray(self.control_lo, dtype=float).reshape(self.k)
        self.control_hi = np.asarray(self.control_hi, dtype=float).reshape(self.k)
        if np.any(self.control_lo > self.control_hi):
            i = int(np.argmax(self.control_lo > self.control_hi))
            raise ConfigError(
                f"empty control box: lo[{i}] = {self.control_lo[i]} > "
                f"hi[{i}] = {self.control_hi[i]}"
            )
        for grad in _GRADIENTS:
            if getattr(self, grad) is None:
                raise ProblemError(f"gradient {grad} is missing")

    def control_inside(self, u, atol=1e-12):
        u = np.asarray(u, dtype=float)
        return bool(
            np.all(u >= self.control_lo - atol) and np.all(u <= self.control_hi + atol)
        )


def _evaluator(exprs, shape, signature):
    """Evaluator of `exprs`, laid out row-major over the output `shape`.

    `signature` lists the arguments in call order: a name binds a scalar
    argument ("s", "y"), a list of names binds the components along the
    last axis of a vector argument (x1..xn).  Only the variables some
    expression reads are bound.  The result is a fresh array with the
    batch shape of the first vector argument, x, followed by `shape`.
    """
    slots = [((...,) + idx, ex) for idx, ex in zip(np.ndindex(*shape), exprs)]
    x_pos = next(i for i, names in enumerate(signature) if not isinstance(names, str))
    reads = frozenset().union(*(ex.variables for ex in exprs))
    binds = []  # (variable, argument position, component; None for a scalar)
    for pos, names in enumerate(signature):
        if isinstance(names, str):
            binds += [(names, pos, None)] if names in reads else []
        else:
            binds += [(name, pos, i) for i, name in enumerate(names) if name in reads]

    def evaluate(*values):
        env = {}
        for name, pos, i in binds:
            value = np.asarray(values[pos], dtype=float)
            env[name] = value if i is None else value[..., i]
        out = np.empty(np.shape(values[x_pos])[:-1] + shape)
        for idx, ex in slots:
            out[idx] = ex.evaluate(env)
        return out

    return evaluate


def spec_from_expressions(
    n,
    d,
    k,
    horizon,
    control_lo,
    control_hi,
    b_sources,
    sigma_sources,
    f_source,
    phi_source,
    lipschitz_hint=1.0,
    name="",
    line_info=None,
):
    """Build a ProblemSpec from DSL source strings.

    `line_info` optionally maps coefficient keys (b1, sigma1_1, f, phi) to
    (line, col) pairs so parse errors point into the original config file.
    """
    line_info = line_info or {}
    sx, sz, su = _names("x", n), _names("z", d), _names("u", k)

    def loc(key):
        return line_info.get(key, (1, 0))

    if len(b_sources) != n:
        raise ConfigError(f"expected {n} drift entries b1..b{n}, got {len(b_sources)}")
    if len(sigma_sources) != n * d:
        raise ConfigError(
            f"expected {n * d} diffusion entries, got {len(sigma_sources)}"
        )
    b_exprs = [
        parse_expression(src, ["s"] + sx + su, *loc(f"b{i + 1}"))
        for i, src in enumerate(b_sources)
    ]
    sig_exprs = [
        parse_expression(
            src, ["s"] + sx + su, *loc(f"sigma{i // d + 1}_{i % d + 1}")
        )
        for i, src in enumerate(sigma_sources)
    ]
    f_expr = parse_expression(f_source, ["s", "y"] + sx + sz + su, *loc("f"))
    phi_expr = parse_expression(phi_source, sx, *loc("phi"))
    b_vars = frozenset().union(*(e.variables for e in b_exprs))
    sig_vars = frozenset().union(*(e.variables for e in sig_exprs))
    bs_args, f_args = ("s", sx, su), ("s", sx, "y", sz, su)

    def grad(exprs, names):
        return [ex.derivative(v) for ex in exprs for v in names]

    return ProblemSpec(
        n=n,
        d=d,
        k=k,
        horizon=horizon,
        control_lo=control_lo,
        control_hi=control_hi,
        drift=_evaluator(b_exprs, (n,), bs_args),
        diffusion=_evaluator(sig_exprs, (n, d), bs_args),
        driver=_evaluator([f_expr], (), f_args),
        terminal=_evaluator([phi_expr], (), (sx,)),
        drift_x=_evaluator(grad(b_exprs, sx), (n, n), bs_args),
        diffusion_x=_evaluator(grad(sig_exprs, sx), (n, d, n), bs_args),
        driver_x=_evaluator(grad([f_expr], sx), (n,), f_args),
        driver_y=_evaluator(grad([f_expr], ["y"]), (), f_args),
        driver_z=_evaluator(grad([f_expr], sz), (d,), f_args),
        terminal_x=_evaluator(grad([phi_expr], sx), (n,), (sx,)),
        drift_u=_evaluator(grad(b_exprs, su), (n, k), bs_args),
        diffusion_u=_evaluator(grad(sig_exprs, su), (n, d, k), bs_args),
        driver_u=_evaluator(grad([f_expr], su), (k,), f_args),
        b_variables=b_vars,
        sigma_variables=sig_vars,
        f_variables=f_expr.variables,
        lipschitz_hint=lipschitz_hint,
        name=name,
    )


# --------------------------------------------------------------------------
# Config file parsing
# --------------------------------------------------------------------------

_SECTIONS = ("dims", "horizon", "control", "initial", "coefficients")
_SECTION_KEYS = {
    "dims": {"n", "d", "k", "lipschitz_hint"},
    "horizon": {"T"},
    "control": {"lo", "hi"},
    "initial": {"t", "x"},
}


def _parse_kv_lines(text):
    """Config text as {section: {key: (value, line, col)}}, {section: header line}."""
    data = {}
    headers = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, len(line))
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno, 1)
            data.setdefault(section, {})
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ConfigError("key outside any section", lineno, 1)
        if "=" not in line:
            raise ConfigError("expected key = value", lineno, 1)
        key, value = line.split("=", 1)
        col = line.index("=") + 2 + (len(value) - len(value.lstrip()))
        key = key.strip()
        if key in data[section]:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        data[section][key] = (value.strip(), lineno, col)
    return data, headers


def _as_int(item, key):
    value, line, col = item
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", line, col)


def _as_float(item, key):
    value, line, col = item
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", line, col)


def _as_floats(item, key, count):
    value, line, col = item
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ConfigError(
            f"{key} must have {count} comma-separated values, got {len(parts)}",
            line,
            col,
        )
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"{key} must be numeric, got {value!r}", line, col)


def _unquote(item, key):
    value, line, col = item
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1], line, col + 1
    return value, line, col


def parse_problem(config_text):
    """Parse a problem config into a validated ProblemSpec.

    Returns (spec, initial) where initial is a (t, x) pair when the
    optional [initial] section is present, else None.  Errors carry the
    offending line and column: an absent key or coefficient points at
    its section header, an absent section at the line after the last.
    """
    data, headers = _parse_kv_lines(config_text)
    # unknown keys come before missing sections
    for section, allowed in _SECTION_KEYS.items():
        for key, (_, line, _) in data.get(section, {}).items():
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]", line, 1)
    end = len(config_text.splitlines()) + 1
    for section in ("dims", "horizon", "control", "coefficients"):
        if section not in data:
            raise ConfigError(f"missing required section [{section}]", end, 1)

    def need(section, key):
        """(value, line, col) of a key; an absent key points at its header."""
        if key not in data[section]:
            msg = f"missing required key {key!r} in section [{section}]"
            raise ConfigError(msg, headers[section], 1)
        return data[section][key]

    n, d, k = (_as_int(need("dims", key), key) for key in ("n", "d", "k"))
    hint = 1.0
    if "lipschitz_hint" in data["dims"]:
        hint = _as_float(data["dims"]["lipschitz_hint"], "lipschitz_hint")
    item = need("horizon", "T")
    horizon = _as_float(item, "T")
    if not horizon > 0:
        raise ConfigError("horizon T must be strictly positive", *item[1:])
    item = need("control", "lo")
    lo = _as_floats(item, "lo", k)
    hi = _as_floats(need("control", "hi"), "hi", k)
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        msg = f"empty control box: lo[{i}] = {lo[i]} > hi[{i}] = {hi[i]}"
        raise ConfigError(msg, *item[1:])

    coeff = data["coefficients"]
    expected = (
        [f"b{i + 1}" for i in range(n)]
        + [f"sigma{i + 1}_{j + 1}" for i in range(n) for j in range(d)]
        + ["f", "phi"]
    )
    for key, (_, line, _) in coeff.items():
        if key not in expected:
            raise ConfigError(f"unknown coefficient key {key!r}", line, 1)
    sources = {}
    line_info = {}
    for key in expected:
        if key not in coeff:
            msg = f"missing coefficient {key!r} in [coefficients]"
            raise ConfigError(msg, headers["coefficients"], 1)
        src, line, col = _unquote(coeff[key], key)
        sources[key] = src
        line_info[key] = (line, col)

    spec = spec_from_expressions(
        n,
        d,
        k,
        horizon,
        lo,
        hi,
        [sources[f"b{i + 1}"] for i in range(n)],
        [sources[f"sigma{i + 1}_{j + 1}"] for i in range(n) for j in range(d)],
        sources["f"],
        sources["phi"],
        lipschitz_hint=hint,
        line_info=line_info,
    )

    initial = None
    if "initial" in data:
        item = need("initial", "t")
        t0 = _as_float(item, "t")
        x0 = _as_floats(need("initial", "x"), "x", n)
        if not 0.0 <= t0 < horizon:
            raise ConfigError(f"initial time t = {t0} outside [0, T)", *item[1:])
        initial = (t0, x0)
    return spec, initial


# --------------------------------------------------------------------------
# Built-in problems
# --------------------------------------------------------------------------


def _example31():
    # dX = X u ds + X dW, driver x - y, terminal x, U = [0, 1]
    return spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0],
        ["x1 * u1"], ["x1"], "x1 - y", "x1",
        lipschitz_hint=2.0, name="example31",
    )


def _smooth1d():
    # smooth nonlinear coefficients with bounded derivatives
    return spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0],
        ["sin(x1) * u1"], ["0.5 + 0.1 * cos(x1)"],
        "x1 - y + 0.1 * sin(z1)", "sin(x1)",
        lipschitz_hint=2.0, name="smooth1d",
    )


_BUILTINS = {"example31": _example31, "smooth1d": _smooth1d}


def builtin_names():
    return sorted(_BUILTINS)


def builtin_problem(name):
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        )
    return _BUILTINS[name]()


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


def control_grid(spec, size):
    """Uniform tensor grid over the control box: `size` points per axis,
    one on an axis with lo == hi, so (size**k, k) controls for a box with
    no degenerate axis."""
    if size < 2:
        raise ProblemError("control_grid_size must be >= 2")
    axes = [
        np.linspace(lo, hi, size if hi > lo else 1)
        for lo, hi in zip(spec.control_lo, spec.control_hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)

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

Config file format (UTF-8, a leading byte-order mark allowed, ini-like;
see also the CLI help)::

    [dims]
    n = 1
    d = 1
    k = 1
    lipschitz_hint = 2.0     # optional; checked to be a number, then ignored

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
s,x,u; f sees everything; phi sees x only), finite numeric literals,
+ - * / ^ (^ may be written **; it is right-associative), unary minus
and plus, and exp, log, sin, cos, sqrt, abs, min, max, nested at most
`_MAX_DEPTH` (64) levels deep.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np


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
# the operators and functions of evaluation: derivative trees also call sign,
# for abs, and for min and max a step with step(0) = 1/2
_OPERATIONS = {
    **_FUNCTIONS, "sign": np.sign, "step": lambda t: np.heaviside(t, 0.5),
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}
# the operands the checked operations refuse: (operand, the comparison with
# 0 that finds them, message)
_REFUSED = {
    "/": (1, np.equal, "division by zero"),
    "log": (0, np.less_equal, "log of a nonpositive value"),
    "sqrt": (0, np.less, "sqrt of a negative value"),
}

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
            literal = m.group(0).strip()
            number = float(literal)
            if not np.isfinite(number):
                msg = f"numeric literal {literal!r} must be finite"
                raise ExpressionSyntaxError(msg, line, col)
            tokens.append(("num", number, col))
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


# the most levels an expression may nest: its tree counts one level per node
# on the longest path from the root to a leaf (x1 - y: two), and while
# parsing so do the open parentheses, calls, signs and exponents.  A derived
# gradient's tree is at most about four times as deep, and compiling and
# evaluating a tree takes about two Python frames per level, so every tree
# stays within the default recursion limit of 1000, on any thread.
_MAX_DEPTH = 64


class _Parser:
    """Recursive-descent parser for the coefficient DSL.  The parse
    methods return (node, its tree's depth)."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.open = 0  # parentheses, calls, signs and exponents being parsed

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ExpressionSyntaxError(msg, self.line, tok[2])

    def too_deep(self, tok):
        self.error(f"expression nested deeper than {_MAX_DEPTH} levels", tok)

    def inner(self, tok, parse):
        """parse() one level further in, opened at tok."""
        self.open += 1
        if self.open > _MAX_DEPTH:
            self.too_deep(tok)
        result = parse()
        self.open -= 1
        return result

    def node(self, tok, node, *depths):
        """(node, its depth) over its operands' depths, built at tok."""
        depth = 1 + max(depths)
        if depth > _MAX_DEPTH:
            self.too_deep(tok)
        return node, depth

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            self.error(f"expected {kind!r}", tok)
        return tok

    def parse(self):
        node, _ = self.expression()
        if self.peek()[0] != "end":
            self.error("trailing input after expression")
        return node

    def expression(self):
        node, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            tok = self.take()
            right, right_depth = self.term()
            node, depth = self.node(tok, ("bin", tok[0], node, right), depth, right_depth)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek()[0] in ("*", "/"):
            tok = self.take()
            right, right_depth = self.unary()
            node, depth = self.node(tok, ("bin", tok[0], node, right), depth, right_depth)
        return node, depth

    def unary(self):
        tok = self.peek()
        if tok[0] in ("-", "+"):
            self.take()
            node, depth = self.inner(tok, self.unary)
            if tok[0] == "+":
                return node, depth
            return self.node(tok, ("neg", node), depth)
        return self.power()

    def power(self):
        base, depth = self.atom()
        tok = self.peek()
        if tok[0] == "^":
            self.take()
            # right-associative exponent
            exponent, exp_depth = self.inner(tok, self.unary)
            return self.node(tok, ("bin", "^", base, exponent), depth, exp_depth)
        return base, depth

    def atom(self):
        tok = self.take()
        if tok[0] == "num":
            return ("num", tok[1]), 1
        if tok[0] == "name":
            if self.peek()[0] == "(":
                paren = self.take()
                args = [self.inner(paren, self.expression)]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.inner(paren, self.expression))
                self.expect(")")
                name = tok[1]
                if name not in _FUNCTIONS:
                    self.error(f"unknown function {name!r}", tok)
                arity = 2 if name in ("min", "max") else 1
                if len(args) != arity:
                    count = ("one argument", "two arguments")[arity - 1]
                    self.error(f"{name} takes {count}", tok)
                nodes, depths = zip(*args)
                return self.node(tok, ("call", name, list(nodes)), *depths)
            return ("var", tok[1], tok[2]), 1
        if tok[0] == "(":
            node = self.inner(tok, self.expression)
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


def _power(a, b, source):
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.power(a, b)
    if not np.all(np.isfinite(r)):
        raise DomainError(f"invalid power in {source!r}")
    return r


def _compile(node, source):
    """`node` as a function of an environment: nested closures, one per
    node, each doing its node's operation and domain check."""
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]
        return lambda env: env[name]
    if kind == "neg":
        arg = _compile(node[1], source)
        return lambda env: -arg(env)
    name = node[1]
    args = [_compile(a, source) for a in (node[2:] if kind == "bin" else node[2])]
    if name == "^":
        left, right = args
        return lambda env: _power(left(env), right(env), source)
    fn = _OPERATIONS[name]
    if name in _REFUSED:
        pos, refused, what = _REFUSED[name]

        def checked(env):
            vals = [a(env) for a in args]
            if np.any(refused(vals[pos], 0)):
                raise DomainError(f"{what} in {source!r}")
            return fn(*vals)

        return checked
    if len(args) == 2:
        left, right = args
        return lambda env: fn(left(env), right(env))
    (arg,) = args
    return lambda env: fn(arg(env))


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
    variables: frozenset = field(init=False)  # the names the tree reads

    def __post_init__(self):
        used = set()
        _collect_vars(self.tree, used)
        self.variables = frozenset(used)
        self._evaluate = _compile(self.tree, self.source)

    def evaluate(self, env):
        """Evaluate on an environment of (broadcastable) numpy arrays."""
        return self._evaluate(env)

    def derivative(self, var):
        """The partial derivative in `var`, labelled d(source)/d`var`."""
        return CoefficientExpr(f"d({self.source})/d{var}", _derivative(self.tree, var))


def parse_expression(text, allowed_vars, line=1, col0=0):
    """Parse one DSL expression, restricted to `allowed_vars`.

    Raises ExpressionSyntaxError (with line/column) on malformed input and
    on references to variables outside the allowed set.
    """
    tokens = _tokenize(text, line, col0)
    expr = CoefficientExpr(text, _Parser(tokens, line).parse())
    bad = expr.variables - set(allowed_vars)
    if bad:
        # report the first offending occurrence with its column
        for tok in tokens:
            if tok[0] == "name" and tok[1] in bad:
                raise ExpressionSyntaxError(
                    f"variable {tok[1]!r} not available here", line, tok[2]
                )
        raise ExpressionSyntaxError(f"undeclared variables {sorted(bad)}", line, col0)
    return expr


# --------------------------------------------------------------------------
# Problem specification
# --------------------------------------------------------------------------


def _names(prefix, count):
    return [f"{prefix}{i + 1}" for i in range(count)]


@dataclass
class ProblemSpec:
    """A stochastic recursive control problem on one probability space.

    Evaluators are vectorized over leading batch axes: `drift(s, x, u)`
    maps (..., n) states and (..., k) controls to (..., n); `diffusion`
    to (..., n, d); `driver(s, x, y, z, u)` and `terminal(x)` to (...,).
    The batch shape is x's, so one (k,) control serves a whole batch.
    All evaluators are deterministic.  `zero_gradients` names which of
    diffusion_u, driver_u and driver_z have the constant 0 as every
    derived entry: `adjoint.hamiltonian_gradient_u` skips their terms, and
    `adjoint.solve_q` skips f_z dW.  `f_y_variables` names what the
    derived f_y reads: with no x, y or z among them and f_z identically 0,
    `adjoint.solve_q` solves q on one path and broadcasts it.
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
    # solvers hoist invariants; f_y_variables are those of the derived f_y
    b_variables: frozenset
    sigma_variables: frozenset
    f_variables: frozenset
    f_y_variables: frozenset
    zero_gradients: frozenset
    # b_x (..., n, n), sigma_x (..., n, d, n), f_x (..., n), f_y (...,), f_z
    # (..., d), phi_x (..., n), b_u (..., n, k), sigma_u (..., n, d, k), f_u
    # (..., k); spec_from_expressions derives them
    drift_x: callable
    diffusion_x: callable
    driver_x: callable
    driver_y: callable
    driver_z: callable
    terminal_x: callable
    drift_u: callable
    diffusion_u: callable
    driver_u: callable

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

    def control_inside(self, u):
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.control_lo) and np.all(u <= self.control_hi))


def _evaluator(exprs, shape, signature):
    """Evaluator of `exprs`, laid out row-major over the output `shape`.

    `signature` lists the arguments in call order: a name binds a scalar
    argument ("s", "y"), a list of names binds the components along the
    last axis of a vector argument (x1..xn).  Only the variables some
    expression reads are bound.  The result is a fresh array with the
    batch shape of the first vector argument, x, followed by `shape`.  A
    single expression whose root is an operation returns its result
    reshaped when that is already a float64 array of x's batch shape: an
    operation's result is a new array, so it is fresh as well.
    """
    slots = [((...,) + idx, ex) for idx, ex in zip(np.ndindex(*shape), exprs)]
    direct = len(exprs) == 1 and exprs[0].tree[0] in ("neg", "bin", "call")
    x_pos = next(i for i, names in enumerate(signature) if not isinstance(names, str))
    reads = frozenset().union(*(ex.variables for ex in exprs))
    binds = []  # (variable, argument position, component; None for a scalar)
    for pos, names in enumerate(signature):
        if isinstance(names, str):
            binds += [(names, pos, None)] if names in reads else []
        else:
            binds += [(name, pos, i) for i, name in enumerate(names) if name in reads]

    def evaluate(*values):
        x = np.asarray(values[x_pos], dtype=float)
        env = {}
        for name, pos, i in binds:
            value = x if pos == x_pos else np.asarray(values[pos], dtype=float)
            env[name] = value if i is None else value[..., i]
        batch = x.shape[:-1] + shape
        if direct:
            result = exprs[0].evaluate(env)
            if type(result) is np.ndarray and result.dtype == np.float64:
                if result.shape == x.shape[:-1]:
                    return result.reshape(batch)
        out = np.empty(batch)
        for idx, ex in slots:
            out[idx] = result if direct else ex.evaluate(env)
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

    f_y = f_expr.derivative("y")
    sigma_u, f_u, f_z = grad(sig_exprs, su), grad([f_expr], su), grad([f_expr], sz)

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
        driver_y=_evaluator([f_y], (), f_args),
        driver_z=_evaluator(f_z, (d,), f_args),
        terminal_x=_evaluator(grad([phi_expr], sx), (n,), (sx,)),
        drift_u=_evaluator(grad(b_exprs, su), (n, k), bs_args),
        diffusion_u=_evaluator(sigma_u, (n, d, k), bs_args),
        driver_u=_evaluator(f_u, (k,), f_args),
        b_variables=b_vars,
        sigma_variables=sig_vars,
        f_variables=f_expr.variables,
        f_y_variables=f_y.variables,
        zero_gradients=frozenset(
            name
            for name, exprs in (
                ("diffusion_u", sigma_u), ("driver_u", f_u), ("driver_z", f_z)
            )
            if all(ex.tree == _ZERO for ex in exprs)
        ),
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


def _as_dimension(item, key):
    value, line, col = item
    try:
        size = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", line, col)
    if size < 1:
        raise ConfigError(f"{key} must be >= 1, got {size}", line, col)
    return size


def _as_float(item, key):
    value, line, col = item
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", line, col)
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}", line, col)
    return number


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
        numbers = np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"{key} must be numeric, got {value!r}", line, col)
    if not np.isfinite(numbers).all():
        raise ConfigError(f"{key} must be finite, got {value!r}", line, col)
    return numbers


def _unquote(item):
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

    n, d, k = (_as_dimension(need("dims", key), key) for key in ("n", "d", "k"))
    if "lipschitz_hint" in data["dims"]:  # accepted for old configs; unused
        _as_float(data["dims"]["lipschitz_hint"], "lipschitz_hint")
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
        src, line, col = _unquote(coeff[key])
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
    )


def _smooth1d():
    # smooth nonlinear coefficients with bounded derivatives
    return spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0],
        ["sin(x1) * u1"], ["0.5 + 0.1 * cos(x1)"],
        "x1 - y + 0.1 * sin(z1)", "sin(x1)",
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


CONTROL_GRID_SIZE = 11


def control_grid(spec):
    """Uniform tensor grid over the control box: CONTROL_GRID_SIZE points
    per axis, one on an axis with lo == hi, so (11**k, k) controls for a
    box with no degenerate axis.  The HJB solver takes its sup over u on
    this grid."""
    axes = [
        np.linspace(lo, hi, CONTROL_GRID_SIZE if hi > lo else 1)
        for lo, hi in zip(spec.control_lo, spec.control_hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)

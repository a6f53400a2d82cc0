import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelab import problem as P

EXAMPLE_CONFIG = """
[dims]
n = 1
d = 1
k = 1

[horizon]
T = 1.0

[control]
lo = 0.0
hi = 1.0

[coefficients]
b1 = "x1 * u1"
sigma1_1 = "x1"
f = "x1 - y"
phi = "x1"
"""


def test_parse_example_config_matches_builtin():
    spec, initial = P.parse_problem(EXAMPLE_CONFIG)
    assert initial is None
    assert (spec.n, spec.d, spec.k) == (1, 1, 1)
    assert spec.horizon == 1.0
    b = spec.drift(0.0, np.array([2.0]), np.array([0.5]))
    sg = spec.diffusion(0.0, np.array([2.0]), np.array([0.5]))
    assert b == pytest.approx(1.0)
    assert sg[0, 0] == pytest.approx(2.0)


def test_syntax_error_carries_position():
    bad = EXAMPLE_CONFIG.replace('"x1 * u1"', '"x1 *"')
    with pytest.raises(P.ExpressionSyntaxError) as err:
        P.parse_problem(bad)
    assert err.value.line is not None
    assert err.value.col is not None


@pytest.mark.parametrize(
    "text, col, match",
    [("x1 +    q", 9, "'q'"), ("x1 +   $", 8, "'\\$'"), ("x1 *   )", 8, "'\\)'")],
)
def test_expression_errors_point_at_the_token(text, col, match):
    with pytest.raises(P.ExpressionSyntaxError, match=match) as err:
        P.parse_expression(text, ["x1"], line=3, col0=1)
    assert (err.value.line, err.value.col) == (3, col)


def test_empty_control_box_rejected():
    bad = EXAMPLE_CONFIG.replace("lo = 0.0", "lo = 1.0").replace("hi = 1.0", "hi = 0.0")
    with pytest.raises(P.ConfigError, match="empty control box"):
        P.parse_problem(bad)


def test_unknown_key_rejected():
    bad = EXAMPLE_CONFIG.replace("[horizon]", "[horizon]\nbogus = 3")
    with pytest.raises(P.ConfigError, match="unknown key"):
        P.parse_problem(bad)


def test_unknown_key_reported_before_missing_section():
    with pytest.raises(P.ConfigError, match="unknown key") as err:
        P.parse_problem("[dims]\nn = 1\nbogus = 2\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "bad, match, line",
    [
        # a missing key or coefficient: the line of its section header
        (EXAMPLE_CONFIG.replace("d = 1\n", ""), "missing required key 'd'", 2),
        (EXAMPLE_CONFIG.replace('f = "x1 - y"\n', ""), "missing coefficient 'f'", 14),
        # a missing section: the line after the last
        (EXAMPLE_CONFIG.replace("[horizon]\nT = 1.0\n", ""), "section .horizon", 17),
        (
            EXAMPLE_CONFIG.replace("lo = 0.0", "lo = 1.0").replace("hi = 1.0", "hi = 0.0"),
            "empty control box",
            11,
        ),
        (EXAMPLE_CONFIG + "\n[initial]\nt = 2.0\nx = 0.0\n", "initial time", 21),
        (EXAMPLE_CONFIG.replace("T = 1.0", "T = 0.0"), "strictly positive", 8),
    ],
    ids=["key", "coefficient", "section", "control_box", "initial_t", "horizon"],
)
def test_config_errors_carry_a_line(bad, match, line):
    with pytest.raises(P.ConfigError, match=match) as err:
        P.parse_problem(bad)
    assert err.value.line == line


def test_missing_sigma_entry_rejected():
    bad = EXAMPLE_CONFIG.replace('sigma1_1 = "x1"\n', "")
    with pytest.raises(P.ConfigError, match="sigma1_1"):
        P.parse_problem(bad)


def test_undeclared_variable_rejected():
    bad = EXAMPLE_CONFIG.replace('"x1 - y"', '"x2 - y"')
    with pytest.raises(P.ExpressionSyntaxError, match="x2"):
        P.parse_problem(bad)


def test_phi_cannot_see_controls():
    bad = EXAMPLE_CONFIG.replace('phi = "x1"', 'phi = "x1 * u1"')
    with pytest.raises(P.ExpressionSyntaxError, match="u1"):
        P.parse_problem(bad)


def test_initial_section_round_trip():
    spec, initial = P.parse_problem(
        EXAMPLE_CONFIG + "\n[initial]\nt = 0.25\nx = -1.0\n"
    )
    assert initial[0] == 0.25
    assert initial[1][0] == -1.0


@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_expression_quadratic_eval(a, b, c):
    text = f"{a!r} + {b!r} * x1 + {c!r} * x1 ^ 2"
    expr = P.parse_expression(text, ["x1"])
    xs = np.linspace(-3, 3, 7)
    expected = a + b * xs + c * xs**2
    got = expr.evaluate({"x1": xs})
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-9)


def test_expression_functions_and_precedence():
    e = P.parse_expression("2 + 3 * 4 ^ 2", [])
    assert e.evaluate({}) == 50.0
    e = P.parse_expression("-2 ^ 2", [])
    assert e.evaluate({}) == -4.0
    e = P.parse_expression("min(3, max(1, 2)) * exp(0)", [])
    assert e.evaluate({}) == 2.0
    e = P.parse_expression("abs(0 - 3) + sqrt(4)", [])
    assert e.evaluate({}) == 5.0


@pytest.mark.parametrize("f", ["y", "x1", "2"])
def test_evaluator_output_is_fresh_with_the_batch_shape(f):
    spec = P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], f, "x1")
    x = np.array([[0.5], [-1.5], [2.0]])
    y = np.array([3.0, -4.0, 0.25])
    z, u = np.zeros((3, 1)), np.zeros((3, 1))
    out = spec.driver(0.2, x, y, z, u)
    assert out.dtype == np.float64
    assert out.shape == (3,)
    assert np.array_equal(out, {"y": y, "x1": x[:, 0], "2": np.full(3, 2.0)}[f])
    # arguments given as lists are read as float arrays
    listed = spec.driver(0.2, x.tolist(), y.tolist(), z.tolist(), u.tolist())
    assert np.array_equal(listed, out)
    out += 1.0
    assert np.array_equal(x[:, 0], [0.5, -1.5, 2.0])
    assert np.array_equal(y, [3.0, -4.0, 0.25])


def test_expression_domain_errors():
    for text in ("log(x1)", "sqrt(x1)", "1 / x1"):
        expr = P.parse_expression(text, ["x1"])
        with pytest.raises(P.DomainError):
            expr.evaluate({"x1": np.array([-1.0, 1.0]) * (0.0 if "/" in text else 1.0)})


# central differences: the reference the derived gradients are checked against
def _fd_step(h_grad, value):
    return np.asarray(h_grad * (1.0 + np.abs(value)))


def _fd_jacobian_x(fn, n, h_grad, matrix_valued=False):
    """Central-difference Jacobian in x of b or sigma."""

    def grad(s, x, u):
        x = np.asarray(x, dtype=float)
        cols = []
        for j in range(n):
            h = _fd_step(h_grad, x[..., j])
            e = np.zeros_like(x)
            e[..., j] = h
            num = fn(s, x + e, u) - fn(s, x - e, u)
            den = 2.0 * h[..., None, None] if matrix_valued else 2.0 * h[..., None]
            cols.append(num / den)
        return np.stack(cols, axis=-1)

    return grad


def _fd_driver_grad(fn, which, m, h_grad):
    """Central-difference gradient of the driver in x, y, or z."""

    def grad(s, x, y, z, u):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if which == "y":
            h = _fd_step(h_grad, y)
            return (fn(s, x, y + h, z, u) - fn(s, x, y - h, z, u)) / (2.0 * h)
        target = x if which == "x" else z
        cols = []
        for j in range(m):
            h = _fd_step(h_grad, target[..., j])
            e = np.zeros_like(target)
            e[..., j] = h
            if which == "x":
                diff = (fn(s, x + e, y, z, u) - fn(s, x - e, y, z, u)) / (2.0 * h)
            else:
                diff = (fn(s, x, y, z + e, u) - fn(s, x, y, z - e, u)) / (2.0 * h)
            cols.append(diff)
        return np.stack(cols, axis=-1)

    return grad


def _fd_terminal_grad(fn, n, h_grad):
    def grad(x):
        x = np.asarray(x, dtype=float)
        cols = []
        for j in range(n):
            h = _fd_step(h_grad, x[..., j])
            e = np.zeros_like(x)
            e[..., j] = h
            cols.append((fn(x + e) - fn(x - e)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    return grad


def test_fd_gradients_match_analytic_richardson():
    # second-order convergence of the central differences on a smooth builtin
    spec = P.builtin_problem("smooth1d")
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, (100, 1))
    u = rng.uniform(0, 1, (100, 1))
    y = rng.uniform(-2, 2, 100)
    z = rng.uniform(-2, 2, (100, 1))

    cases = [
        (
            lambda h: _fd_jacobian_x(spec.drift, 1, h)(0.3, x, u)[..., 0],
            spec.drift_x(0.3, x, u)[..., 0],
        ),
        (
            lambda h: _fd_driver_grad(spec.driver, "z", 1, h)(0.3, x, y, z, u),
            spec.driver_z(0.3, x, y, z, u),
        ),
        (
            lambda h: _fd_terminal_grad(spec.terminal, 1, h)(x),
            spec.terminal_x(x),
        ),
    ]
    for fd, exact in cases:
        err_h = np.max(np.abs(fd(1e-3) - exact))
        err_h2 = np.max(np.abs(fd(5e-4) - exact))
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.35)
        # and the production step size is accurate in absolute terms
        assert np.max(np.abs(fd(1e-5) - exact)) <= 1e-8


def _smooth_expressions(names):
    """Random smooth DSL expressions over `names`, bounded on [-1, 1]."""
    leaves = st.sampled_from(list(names) + ["0.5", "2", "1.25"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, inner).map(lambda t: f"{t[0]} / (2 + cos({t[1]}))"),
            inner.map(lambda e: f"-({e}) ^ 2"),
            st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda e: f"exp(sin({e}))"),
            inner.map(lambda e: f"log(2 + cos({e}))"),
            inner.map(lambda e: f"sqrt(2 + sin({e}))"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@given(
    st.lists(_smooth_expressions(["s", "x1", "x2", "u1"]), min_size=6, max_size=6),
    _smooth_expressions(["s", "x1", "x2", "y", "z1", "z2", "u1"]),
    _smooth_expressions(["x1", "x2"]),
)
@settings(max_examples=60, deadline=None)
def test_symbolic_gradients_match_richardson_differences(bs, f, phi):
    spec = P.spec_from_expressions(2, 2, 1, 1.0, [0.0], [1.0], bs[:2], bs[2:], f, phi)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (5, 2))
    u = rng.uniform(0, 1, (5, 1))
    y = rng.uniform(-1, 1, 5)
    z = rng.uniform(-1, 1, (5, 2))
    pairs = [
        (spec.drift_x(0.3, x, u), lambda h: _fd_jacobian_x(spec.drift, 2, h)(0.3, x, u)),
        (
            spec.diffusion_x(0.3, x, u),
            lambda h: _fd_jacobian_x(spec.diffusion, 2, h, matrix_valued=True)(0.3, x, u),
        ),
        (spec.terminal_x(x), lambda h: _fd_terminal_grad(spec.terminal, 2, h)(x)),
    ]
    for which, grad, m in (("x", spec.driver_x, 2), ("y", spec.driver_y, 1), ("z", spec.driver_z, 2)):
        fd = lambda h, which=which, m=m: _fd_driver_grad(spec.driver, which, m, h)(0.3, x, y, z, u)
        pairs.append((grad(0.3, x, y, z, u), fd))
    for exact, fd in pairs:
        # Richardson extrapolation cancels the h^2 term of central differences
        richardson = (4.0 * fd(5e-4) - fd(1e-3)) / 3.0
        assert exact.shape == richardson.shape
        np.testing.assert_allclose(exact, richardson, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "phi, at, slope",
    [
        # a kink: the mean of the one-sided slopes, as central differences give
        ("abs(x1)", 0.0, 0.0),
        ("max(x1, 1)", 1.0, 0.5),
        ("min(x1, 1)", 1.0, 0.5),
        ("max(2 * x1, -x1)", 0.0, 0.5),
        ("min(x1, 1)", 2.0, 0.0),
        # a constant exponent stays defined at nonpositive bases
        ("x1 ^ 2", -1.0, -2.0),
        ("x1 ^ 2", 0.0, 0.0),
        ("(x1 - 1) ^ 3", -1.0, 12.0),
    ],
)
def test_gradient_at_kinks_and_nonpositive_bases(phi, at, slope):
    spec = P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", phi)
    x = np.array([[at]])
    assert spec.terminal_x(x)[0, 0] == slope
    assert _fd_terminal_grad(spec.terminal, 1, 1e-5)(x)[0, 0] == pytest.approx(slope)


def test_builtin_gradients_are_their_closed_forms():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, (9, 1))
    u = rng.uniform(0, 1, (9, 1))
    y = rng.uniform(-2, 2, 9)
    z = rng.uniform(-2, 2, (9, 1))
    ones = np.ones((9, 1))
    closed = {
        "example31": (u[..., None], ones[..., None, None], ones, -ones[:, 0], 0.0 * ones, ones),
        "smooth1d": (
            (np.cos(x) * u)[..., None],
            (-0.1 * np.sin(x))[..., None, None],
            ones,
            -ones[:, 0],
            0.1 * np.cos(z),
            np.cos(x),
        ),
    }
    for name, want in closed.items():
        spec = P.builtin_problem(name)
        got = (
            spec.drift_x(0.3, x, u),
            spec.diffusion_x(0.3, x, u),
            spec.driver_x(0.3, x, y, z, u),
            spec.driver_y(0.3, x, y, z, u),
            spec.driver_z(0.3, x, y, z, u),
            spec.terminal_x(x),
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w), name


def test_spec_without_a_gradient_is_rejected(spec31):
    with pytest.raises(P.ProblemError, match="gradient driver_z"):
        dataclasses.replace(spec31, driver_z=None)


def test_unknown_builtin():
    with pytest.raises(P.ConfigError, match="unknown builtin"):
        P.builtin_problem("nope")

import math

import numpy as np
import pytest

from fbsdelab import oracles


def test_value_branches():
    assert oracles.example31_value(0.5, -1.0, 1.0) == 1.0
    assert oracles.example31_value(0.0, 1.0, 1.0) == -2.0
    for tt in (0.0, 0.3, 1.0):
        assert oracles.example31_value(tt, 0.0, 1.0) == 0.0


def test_value_time_domain():
    with pytest.raises(ValueError):
        oracles.example31_value(1.5, 0.3, 1.0)


def test_adjoint_triple_values():
    assert oracles.example31_adjoint(0.0, 0.0) == (-1.0, 1.0, 0.0)
    p, q, k = oracles.example31_adjoint(0.0, 1.0)
    assert p == pytest.approx(-math.exp(-1.0))
    assert q == pytest.approx(math.exp(-1.0))
    assert k == 0.0
    with pytest.raises(ValueError):
        oracles.example31_adjoint(0.5, 0.2)


def test_adjoint_ratio_is_minus_one():
    for s in np.linspace(0.2, 1.0, 7):
        p, q, _ = oracles.example31_adjoint(0.2, s)
        assert p / q == pytest.approx(-1.0, abs=1e-14)


def test_jet_sets():
    sub, sup = oracles.example31_jets(0.0, 1.0)
    assert sub is None
    assert sup == (-2.0, -1.0)
    sub, sup = oracles.example31_jets(1.0, 1.0)
    assert sup == (-1.0, -1.0)
    # sub-jet empty at every time
    for s in np.linspace(0.0, 1.0, 9):
        assert oracles.example31_jets(s, 1.0)[0] is None


def test_ratio_in_superjet_endpoint():
    for s in np.linspace(0.1, 1.0, 10):
        p, q, _ = oracles.example31_adjoint(0.1, s)
        lo, hi = oracles.example31_jets(s, 1.0)[1]
        assert lo - 1e-14 <= p / q <= hi + 1e-14
        assert p / q == pytest.approx(hi)


def test_regularity_bounds():
    # |V(t,x)-V(t,x')| <= (T+1)|x-x'| and |V| <= (T+1)(1+|x|)
    T = 1.0
    rng = np.random.default_rng(0)
    ts = rng.uniform(0, T, 200)
    xa = rng.uniform(-5, 5, 200)
    xb = rng.uniform(-5, 5, 200)
    va = np.array([oracles.example31_value(t, a, T) for t, a in zip(ts, xa)])
    vb = np.array([oracles.example31_value(t, b, T) for t, b in zip(ts, xb)])
    assert np.all(np.abs(va - vb) <= (T + 1) * np.abs(xa - xb) + 1e-12)
    assert np.all(np.abs(va) <= (T + 1) * (1.0 + np.abs(xa)) + 1e-12)


def test_adjoint_satisfies_example_ode():
    # dq/ds = -q and dp/ds = +q (control 0, k = 0), to O(h^2)
    t = 0.0
    h = 1e-5
    for s in (0.2, 0.5, 0.8):
        pm, qm, _ = oracles.example31_adjoint(t, s - h)
        pp, qp, _ = oracles.example31_adjoint(t, s + h)
        p0, q0, _ = oracles.example31_adjoint(t, s)
        assert (qp - qm) / (2 * h) == pytest.approx(-q0, abs=1e-9)
        assert (pp - pm) / (2 * h) == pytest.approx(q0, abs=1e-9)


def test_terminal_consistency():
    for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
        assert oracles.example31_value(1.0, x, 1.0) == -x


def test_constant_policy_y0():
    assert oracles.example31_constant_policy_y0(0.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)
    assert oracles.example31_constant_policy_y0(0.0, 1.0, 1.0, 1.0) == pytest.approx(2.0)
    # increasing in the control for positive x
    cs = np.linspace(0.0, 1.0, 11)
    ys = [oracles.example31_constant_policy_y0(0.0, 1.0, 1.0, c) for c in cs]
    assert np.all(np.diff(ys) > 0)


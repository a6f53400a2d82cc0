"""Closed-form ground truth for the builtin kinked benchmark problem.

The builtin "example31" problem (dX = X u ds + X dW on U = [0, 1],
driver x - y, terminal x) admits explicit formulas: the value function

    V(t, x) = -x               for x <= 0,
    V(t, x) = -x (T - t) - x   for x > 0,

the adjoint triple (p, q, k)(s) = (-e^{t-s}, e^{t-s}, 0) along the
optimal pair started at x = 0 with control 0, and Y(t) under a constant
control.  The CLI's oracle metrics and the tests compare the pipeline
against them.
"""

from __future__ import annotations

import math

import numpy as np


def example31_value(tt, x, horizon):
    """Explicit value function; vectorized in x."""
    if np.any(np.asarray(tt) < 0.0) or np.any(np.asarray(tt) > horizon):
        raise ValueError(f"time {tt} outside [0, {horizon}]")
    x = np.asarray(x, dtype=float)
    val = np.where(x <= 0.0, -x, -x * (horizon - tt) - x)
    return float(val) if val.ndim == 0 else val


def example31_adjoint(t, s):
    """(p, q, k) at time s for the adjoint started at time t; vectorized in s."""
    if np.any(np.asarray(s) < t):
        raise ValueError(f"need s >= t, got s = {s} < t = {t}")
    e = np.exp(t - s)
    return -e, e, 0.0


def example31_constant_policy_y0(t, x, horizon, c):
    """Backward value Y(t) = x g(c, T-t) under the constant control c.

    The linear backward equation solves in closed form against
    E[X(r) | X(s)] = X(s) e^{c (r-s)}:
    g(c, tau) = (e^{(c-1) tau} - 1)/(c-1) + e^{(c-1) tau}, with the
    limit tau + 1 at c = 1.  Used as the oracle for the regression
    solver under constant policies.
    """
    tau = horizon - t
    a = c - 1.0
    if abs(a) < 1e-12:
        g = tau + 1.0
    else:
        g = (math.expm1(a * tau)) / a + math.exp(a * tau)
    return x * g

"""The closed-form pairs and their wrong twins against which the lab's
verdicts are scored.  Each row is a one-dimensional problem, config text
or a builtin's name, run from its start under the lower corner of its
control box.  An optimal row's verdicts must pass and a twin's must
fail.  Imported by the tests, never collected."""

from dataclasses import dataclass

from fbsdelab import problem


def _config(b, sigma, f, phi, lo=0.0):
    """Config text of a problem with n = d = k = 1 on [0, 1] x [lo, 1]."""
    return f"""\
[dims]
n = 1
d = 1
k = 1

[horizon]
T = 1.0

[control]
lo = {lo}
hi = 1.0

[coefficients]
b1 = "{b}"
sigma1_1 = "{sigma}"
f = "{f}"
phi = "{phi}"
"""


@dataclass(frozen=True)
class Pair:
    """One row of the table.

    y0 is the closed-form Y(0) under the lower corner, None where none is
    known.  The Euler and explicit backward schemes carry a first-order
    bias in Y0 of at most `y0_dt_bias` times dt.  `optimal` is whether
    the lower corner is optimal, so the maximum condition's expected
    verdict; a twin's `worst_residual` is the exact min over steps and
    the box of the path mean of <H_u, u - u_bar>.
    """

    name: str
    problem: str
    x0: float
    n_picard: int
    y0: float | None
    y0_dt_bias: float
    optimal: bool
    worst_residual: float | None = None

    def spec(self):
        if self.problem in problem.builtin_names():
            return problem.builtin_problem(self.problem)
        return problem.parse_problem(self.problem)[0]


# The quadratic problem dX = sigma dW, Y = E[X_T^2 | X_t], so
# Y0 = x^2 + sigma^2; V = -(x^2 + sigma^2 (T - t)), p = -2X, q = 1,
# k = -2 sigma.  The Euler scheme is exact for it, so its Y0 has no dt
# bias.  With sigma = 1.5 - u on [0.5, 1] the lower corner (sigma = 1)
# maximizes Y; with sigma = u it is the worst control, and
# H_u = sigma_u k = -1 makes the worst residual -1 x (1 - 0.5).
_QUADRATIC = _config("0 * u1", "1", "0 * y", "x1 * x1")
_SIGMA_U = _config("0 * u1", "1.5 - u1", "0 * y", "x1 * x1", lo=0.5)
_SIGMA_U_TWIN = _config("0 * u1", "u1", "0 * y", "x1 * x1", lo=0.5)
# example31 with the control reversed: dX = X ds + X dW under u = 0 and
# Y0 = e^-1 E[X_T] + int_0^1 e^-s E[X_s] ds = 2.  Per step the scheme
# grows E[X] by 1 + dt and, after two Picard passes, discounts by
# 1 - g with g = dt - dt^2 + dt^3, which cancel to third order; so the
# terminal share stays 1 and the driver's sums to about N g, and Y0's
# mean is 2 - dt + O(dt^2) (1.9804 at N = 50), a bias within dt.
_REVERSED = _config("x1 * (1 - u1)", "x1", "x1 - y", "x1")

PAIRS = (
    # X = 0 on every path, so Y = 0 exactly
    Pair("example31 from 0", "example31", 0.0, 0, 0.0, 0.0, True),
    Pair("reversed", _REVERSED, 1.0, 2, 2.0, 1.0, True),
    Pair("quadratic", _QUADRATIC, 0.5, 0, 1.25, 0.0, True),
    Pair("sigma(u)", _SIGMA_U, 0.5, 0, 1.25, 0.0, True),
    # the lower corner is not optimal; no closed form is known
    Pair("smooth1d", "smooth1d", 0.0, 0, None, 0.0, False),
    # under u = 0, X is a martingale the Euler scheme keeps one in mean,
    # so Y = 1 at every step; E[H_u(s)] = E[X p] = -e^-s, worst at s = 0
    Pair("example31 from 1", "example31", 1.0, 0, 1.0, 0.0, False, -1.0),
    Pair("sigma(u) twin", _SIGMA_U_TWIN, 0.5, 0, 0.5, 0.0, False, -0.5),
)

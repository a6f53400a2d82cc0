import pytest
from pairs import PAIRS

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F

M, N, SEED = 20000, 50, 7
# the worst residual is the least of N noisy per-step means, so it sits
# below a twin's exact value: 0.010-0.017 below -0.5 on the sigma(u)
# twin over seeds 1-10 at this M and N, exactly -1 on example31 from 1
_TWIN_TOL = 0.05


def _row_params():
    for row in PAIRS:
        marks = ()
        if row.name == "smooth1d":
            marks = pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="the maximum condition tests the path mean of H_u, which "
                "nearly cancels on smooth1d (open defect; direction 8 tests it "
                "path by path)",
            )
        yield pytest.param(row, id=row.name, marks=marks)


@pytest.mark.parametrize("row", _row_params())
def test_adjoint_verdicts_match_the_table(row):
    spec = row.spec()
    grid = F.TimeGrid(0.0, spec.horizon, N)
    batch = F.simulate_forward(spec, spec.control_lo, 0.0, [row.x0], grid, M, SEED)
    sol = B.solve_backward(spec, batch, 3, n_picard=row.n_picard)
    triple = A.solve_adjoint(spec, batch, sol)
    report = A.check_maximum_condition(spec, batch, sol, triple)
    if row.y0 is not None:
        cost = B.CostReport.of(sol, SEED)
        assert abs(-cost.j - row.y0) <= 4.0 * cost.stderr + row.y0_dt_bias * grid.dt
    assert report.passed == row.optimal
    if row.worst_residual is not None:
        assert abs(report.worst - row.worst_residual) <= _TWIN_TOL

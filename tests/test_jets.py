import dataclasses
import json

import numpy as np
import probes
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F
from fbsdelab import hjb as H
from fbsdelab import jets as J
from fbsdelab import oracles
from fbsdelab import problem as P


XS = np.linspace(-2, 2, 401)
# the two smallest steps of the default ladder at x_hat = 0
H1, H2 = 0.025, 0.0125


def _v_column(s):
    return oracles.example31_value(s, XS, 1.0)


def test_kink_jets_match_oracle():
    sub, sup = J.estimate_jets_1d(XS, _v_column(0.5), 0.0, H1, H2)
    assert sub.kind == "empty"
    assert sup.kind == "interval"
    assert sup.lo == pytest.approx(-1.5, abs=1e-9)
    assert sup.hi == pytest.approx(-1.0, abs=1e-9)


def test_smooth_point_jets_collapse():
    sub, sup = J.estimate_jets_1d(XS, _v_column(0.5), -1.0, 2 * H1, 2 * H2)
    assert sub.kind == "singleton"
    assert sup.kind == "singleton"
    assert sub.lo == pytest.approx(-1.0, abs=1e-9)


def test_absolute_value_kink():
    sub, sup = J.estimate_jets_1d(XS, np.abs(XS), 0.0, H1, H2)
    assert sup.kind == "empty"
    assert sub.kind == "interval"
    assert (sub.lo, sub.hi) == (pytest.approx(-1.0), pytest.approx(1.0))


@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_jet_duality_under_negation(left, right, x_hat):
    # the kink at x_hat sits on a node of the column
    xs = x_hat + np.linspace(-1, 1, 201)
    h1, h2 = H1 * (1.0 + abs(x_hat)), H2 * (1.0 + abs(x_hat))
    v = np.where(xs <= x_hat, left * (xs - x_hat), right * (xs - x_hat))
    est_sub, est_sup = J.estimate_jets_1d(xs, v, x_hat, h1, h2)
    neg_sub, neg_sup = J.estimate_jets_1d(xs, -v, x_hat, h1, h2)
    assert est_sub.kind == neg_sup.kind
    assert est_sup.kind == neg_sub.kind
    if est_sub.kind != "empty":
        assert neg_sup.lo == pytest.approx(-est_sub.hi, abs=1e-9)
        assert neg_sup.hi == pytest.approx(-est_sub.lo, abs=1e-9)
    if est_sup.kind != "empty":
        assert neg_sub.lo == pytest.approx(-est_sup.hi, abs=1e-9)
        assert neg_sub.hi == pytest.approx(-est_sup.lo, abs=1e-9)


def test_reported_member_satisfies_defining_inequality():
    x_hat = 0.0
    v = lambda x: oracles.example31_value(0.5, x, 1.0)
    _, sup = J.estimate_jets_1d(XS, _v_column(0.5), x_hat, H1, H2)
    for p in (sup.lo, sup.hi):
        for h in (H1, H2):
            tol = J.DEFAULT_TOL_JET * h
            assert v(x_hat + h) <= v(x_hat) + p * h + tol
            assert v(x_hat - h) <= v(x_hat) - p * h + tol


def test_grid_column_interpolation():
    _, sup = J.estimate_jets_1d(XS, _v_column(0.5), 0.0, 0.04, 0.02)
    assert sup.lo == pytest.approx(-1.5, abs=1e-9)


def test_connection_full_pipeline(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["triple"], vgrid400,
        [0.0, 0.25, 0.5, 0.75, 0.95],
    )
    assert rep.passed
    for record in rep.records:
        assert record.pq_inv_median == pytest.approx(-1.0, abs=2e-2)
        assert record.subjet.kind == "empty"
        lo, hi = probes.example31_jets(record.s, 1.0)[1]
        assert abs(record.superjet.lo - lo) <= 2e-2
        assert abs(record.superjet.hi - hi) <= 2e-2


def test_connection_sign_flip_fails_everywhere(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    bad = dataclasses.replace(pipe["triple"], p=-pipe["triple"].p)
    rep = J.verify_connection(
        spec31, pipe["batch"], bad, vgrid400,
        [0.0, 0.25, 0.5, 0.75, 0.95],
    )
    assert not rep.passed
    assert all(not record.passed for record in rep.records)
    assert all(not record.member for record in rep.records)


def test_connection_smooth_start_matches_gradient():
    # from x = -1 the state stays negative where the value function is
    # linear with slope -1, and p q^-1 must agree with that gradient
    # example31 with T = 0.25
    spec = P.spec_from_expressions(
        1, 1, 1, 0.25, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y", "x1"
    )
    grid = F.TimeGrid(0.0, 0.25, 50)
    batch = F.simulate_forward(spec, 0.0, 0.0, [-1.0], grid, 64, seed=12)
    assert np.abs(batch.states).max() < 4.0
    sol = B.solve_backward(spec, batch, 3)
    triple = A.solve_adjoint(spec, batch, sol)
    hgrid = H.cfl_time_grid(spec, 4.0, 200)
    vgrid = H.solve_hjb_fd(spec, 4.0, 200, hgrid)
    rep = J.verify_connection(
        spec, batch, triple, vgrid, [0.05, 0.125, 0.2]
    )
    assert rep.passed
    for record in rep.records:
        assert record.superjet.kind == "singleton"
        assert record.pq_inv_median == pytest.approx(-1.0, abs=2e-2)
        assert abs(record.superjet.lo - (-1.0)) <= 2e-2


def test_connection_q_floor(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    tiny_q = dataclasses.replace(pipe["triple"], q=np.full_like(pipe["triple"].q, 1e-12))
    with pytest.raises(J.QInvertibilityError):
        J.verify_connection(
            spec31, pipe["batch"], tiny_q, vgrid400, [0.5]
        )


def test_connection_state_outside_domain(spec31, zero_control, vgrid100):
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec31, 1.0, 0.0, [10.0], grid, 8, seed=1)
    sol = B.solve_backward(spec31, batch, 1)
    triple = A.solve_adjoint(spec31, batch, sol)
    with pytest.raises(J.JetError, match="outside"):
        J.verify_connection(spec31, batch, triple, vgrid100, [0.5])


def test_nondegenerate_subjet_interval_forces_failure(pipeline_optimal, vgrid400, spec31):
    # a report can never pair a nondegenerate sub-jet with a node pass:
    # feed the checker a value grid with a convex kink at the origin
    pipe = pipeline_optimal
    tg = vgrid400.grid
    xs = vgrid400.xs
    vals = np.tile(np.abs(xs) - 1.0, (tg.steps + 1, 1))
    convex = H.ValueGrid(vgrid400.space_half_width, vgrid400.n_cells, tg, vals)
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["triple"], convex, [0.5]
    )
    assert rep.records[0].subjet.kind == "interval"
    assert not rep.records[0].passed
    assert not rep.passed


def test_connection_report_exports(tmp_path, pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["triple"], vgrid400, [0.0, 0.5]
    )
    payload = rep.to_json()
    assert '"pass": true' in payload
    for rec, out in zip(rep.records, json.loads(payload)["records"]):
        assert out["member_distance"] == rec.member_distance <= rep.tol_conn
        assert out["subjet_ok"] is rec.subjet_ok is True
    rep.records[0].member_distance = np.inf  # an empty super-jet
    assert json.loads(rep.to_json())["records"][0]["member_distance"] is None
    json.loads(rep.to_json(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    csv = tmp_path / "conn.csv"
    J.connection_csv(rep, csv)
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 3

"""First-order sub/super-jets and the adjoint-ratio set inclusions.

The super-jet of v at x_hat is the set of slopes p with
v(x) <= v(x_hat) + <p, x - x_hat> + o(|x - x_hat|); the sub-jet flips
the inequality.  In one dimension both are intervals built from the
one-sided derivatives: super-jet [right, left] when right <= left,
sub-jet [left, right] when left <= right, and both collapse to the
gradient singleton where the function is differentiable.
`estimate_jets_1d` reads them off one column of the value grid, from
one-sided difference quotients at two steps extrapolated to step -> 0.

`verify_connection` checks, along a simulated optimal trajectory, that
the adjoint ratio p(s) q(s)^-1 is a super-jet member of the solved value
grid and that the sub-jet is empty or that same singleton -- the set
inclusion the rest of the pipeline exists to test.  Only finitely many
(time, path) pairs are checkable, so the report's pass flag is a
finite-sample surrogate for the almost-sure statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .adjoint import _distinct_paths
from .problem import ProblemError


class JetError(ProblemError):
    pass


class QInvertibilityError(JetError):
    """|q| fell below the invertibility floor somewhere on the batch."""


DEFAULT_STEP_LADDER = (0.1, 0.05, 0.025, 0.0125)
DEFAULT_TOL_JET = 5e-3
DEFAULT_TOL_CONN = 2e-2
_Q_FLOOR = 1e-10
# paths verify_connection checks at each time: the first ones of the batch
_PATH_SAMPLE = 64


@dataclass
class JetSet:
    """empty, singleton {value}, or interval [lo, hi]."""

    kind: str
    lo: float = None
    hi: float = None

    @classmethod
    def empty(cls):
        return cls("empty")

    @classmethod
    def singleton(cls, value):
        return cls("singleton", value, value)

    @classmethod
    def interval(cls, lo, hi):
        return cls("interval", lo, hi)

    def distance(self, value):
        """Signed distance of value to the set (0 inside, inf if empty)."""
        if self.kind == "empty":
            return np.inf
        return max(self.lo - value, value - self.hi, 0.0)


def _richardson(h1, d1, h2, d2):
    # linear-in-h extrapolation to h -> 0 from the two steps
    return (h1 * d2 - h2 * d1) / (h1 - h2)


def estimate_jets_1d(xs, values, x_hat, h1, h2):
    """(sub-jet, super-jet) of the grid column `values` over `xs` at x_hat.

    The column is interpolated linearly at x_hat, x_hat +- h1 and
    x_hat +- h2 (h1 > h2 > 0), and the one-sided difference quotients at
    the two steps are extrapolated to step -> 0.  Slopes equal within
    DEFAULT_TOL_JET collapse both jets to the same singleton.  Requires
    [x_hat - h1, x_hat + h1] inside [xs[0], xs[-1]]: np.interp clamps
    outside it, which `verify_connection`'s ladder rules out.
    """
    v_l1, v_l2, v0, v_r2, v_r1 = np.interp(
        [x_hat - h1, x_hat - h2, x_hat, x_hat + h2, x_hat + h1], xs, values
    ).tolist()
    right = _richardson(h1, (v_r1 - v0) / h1, h2, (v_r2 - v0) / h2)
    left = _richardson(h1, (v0 - v_l1) / h1, h2, (v0 - v_l2) / h2)

    if abs(left - right) <= DEFAULT_TOL_JET:
        gradient = JetSet.singleton(0.5 * (left + right))
        return gradient, gradient
    if right < left:
        return JetSet.empty(), JetSet.interval(right, left)
    return JetSet.interval(left, right), JetSet.empty()


@dataclass
class ConnectionTimeRecord:
    s: float
    pq_inv_median: float
    pq_inv_iqr: float
    superjet: JetSet
    subjet: JetSet
    member: bool
    member_distance: float
    subjet_ok: bool
    passed: bool


@dataclass
class ConnectionReport:
    """Per-time verdicts of the sub/super-jet inclusions.

    node_pass requires (a) the path-median adjoint ratio to be a
    super-jet member within tol_conn, and (b) the sub-jet to be empty or
    a singleton within tol_conn of that ratio; a nondegenerate sub-jet
    interval therefore always fails.  The overall flag is a finite-sample
    surrogate: only the listed times and sampled paths were checked.
    """

    records: list
    tol_conn: float
    tol_jet: float
    n_paths_checked: int
    passed: bool

    def to_json(self):
        recs = []
        for r in self.records:
            recs.append(
                {
                    "s": r.s,
                    "pq_inv_median": r.pq_inv_median,
                    "pq_inv_iqr": r.pq_inv_iqr,
                    "superjet": {"kind": r.superjet.kind, "lo": r.superjet.lo, "hi": r.superjet.hi},
                    "subjet": {"kind": r.subjet.kind, "lo": r.subjet.lo, "hi": r.subjet.hi},
                    "member": r.member,
                    # inf when a super-jet is empty; null keeps the file strict JSON
                    "member_distance": (
                        r.member_distance if np.isfinite(r.member_distance) else None
                    ),
                    "subjet_ok": r.subjet_ok,
                    "pass": r.passed,
                }
            )
        return json.dumps(
            {
                "records": recs,
                "tol_conn": self.tol_conn,
                "tol_jet": self.tol_jet,
                "paths": self.n_paths_checked,
                "pass": self.passed,
                "note": "finite-sample check at listed times and sampled paths",
            },
            sort_keys=True,
        )


def connection_csv(report, path):
    with open(path, "w") as fh:
        fh.write(
            "s,pq_inv_median,pq_inv_iqr,superjet_kind,superjet_lo,superjet_hi,"
            "subjet_kind,subjet_lo,subjet_hi,member,pass\n"
        )
        for r in report.records:
            fh.write(
                f"{r.s!r},{r.pq_inv_median!r},{r.pq_inv_iqr!r},"
                f"{r.superjet.kind},{r.superjet.lo!r},{r.superjet.hi!r},"
                f"{r.subjet.kind},{r.subjet.lo!r},{r.subjet.hi!r},"
                f"{r.member},{r.passed}\n"
            )


def verify_connection(spec, batch, triple, vgrid, check_times):
    """Check the adjoint-ratio jet inclusions along the batch.

    At each check time (snapped to the value grid's nearest time level)
    and each sampled path, the state is snapped to the nearest spatial
    node, jets of the grid slice are estimated there, and the path's
    p q^-1 is tested for super-jet membership; the sub-jet must be empty
    or collapse onto the ratio.  Ratios are summarized by the median
    across paths (robust to regression outliers in p).
    """
    if spec.n != 1:
        raise JetError("connection verification requires a one-dimensional state")
    # min |q| over the distinct paths, one time row at a time: no (N+1, M)
    # temporary
    q_rows = _distinct_paths(triple.q)[0].swapaxes(0, 1)
    if min(np.abs(row).min() for row in q_rows) < _Q_FLOOR:
        raise QInvertibilityError(
            f"|q| below {_Q_FLOOR:g}; the ratio p q^-1 is not computable"
        )
    m_avail = batch.n_paths
    sample = np.arange(min(_PATH_SAMPLE, m_avail))
    times = batch.grid.times
    xs = vgrid.xs
    half = vgrid.space_half_width
    x_t, p_t, q_t = (a.swapaxes(0, 1) for a in (batch.states, triple.p, triple.q))

    records = []
    all_pass = True
    for s in check_times:
        i = int(np.argmin(np.abs(times - s)))
        v_row = vgrid.values[int(np.argmin(np.abs(vgrid.grid.times - times[i])))]
        states = x_t[i, sample, 0]
        if np.any(np.abs(states) > half):
            raise JetError(
                f"state outside the value grid domain at time {times[i]}"
            )
        ratios = p_t[i, sample, 0] / q_t[i, sample]
        med = float(np.median(ratios))
        q25, q75 = np.percentile(ratios, [25, 75])

        nodes = np.unique(np.round((states + half) / vgrid.dx).astype(int))
        member = True
        worst_dist = 0.0
        sub_ok = True
        med_raw = (float(np.median(states)) + half) / vgrid.dx
        med_node = int(nodes[np.argmin(np.abs(nodes - med_raw))])
        for j in nodes:
            # steps that stay on the grid and inside the domain
            max_h = min(xs[j] + half, half - xs[j])
            ladder = [h * (1.0 + abs(xs[j])) for h in DEFAULT_STEP_LADDER]
            ladder = [h for h in ladder if h <= max_h and h >= vgrid.dx]
            if len(ladder) < 2:
                raise JetError(
                    f"value grid too coarse to probe jets at x = {xs[j]}: fewer "
                    f"than two ladder steps are at least dx = {vgrid.dx} and at "
                    f"most {max_h}, the distance to the grid's edge"
                )
            # Python floats: the CSV writer prints the jet ends by repr
            h1, h2 = (float(h) for h in ladder[-2:])
            subjet, superjet = estimate_jets_1d(xs, v_row, xs[j], h1, h2)
            if j == med_node:
                sub_at_median, sup_at_median = subjet, superjet
            dist = superjet.distance(med)
            worst_dist = max(worst_dist, dist)
            member = member and dist <= DEFAULT_TOL_CONN
            if subjet.kind == "interval":
                sub_ok = False
            elif subjet.kind == "singleton":
                sub_ok = sub_ok and abs(subjet.lo - med) <= DEFAULT_TOL_CONN
        node_pass = member and sub_ok
        all_pass = all_pass and node_pass
        records.append(
            ConnectionTimeRecord(
                s=float(times[i]),
                pq_inv_median=med,
                pq_inv_iqr=float(q75 - q25),
                superjet=sup_at_median,
                subjet=sub_at_median,
                member=member,
                member_distance=worst_dist,
                subjet_ok=sub_ok,
                passed=node_pass,
            )
        )
    return ConnectionReport(
        records=records,
        tol_conn=DEFAULT_TOL_CONN,
        tol_jet=DEFAULT_TOL_JET,
        n_paths_checked=int(sample.size),
        passed=all_pass,
    )

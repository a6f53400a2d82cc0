"""First-order sub/super-jets and the adjoint-ratio set inclusions.

The super-jet of v at x_hat is the set of slopes p with
v(x) <= v(x_hat) + <p, x - x_hat> + o(|x - x_hat|); the sub-jet flips
the inequality.  In one dimension both are intervals built from the
one-sided derivatives: super-jet [right, left] when right <= left,
sub-jet [left, right] when left <= right, and both collapse to the
gradient singleton where the function is differentiable.

`verify_connection` checks, along a simulated optimal trajectory, that
the adjoint ratio p(s) q(s)^-1 is a super-jet member of the solved value
grid and that the sub-jet is empty or that same singleton -- the set
inclusion the rest of the pipeline exists to test.  Only finitely many
(time, path) pairs are checkable, so the report's pass flag is a
finite-sample surrogate for the almost-sure statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class JetEstimate:
    x_hat: float
    left_slope: float
    right_slope: float
    subjet: JetSet
    superjet: JetSet
    tol: float


def _as_callable(v):
    """Accept a callable or a (xs, values) grid column (linear interp)."""
    if callable(v):
        return v
    xs, vals = v
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)

    def interp(x):
        if np.any(x < xs[0]) or np.any(x > xs[-1]):
            raise JetError(f"evaluation at {x} outside the grid domain")
        return np.interp(x, xs, vals)

    return interp


def _validate_steps(steps):
    steps = [float(h) for h in steps]
    if len(steps) < 2:
        raise JetError("need at least two probe steps for extrapolation")
    if any(h <= 0 for h in steps):
        raise JetError("probe steps must be positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise JetError("probe steps must be strictly decreasing")
    return steps


def _richardson(h1, d1, h2, d2):
    # linear-in-h extrapolation to h -> 0 from the two smallest steps
    return (h1 * d2 - h2 * d1) / (h1 - h2)


def estimate_jets_1d(v_slice, x_hat, steps=None, tol_jet=DEFAULT_TOL_JET):
    """One-sided slopes of a scalar function with jet classification.

    Difference quotients at each step are extrapolated to step -> 0 with
    the two smallest steps.  Slopes equal within tol_jet collapse both
    jets to the same singleton.
    """
    v = _as_callable(v_slice)
    if steps is None:
        steps = [h * (1.0 + abs(x_hat)) for h in DEFAULT_STEP_LADDER]
    steps = _validate_steps(steps)
    v0 = float(v(x_hat))
    rights = [(float(v(x_hat + h)) - v0) / h for h in steps]
    lefts = [(v0 - float(v(x_hat - h))) / h for h in steps]
    h1, h2 = steps[-2], steps[-1]
    right = _richardson(h1, rights[-2], h2, rights[-1])
    left = _richardson(h1, lefts[-2], h2, lefts[-1])

    if abs(left - right) <= tol_jet:
        mid = 0.5 * (left + right)
        sub = JetSet.singleton(mid)
        sup = JetSet.singleton(mid)
    elif right < left:
        sub = JetSet.empty()
        sup = JetSet.interval(right, left)
    else:
        sub = JetSet.interval(left, right)
        sup = JetSet.empty()
    return JetEstimate(
        x_hat=float(x_hat),
        left_slope=left,
        right_slope=right,
        subjet=sub,
        superjet=sup,
        tol=tol_jet,
    )


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


def verify_connection(spec, batch, backward, triple, vgrid, check_times):
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
    if np.min(np.abs(triple.q)) < _Q_FLOOR:
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
        ig, v_row = vgrid.slice_at(times[i])
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
                    f"value grid too small to probe jets at x = {xs[j]}"
                )
            est = estimate_jets_1d((xs, v_row), xs[j], ladder)
            if j == med_node:
                jet_at_median = est
            dist = est.superjet.distance(med)
            worst_dist = max(worst_dist, dist)
            member = member and dist <= DEFAULT_TOL_CONN
            if est.subjet.kind == "interval":
                sub_ok = False
            elif est.subjet.kind == "singleton":
                sub_ok = sub_ok and abs(est.subjet.lo - med) <= DEFAULT_TOL_CONN
        node_pass = member and sub_ok
        all_pass = all_pass and node_pass
        records.append(
            ConnectionTimeRecord(
                s=float(times[i]),
                pq_inv_median=med,
                pq_inv_iqr=float(q75 - q25),
                superjet=jet_at_median.superjet,
                subjet=jet_at_median.subjet,
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

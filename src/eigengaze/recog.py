"""Nearest-neighbor recognition across enrolled eigenspaces and rate evaluation.

A query is projected into every object's eigenspace; the in-space distance to
the nearest manifold point is combined with the off-subspace residual so a
query far from a subspace cannot win on in-space proximity alone.

One scorer serves both entry points. It reads the registry's tuple of spaces
once, each holding its manifold in view-angle order, and scores a block of
queries with one matrix product per space. `recognize` scores one query;
`evaluate` scores its queries in blocks of `_BLOCK`, with the same tie rules.
The two agree on scores only to rounding: a block product sums in another
order than a one-query product, so a score may differ in its last bits (by
up to about 1e-15 on unit vectors), and two spaces within rounding of each
other may rank differently in the two calls. Exact ties follow the tie rules
in both.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigenspace import Eigenspace, _check_vector
from .errors import DimsTooLarge, EmptyQuerySet, EmptyRegistry
from .imgio import AppearanceVector, ViewLabel

# queries per scoring block: bounds evaluate's (block, dim) temporaries
_BLOCK = 64


@dataclass(frozen=True)
class RecognitionResult:
    best_object: str
    best_view: ViewLabel
    in_space_distance: float
    residual: float
    combined_score: float
    ranked_candidates: tuple  # of (object_id, combined_score), best first


@dataclass(frozen=True)
class EvaluationReport:
    P: int
    m: int
    r: Fraction
    per_object: dict   # true_id -> (P_i, m_i, Fraction r_i)
    confusion: dict    # (true_id, predicted_id) -> count


def _spaces(reg, queries):
    """The registry's spaces, after checking every query against them."""
    spaces = reg.spaces
    if not spaces:
        raise EmptyRegistry("no enrolled objects")
    # the registry admits only spaces of one dim and norm mode, so one check covers all
    for v in queries:
        _check_vector(spaces[0].dim, spaces[0].config.norm_mode, v)
    return spaces


def _score(spaces, W: np.ndarray, in_space_only: bool):
    """Score each row of W (queries x dim) against every space.

    Returns (score, in_space, residual, nearest), each of shape
    (spaces, queries). `nearest` indexes a space's angle-ordered points, so a
    tie inside one space goes to the lowest view angle. Both distances are
    taken directly, not as differences of squared norms, so equal inputs
    give equal scores.
    """
    shape = (len(spaces), len(W))
    in_space, res = np.empty(shape), np.empty(shape)
    nearest = np.empty(shape, dtype=np.intp)
    for s, es in enumerate(spaces):
        Wc = W - es.mean
        G = Wc @ es.basis.T
        res[s] = np.linalg.norm(Wc - G @ es.basis, axis=1)
        dist = np.linalg.norm(G[:, None, :] - es.coords, axis=2)
        nearest[s] = dist.argmin(axis=1)
        in_space[s] = dist.min(axis=1)
    score = in_space if in_space_only else np.hypot(in_space, res)
    return score, in_space, res, nearest


def recognize(reg, v: AppearanceVector, in_space_only: bool = False) -> RecognitionResult:
    """Best matching object and view for one query appearance.

    Ties on score are broken by acquisition order, then by the nearest view's
    angle, so output is deterministic.
    """
    spaces = _spaces(reg, [v])
    score, in_space, res, nearest = (
        a[:, 0] for a in _score(spaces, v.values[None], in_space_only)
    )
    # a stable sort keeps equal scores in acquisition order
    ranked = np.argsort(score, kind="stable")
    best = ranked[0]
    return RecognitionResult(
        spaces[best].object_id,
        spaces[best].labels[nearest[best]],
        float(in_space[best]),
        float(res[best]),
        float(score[best]),
        tuple((spaces[i].object_id, float(score[i])) for i in ranked),
    )


def evaluate(reg, queries, in_space_only: bool = False) -> EvaluationReport:
    """Recognition rate r = m/P over labeled queries (object identity only)."""
    queries = list(queries)
    if not queries:
        raise EmptyQuerySet("no queries")
    spaces = _spaces(reg, [v for v, _ in queries])
    ids = [es.object_id for es in spaces]

    confusion = Counter()
    for start in range(0, len(queries), _BLOCK):
        block = queries[start : start + _BLOCK]
        score = _score(spaces, np.array([v.values for v, _ in block]), in_space_only)[0]
        # argmin takes the first minimum: the earliest acquisition on a tie
        for (_, true_id), best in zip(block, score.argmin(axis=0)):
            confusion[true_id, ids[best]] += 1

    # a Counter reads a missing (true, true) pair as 0 without adding it
    totals = Counter(true_id for true_id, _ in confusion.elements())
    per_object = {
        tid: (p_i, confusion[tid, tid], Fraction(confusion[tid, tid], p_i))
        for tid, p_i in totals.items()
    }
    m, P = sum(m_i for _, m_i, _ in per_object.values()), len(queries)
    return EvaluationReport(P, m, Fraction(m, P), per_object, confusion)


def dump_coordinates(es: Eigenspace, dims: int = 3):
    """Rows (angle_deg, occluded, c1..c_dims) for each manifold point in
    view-angle order, axes in eigenvalue-descending order."""
    if dims < 1 or dims > es.k:
        raise DimsTooLarge(f"dims must be in [1, {es.k}], got {dims}")
    return [
        (label.view_angle_deg, label.occluded, tuple(row))
        for label, row in zip(es.labels, es.coords[:, :dims].tolist())
    ]


def report_text(report: EvaluationReport) -> str:
    lines = [
        f"queries P = {report.P}",
        f"successes m = {report.m}",
        f"recognition rate r = {float(report.r):.6f} ({report.r.numerator}/{report.r.denominator})",
        "",
        "per object:",
    ]
    for tid in sorted(report.per_object):
        p_i, m_i, r_i = report.per_object[tid]
        lines.append(f"  {tid}: {m_i}/{p_i} = {float(r_i):.6f}")
    lines.append("")
    lines.append("confusion (true -> predicted: count):")
    for (true_id, predicted), count in sorted(report.confusion.items()):
        lines.append(f"  {true_id} -> {predicted}: {count}")
    return "\n".join(lines) + "\n"


def report_csv(report: EvaluationReport) -> str:
    lines = ["true_id,predicted_id,count"]
    for (true_id, predicted), count in sorted(report.confusion.items()):
        lines.append(f"{true_id},{predicted},{count}")
    lines.append("P,m,r")
    lines.append(f"{report.P},{report.m},{float(report.r):.6f}")
    return "\n".join(lines) + "\n"

"""Nearest-neighbor recognition across enrolled eigenspaces and rate evaluation.

A query is projected into every object's eigenspace; the in-space distance to
the nearest manifold point is combined with the off-subspace residual so a
query far from a subspace cannot win on in-space proximity alone.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eigenspace import Eigenspace, _check_vector
from .errors import DimsTooLarge, EmptyQuerySet, EmptyRegistry
from .imgio import AppearanceVector, ViewLabel


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


def recognize(reg, v: AppearanceVector, in_space_only: bool = False) -> RecognitionResult:
    """Best matching object and view for one query appearance.

    Ties on score are broken by acquisition order, then by the nearest view's
    angle, so output is deterministic.
    """
    spaces = list(reg.spaces)
    if not spaces:
        raise EmptyRegistry("no enrolled objects")
    # the registry admits only spaces of one dim and norm mode, so one check covers all
    _check_vector(spaces[0].dim, spaces[0].config.norm_mode, v)

    entries = []
    for order, es in enumerate(spaces):
        w = v.values - es.mean
        g = es.basis @ w
        dists = np.linalg.norm(es.coords - g, axis=1)
        # within one space ties go to the lowest view angle
        ties = np.flatnonzero(dists == dists.min())
        label = min((es.labels[i] for i in ties), key=lambda lb: lb.view_angle_deg)
        in_space = float(dists[ties[0]])
        res = float(np.linalg.norm(w - es.basis.T @ g))
        score = in_space if in_space_only else math.hypot(in_space, res)
        entries.append((score, order, label.view_angle_deg, es, in_space, res, label))

    entries.sort(key=lambda e: e[:3])
    score, _, _, es, in_space, res, label = entries[0]
    ranked = tuple((e[3].object_id, e[0]) for e in entries)
    return RecognitionResult(es.object_id, label, in_space, res, score, ranked)


def evaluate(reg, queries, in_space_only: bool = False) -> EvaluationReport:
    """Recognition rate r = m/P over labeled queries (object identity only)."""
    queries = list(queries)
    if not queries:
        raise EmptyQuerySet("no queries")

    confusion = {}
    totals = {}
    hits = {}
    m = 0
    for v, true_id in queries:
        predicted = recognize(reg, v, in_space_only=in_space_only).best_object
        confusion[(true_id, predicted)] = confusion.get((true_id, predicted), 0) + 1
        totals[true_id] = totals.get(true_id, 0) + 1
        if predicted == true_id:
            hits[true_id] = hits.get(true_id, 0) + 1
            m += 1

    P = len(queries)
    per_object = {
        tid: (totals[tid], hits.get(tid, 0), Fraction(hits.get(tid, 0), totals[tid]))
        for tid in totals
    }
    return EvaluationReport(P, m, Fraction(m, P), per_object, confusion)


def dump_coordinates(es: Eigenspace, dims: int = 3):
    """Rows (angle_deg, occluded, c1..c_dims) for each manifold point,
    axes in eigenvalue-descending order."""
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

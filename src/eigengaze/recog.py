"""Nearest-neighbor recognition across enrolled eigenspaces and rate evaluation.

A query is projected into every object's eigenspace; the in-space distance to
the nearest manifold point is combined with the off-subspace residual so a
query far from a subspace cannot win on in-space proximity alone.

One scorer serves both entry points. It reads the registry's snapshot once: a
tuple of spaces, each holding its manifold in view-angle order, with their
means and manifolds stacked into whole-registry arrays, built once per
mutation. Each space makes its own two products, the projection and the
reconstruction, one `np.dot` each, so twin spaces score bit for bit alike;
every other step runs once over all spaces. `recognize` scores one query;
`evaluate` scores blocks of queries, sized so that no (spaces x queries x dim)
temporary holds more than `_BUDGET` float64 elements. The two agree on scores
only to rounding: a block product sums in another order than a one-query
product, so a score may differ in its last bits (by up to about 2e-15 on unit
vectors), and two spaces within rounding of each other may rank differently
in the two calls. Exact ties follow the same tie rules in both.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .eigenspace import Eigenspace, _check_vector
from .errors import DimsTooLarge, EmptyQuerySet, EmptyRegistry
from .imgio import AppearanceVector, ViewLabel

# float64 elements in one (spaces x queries x dim) temporary: sets evaluate's block size
_BUDGET = 2**19


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


class Snapshot:
    """One immutable tuple of spaces and, each computed on first use, the
    widest `spread` of any space (None if none has two points), which the auto
    threshold scales, and the scorer's whole-registry arrays: the means stacked
    as (spaces, dim), and the manifold coordinates padded to (spaces, k_max,
    n_max), a column per point. A space's coordinates are padded with zeros
    beyond its k, as its projections are, and its padded points lie at infinity,
    so no padded point is ever nearest and no padding computes inf - inf."""

    def __init__(self, spaces: tuple = ()):
        self.spaces = spaces

    @cached_property
    def spread(self) -> float | None:
        return max((es.spread for es in self.spaces if es.spread is not None), default=None)

    @cached_property
    def means(self) -> np.ndarray:
        return np.array([es.mean for es in self.spaces])

    @cached_property
    def coords(self) -> np.ndarray:
        n_max = max(len(es.coords) for es in self.spaces)
        k_max = max(es.k for es in self.spaces)
        coords = np.zeros((len(self.spaces), k_max, n_max))
        for s, es in enumerate(self.spaces):
            coords[s, :, len(es.coords) :] = np.inf
            coords[s, : es.k, : len(es.coords)] = es.coords.T
        return coords

    def block_size(self) -> int:
        """Queries per evaluate block: neither the (spaces, queries, dim)
        temporaries nor the (spaces, k_max, queries, n_max) point differences
        hold more than _BUDGET elements, unless one query alone does."""
        spaces, k_max, n_max = self.coords.shape
        return max(1, _BUDGET // (spaces * max(self.spaces[0].dim, n_max * k_max)))


def _snapshot(reg, queries) -> Snapshot:
    """The registry's snapshot, after checking every query against its spaces."""
    snap = reg.snapshot
    if not snap.spaces:
        raise EmptyRegistry("no enrolled objects")
    # the registry admits only spaces of one dim and norm mode, so one check covers all
    first = snap.spaces[0]
    for v in queries:
        _check_vector(first.dim, first.config.norm_mode, v)
    return snap


def _score(snap: Snapshot, queries: list, step: int, in_space_only: bool):
    """Score the query vectors against every space, `step` queries a block.

    Yields (score, in_space, residual, nearest) per block, each of shape
    (spaces, block). `nearest` indexes a space's angle-ordered points, so a
    tie inside one space goes to the lowest view angle. Both distances are
    taken directly, not as differences of squared norms, so equal inputs
    give equal scores. Every block reuses one set of large temporaries.
    """
    spaces, (S, k_max, n_max) = snap.spaces, snap.coords.shape
    bases = [es.basis for es in spaces]
    Q = min(step, len(queries))
    Wc, R = np.empty((2, S, Q, spaces[0].dim))
    diff = np.empty((S, k_max, Q, n_max))
    for start in range(0, len(queries), step):
        block = np.array(queries[start : start + step])
        q = len(block)
        wc, r, d = Wc[:, :q], R[:, :q], diff[:, :, :q]
        G = np.zeros((S, k_max, q))  # C-contiguous for np.dot; rows past a space's k stay 0
        np.subtract(block, snap.means[:, None], out=wc)
        # each space's own products: its projection g and reconstruction g B
        for basis, wc_s, g_s, r_s in zip(bases, wc, G, r):
            g_s = g_s[: len(basis)]
            np.dot(basis, wc_s.T, out=g_s)
            np.dot(g_s.T, basis, out=r_s)
        np.subtract(wc, r, out=r)
        res = np.sqrt(np.einsum("sqd,sqd->sq", r, r))
        np.subtract(G[:, :, :, None], snap.coords[:, :, None], out=d)
        dist = np.sqrt(np.einsum("skqn,skqn->sqn", d, d))
        nearest, in_space = dist.argmin(axis=2), dist.min(axis=2)
        score = in_space if in_space_only else np.hypot(in_space, res)
        yield score, in_space, res, nearest


def recognize(reg, v: AppearanceVector, in_space_only: bool = False) -> RecognitionResult:
    """Best matching object and view for one query appearance.

    Ties on score are broken by acquisition order, then by the nearest view's
    angle, so output is deterministic.
    """
    snap = _snapshot(reg, [v])
    spaces = snap.spaces
    (block,) = _score(snap, [v.values], 1, in_space_only)
    score, in_space, res, nearest = (a[:, 0].tolist() for a in block)
    # a stable sort keeps equal scores in acquisition order
    ranked = sorted(range(len(spaces)), key=score.__getitem__)
    best = ranked[0]
    return RecognitionResult(
        spaces[best].object_id, spaces[best].labels[nearest[best]],
        in_space[best], res[best], score[best],
        tuple((spaces[i].object_id, score[i]) for i in ranked),
    )


def evaluate(reg, queries, in_space_only: bool = False) -> EvaluationReport:
    """Recognition rate r = m/P over labeled queries (object identity only)."""
    queries = list(queries)
    if not queries:
        raise EmptyQuerySet("no queries")
    snap = _snapshot(reg, [v for v, _ in queries])
    ids = [es.object_id for es in snap.spaces]
    blocks = _score(snap, [v.values for v, _ in queries], snap.block_size(), in_space_only)
    # argmin takes the first minimum: the earliest acquisition on a tie
    best = np.concatenate([score.argmin(axis=0) for score, *_ in blocks])
    confusion = Counter((true_id, ids[b]) for (_, true_id), b in zip(queries, best))

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

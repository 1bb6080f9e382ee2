"""Nearest-neighbor recognition across enrolled eigenspaces and rate evaluation.

A query is projected into every object's eigenspace; the in-space distance to
the nearest manifold point is combined with the off-subspace residual so a
query far from a subspace cannot win on in-space proximity alone.

One scorer serves both entry points. It reads the registry's snapshot once: a
tuple of spaces, each holding its manifold in view-angle order, with their
means and manifolds stacked into whole-registry arrays, all built by the
mutation. Each space makes one product of its own, the projection g of the
centred query wc, in one `np.dot`. The residual needs no reconstruction: a
basis has orthonormal rows, so |wc - g B|^2 = |wc|^2 - |g|^2. Only where that
difference is at most 1e-6 |wc|^2, so near the subspace that rounding would
leave a residual of about sqrt(eps) |wc|, is |wc - g B| formed, for that
(space, query) alone. Every other step runs once over all spaces, and each
(space, query) goes through the same arithmetic whatever space it is, so twin
spaces score bit for bit alike. `recognize` scores one query; `evaluate`
scores blocks of queries, sized by `Snapshot.block_size` so that no block of
centred queries or point differences holds more than `_BUDGET` float64
elements. The two agree on scores only to rounding: a block product sums in
another order than a one-query product, so a score may differ in its last bits
(by up to about 3.4e-15 on unit vectors), and two spaces within rounding of
each other may rank differently in the two calls. Exact ties follow the same
tie rules in both.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .eigenspace import _BUDGET, check_shape
from .errors import DuplicateObject, EmptyQuerySet, EmptyRegistry
from .imgio import AppearanceVector, ViewLabel

# |wc|^2 - |g|^2 at or below this share of |wc|^2 is mostly rounding, and its
# square root would be about sqrt(eps) |wc|, so such a residual is taken directly
_NEAR = 1e-6


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
    r: "Fraction"
    per_object: dict   # true_id -> (P_i, m_i, Fraction r_i)
    confusion: dict    # (true_id, predicted_id) -> count


class Snapshot:
    """One immutable tuple of spaces, admitted and derived here, once: each id
    once, each space of the first's dim. It holds the `index` of its spaces by
    id, which its admission builds and `ObjectRegistry.find` reads, the widest
    `spread` of any space (None if none has two points), which the auto
    threshold scales, and the scorer's arrays (None if no space): the means
    stacked as (spaces, dim), and the manifold coordinates padded to (spaces,
    k_max, n_max), a column per point, with zeros beyond a space's k, as its
    projections are, and its padded points at infinity, so no padded point is
    ever nearest and no padding computes inf - inf."""

    def __init__(self, spaces: tuple = ()):
        self.index = {}
        for es in spaces:
            if es.object_id in self.index:
                raise DuplicateObject(f"object {es.object_id!r} already enrolled")
            self.index[es.object_id] = es
            check_shape(spaces[0], es)
        self.spaces = spaces
        self.spread = max((es.spread for es in spaces if es.spread is not None), default=None)
        self.means = self.coords = None
        if spaces:
            self.means = np.array([es.mean for es in spaces])
            n_max = max(len(es.coords) for es in spaces)
            k_max = max(es.k for es in spaces)
            self.coords = np.zeros((len(spaces), k_max, n_max))
            for s, es in enumerate(spaces):
                self.coords[s, :, len(es.coords) :] = np.inf
                self.coords[s, : es.k, : len(es.coords)] = es.coords.T

    def block_size(self) -> int:
        """Queries per evaluate block: neither the (spaces, queries, dim)
        centred queries nor the (spaces, k_max, queries, n_max) point differences
        hold more than _BUDGET elements, unless one query alone does."""
        spaces, k_max, n_max = self.coords.shape
        return max(1, _BUDGET // (spaces * max(self.spaces[0].dim, n_max * k_max)))


def _snapshot(reg, queries) -> Snapshot:
    """The registry's snapshot, after checking every query against its spaces."""
    snap = reg.snapshot
    if not snap.spaces:
        raise EmptyRegistry("no enrolled objects")
    # a snapshot holds only spaces of one dim, so one check covers all
    for v in queries:
        check_shape(snap.spaces[0], v)
    return snap


def _score(snap: Snapshot, queries: list, step: int):
    """Score the query vectors against every space, `step` queries a block.

    Yields (score, in_space, residual, nearest) per block, each of shape
    (spaces, block). `nearest` indexes a space's angle-ordered points, so a
    tie inside one space goes to the lowest view angle. A basis has
    orthonormal rows, so the residual of wc = w - m is sqrt(|wc|^2 - |g|^2),
    from the projection g = B wc alone. Where that difference is at most
    `_NEAR` |wc|^2 it holds little but rounding, so the residual of that
    (space, query) is taken directly, as |wc - g B|. The in-space distance
    is always taken directly. No step depends on which space a (space,
    query) is, so twin spaces score alike, bit for bit. Every block reuses
    one set of large temporaries.
    """
    spaces, (S, k_max, n_max) = snap.spaces, snap.coords.shape
    bases = [es.basis for es in spaces]
    Q = min(step, len(queries))
    Wc = np.empty((S, Q, spaces[0].dim))
    diff = np.empty((S, k_max, Q, n_max))
    for start in range(0, len(queries), step):
        block = np.array(queries[start : start + step])
        q = len(block)
        wc, d = Wc[:, :q], diff[:, :, :q]
        G = np.zeros((S, k_max, q))  # C-contiguous for np.dot; rows past a space's k stay 0
        np.subtract(block, snap.means[:, None], out=wc)
        # each space's own product: its projection g
        for basis, wc_s, g_s in zip(bases, wc, G):
            np.dot(basis, wc_s.T, out=g_s[: len(basis)])
        w2 = np.einsum("sqd,sqd->sq", wc, wc)
        r2 = w2 - np.einsum("skq,skq->sq", G, G)
        res = np.sqrt(np.maximum(r2, 0))
        for s, j in zip(*np.nonzero(r2 <= _NEAR * w2)):
            g = G[s, : len(bases[s]), j]
            r = wc[s, j] - np.dot(g, bases[s])
            res[s, j] = np.sqrt(np.dot(r, r))
        np.subtract(G[:, :, :, None], snap.coords[:, :, None], out=d)
        dist = np.sqrt(np.einsum("skqn,skqn->sqn", d, d))
        nearest, in_space = dist.argmin(axis=2), dist.min(axis=2)
        yield np.hypot(in_space, res), in_space, res, nearest


def recognize(reg, v: AppearanceVector) -> RecognitionResult:
    """Best matching object and view for one query appearance.

    Ties on score are broken by acquisition order, then by the nearest view's
    angle, so output is deterministic.
    """
    snap = _snapshot(reg, [v])
    spaces = snap.spaces
    (block,) = _score(snap, [v.values], 1)
    score, in_space, res, nearest = (a[:, 0].tolist() for a in block)
    # a stable sort keeps equal scores in acquisition order
    ranked = sorted(range(len(spaces)), key=score.__getitem__)
    best = ranked[0]
    return RecognitionResult(
        spaces[best].object_id, spaces[best].labels[nearest[best]],
        in_space[best], res[best], score[best],
        tuple((spaces[i].object_id, score[i]) for i in ranked),
    )


def evaluate(reg, queries) -> EvaluationReport:
    """Recognition rate r = m/P over labeled queries (object identity only)."""
    from fractions import Fraction  # imported here, so learn and recognize skip it
    queries = list(queries)
    if not queries:
        raise EmptyQuerySet("no queries")
    snap = _snapshot(reg, [v for v, _ in queries])
    ids = [es.object_id for es in snap.spaces]
    blocks = _score(snap, [v.values for v, _ in queries], snap.block_size())
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

"""Independent numpy reference for the benchmark's output checks.

Nothing here calls the package under test: model files are parsed by this
module's own reader, query vectors are normalized from raw samples, and the
scoring rule is restated in numpy. The rule: per space, project w - mean onto
the basis, take the nearest manifold point (ties to the lower view angle),
score hypot(in_space, residual); rank spaces by (score, acquisition order);
call the query Known when the best score <= threshold. The auto threshold is
margin x the largest leave-one-out nearest-neighbour distance inside any
space's manifold.
"""

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8     # max |B B^T - I|
COORD_TOL = 1e-9     # manifold coords vs basis @ (v - mean)
SCORE_TOL = 1e-9     # in-process scores vs reference
PRINT_TOL = 5e-7 + 1e-9  # values the CLI prints with 6 decimals


@dataclass
class Model:
    object_id: str
    mean: np.ndarray         # (d,)
    eigenvalues: np.ndarray  # (k,)
    basis: np.ndarray        # (k, d)
    coords: np.ndarray       # (n, k)
    angles: np.ndarray       # (n,) int
    occluded: np.ndarray     # (n,) bool
    tau: float = 1.0

    @classmethod
    def from_eigenspace(cls, es):
        """Copy the arrays out of an in-process model."""
        pts = es.manifold
        return cls(
            es.object_id,
            np.array(es.mean, dtype=float),
            np.array(es.eigenvalues, dtype=float),
            np.array(es.basis, dtype=float),
            np.array([p.coords for p in pts], dtype=float).reshape(len(pts), -1),
            np.array([p.label.view_angle_deg for p in pts], dtype=int),
            np.array([p.label.occluded for p in pts], dtype=bool),
            float(es.config.energy_threshold),
        )


def parse_model(data: bytes) -> Model:
    """Read an `EIGENGAZE 1` model file; raise ValueError on any deviation."""
    lines = data.decode("utf-8").split("\n")
    if lines[0] != "EIGENGAZE 1" or lines[-2:] != ["END", ""]:
        raise ValueError("not a complete EIGENGAZE 1 model")
    body = lines[1:-2]

    def field(i, key):
        head, _, rest = body[i].partition(" ")
        if head != key:
            raise ValueError(f"line {i + 2}: expected {key!r}")
        return rest

    object_id = field(0, "object")
    d = int(field(1, "dim"))
    k = int(field(2, "k"))
    cfg = field(3, "config").split(" ")
    tau = float(cfg[2])
    mean = np.array(field(4, "mean").split(" "), dtype=float)
    eig = np.array([field(5 + i, "eigenvalue").split(" ") for i in range(k)], dtype=float)
    basis = np.array([field(5 + k + i, "basis").split(" ") for i in range(k)], dtype=float)
    if eig.shape != (k, 2) or basis.shape != (k, d + 1) or mean.shape != (d,):
        raise ValueError("wrong field counts")
    if not (np.array_equal(eig[:, 0], np.arange(k)) and np.array_equal(basis[:, 0], np.arange(k))):
        raise ValueError("row indices out of order")
    rows = [field(i, "point").split(" ") for i in range(5 + 2 * k, len(body))]
    pts = np.array(rows, dtype=float).reshape(len(rows), 2 + k)
    return Model(
        object_id, mean, eig[:, 1], basis[:, 1:], pts[:, 2:],
        pts[:, 0].astype(int), pts[:, 1] == 1.0, tau,
    )


def parse_manifest(text: str):
    """(margin, threshold or None for auto, [object ids]) of `registry.manifest`."""
    lines = text.split("\n")
    if lines[0] != "EIGENGAZE-REGISTRY 1" or lines[-2:] != ["END", ""]:
        raise ValueError("not a complete registry manifest")
    _, thr, margin = lines[1].split(" ")
    ids = [ln[len("object "):] for ln in lines[2:-2]]
    if not all(ln.startswith("object ") for ln in lines[2:-2]):
        raise ValueError("bad manifest object line")
    return float(margin), None if thr == "auto" else float(thr), ids


def unit_vector(image) -> np.ndarray:
    """Samples scaled to [0, 1] and normalized to unit length."""
    x = image.samples.astype(float) / image.max_value
    return x / np.linalg.norm(x)


def model_problems(m: Model, training=None):
    """Invariant violations of one model, as a list of messages.

    `training` maps view angle -> raw unit vector of the object's training
    views; when given, the mean, the manifold coordinates and the eigenvalues
    are recomputed from it.
    """
    out = []
    k, n = m.eigenvalues.size, m.angles.size
    arrays = (m.mean, m.eigenvalues, m.basis, m.coords)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return [f"{m.object_id}: non-finite values"]
    if k < 1 or n < 1 or m.basis.shape != (k, m.mean.size) or m.coords.shape != (n, k):
        return [f"{m.object_id}: bad shapes k={k} n={n}"]
    ortho = np.abs(m.basis @ m.basis.T - np.eye(k)).max()
    if ortho > ORTHO_TOL:
        out.append(f"{m.object_id}: basis not orthonormal ({ortho:.2e})")
    if np.any(m.eigenvalues <= 0) or np.any(np.diff(m.eigenvalues) > 0):
        out.append(f"{m.object_id}: eigenvalues not descending and positive")
    if training is None:
        return out
    if sorted(training) != sorted(m.angles.tolist()):
        return out + [f"{m.object_id}: manifold angles differ from the training views"]
    X = np.array([training[a] for a in m.angles.tolist()])
    mean = X.mean(axis=0)
    if np.abs(mean - m.mean).max() > COORD_TOL:
        out.append(f"{m.object_id}: mean differs from the training mean")
    coords = (X - m.mean) @ m.basis.T
    err = np.abs(coords - m.coords).max()
    if err > COORD_TOL:
        out.append(f"{m.object_id}: manifold coords off by {err:.2e}")
    gram = np.linalg.eigvalsh((X - mean) @ (X - mean).T)[::-1]
    lam = gram[:k]
    if np.abs(lam - m.eigenvalues).max() > 1e-9 * max(1.0, lam[0]):
        out.append(f"{m.object_id}: eigenvalues differ from the Gram spectrum")
    total = gram[gram > 0].sum()
    if m.eigenvalues.sum() < (m.tau - 1e-9) * total:
        out.append(f"{m.object_id}: k={k} captures less than tau of the energy")
    return out


def nn_spread(coords: np.ndarray) -> float:
    """Largest leave-one-out nearest-neighbour distance among manifold points."""
    if len(coords) < 2:
        return -math.inf
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(axis=1).max())


@dataclass(frozen=True)
class Decision:
    best: str
    angle: int
    score: float
    in_space: float
    residual: float
    threshold: float
    known: bool
    scores: dict   # object_id -> (score, nearest angle, in_space, residual)


class Reference:
    """Scores queries against models held in acquisition order."""

    def __init__(self, margin: float = 1.5, threshold: float | None = None):
        self.margin = margin
        self.fixed_threshold = threshold
        self.models = []
        self._spread = -math.inf

    def add(self, m: Model):
        order = np.argsort(m.angles, kind="stable")  # argmin then picks the lowest angle
        m = Model(m.object_id, m.mean, m.eigenvalues, m.basis, m.coords[order],
                  m.angles[order], m.occluded[order], m.tau)
        self.models.append(m)
        self._spread = max(self._spread, nn_spread(m.coords))

    @property
    def threshold(self) -> float:
        if self.fixed_threshold is not None:
            return self.fixed_threshold
        if self._spread == -math.inf:
            raise ValueError("auto threshold needs a space with 2+ manifold points")
        return self.margin * self._spread

    def decide_many(self, W: np.ndarray):
        """Decision for each row of W (queries x d)."""
        W = np.atleast_2d(W)
        per_space = []
        for m in self.models:
            C = W - m.mean
            G = C @ m.basis.T
            diff = G[:, None, :] - m.coords[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            idx = dist.argmin(axis=1)
            in_space = dist[np.arange(len(W)), idx]
            res = np.linalg.norm(C - G @ m.basis, axis=1)
            per_space.append((np.hypot(in_space, res), m.angles[idx], in_space, res))
        thr = self.threshold
        out = []
        for q in range(len(W)):
            scores = {
                m.object_id: (float(s[0][q]), int(s[1][q]), float(s[2][q]), float(s[3][q]))
                for m, s in zip(self.models, per_space)
            }
            best = min(scores, key=lambda oid: scores[oid][0])  # ties: acquisition order
            score, angle, in_space, res = scores[best]
            out.append(Decision(best, angle, score, in_space, res, thr, score <= thr, scores))
        return out


def decision_problems(ref: Decision, best, angle, score, in_space, residual,
                      threshold, known, ranked, tol):
    """Differences between a program decision and the reference decision.

    A reported best object or view that ties the reference's within `tol` is
    accepted, so only a genuinely different answer fails.
    """
    out = []
    if best not in ref.scores:
        return [f"unknown object {best!r}"]
    r_score, r_angle, r_in, r_res = ref.scores[best]
    if r_score > ref.score + tol:
        out.append(f"best {best} (ref score {r_score:.9f}) but ref best {ref.best} ({ref.score:.9f})")
    if angle != r_angle and abs(r_in - in_space) > tol:
        out.append(f"view angle {angle} != ref {r_angle}")
    for what, got, want in (("score", score, r_score), ("in_space", in_space, r_in),
                            ("residual", residual, r_res), ("threshold", threshold, ref.threshold)):
        if abs(got - want) > tol:
            out.append(f"{what} {got:.9f} != ref {want:.9f}")
    if known != (r_score <= ref.threshold) and abs(r_score - ref.threshold) > tol:
        out.append(f"known={known} but ref score {r_score:.9f} vs threshold {ref.threshold:.9f}")
    if ranked is not None:
        if sorted(o for o, _ in ranked) != sorted(ref.scores):
            out.append("ranked candidates differ from the enrolled objects")
        else:
            for oid, s in ranked:
                if abs(s - ref.scores[oid][0]) > tol:
                    out.append(f"candidate {oid} score {s:.9f} != ref {ref.scores[oid][0]:.9f}")
            got = [ref.scores[o][0] for o, _ in ranked]
            if any(b < a - tol for a, b in zip(got, got[1:])):
                out.append("candidates not ranked by score")
    return out

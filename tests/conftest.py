import numpy as np
import pytest

import eigengaze as eg
from eigengaze.eigenspace import _check_vector
from eigengaze.errors import DimensionMismatch
from eigengaze.registry import EnrollmentPolicy, ObjectRegistry

SIDE = 32
SEED = 1
OBJECTS = ["key-holder", "mobile", "pencil-box", "stapler"]
TRAIN_ANGLES = list(range(0, 100, 10))
QUERY_ANGLES = list(range(5, 100, 10))

# 16x10 = 160 px of a 32x32 image: 15.6% area
TRAIN_OCCLUSION = eg.OcclusionSpec(2, 2, 16, 10, 0)
QUERY_OCCLUSION = eg.OcclusionSpec(14, 18, 16, 10, 0)
OCCLUDED_TRAIN_ANGLE = 40
OCCLUDED_QUERY_ANGLES = (25, 65)


def random_image(rng, max_side=9, max_value=None):
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    if max_value is None:
        max_value = int(rng.choice([1, 15, 255, 4095, 65535]))
    samples = rng.integers(0, max_value + 1, size=w * h)
    return eg.RasterImage(w, h, max_value, samples)


def training_appearances(obj, norm_mode="unit", side=SIDE, seed=SEED):
    """10 views at 10-degree steps, one of them rectangle-occluded."""
    apps = []
    for angle in TRAIN_ANGLES:
        img = eg.synth_view(obj, angle, side, seed)
        occluded = angle == OCCLUDED_TRAIN_ANGLE
        if occluded:
            img = eg.apply_occlusion(img, TRAIN_OCCLUSION)
        apps.append(eg.vectorize(img, norm_mode, eg.ViewLabel(obj, angle, occluded)))
    return apps


def query_set(objects=OBJECTS, norm_mode="unit", side=SIDE, seed=SEED):
    """Held-out views at offset angles, two per object freshly occluded."""
    queries = []
    for obj in objects:
        for angle in QUERY_ANGLES:
            img = eg.synth_view(obj, angle, side, seed)
            occluded = angle in OCCLUDED_QUERY_ANGLES
            if occluded:
                img = eg.apply_occlusion(img, QUERY_OCCLUSION)
            label = eg.ViewLabel(obj, angle, occluded)
            queries.append((eg.vectorize(img, norm_mode, label), obj))
    return queries


def build_registry(config=None, policy=None, objects=OBJECTS):
    config = config if config is not None else eg.EigenspaceConfig()
    reg = ObjectRegistry(policy if policy is not None else EnrollmentPolicy())
    for obj in objects:
        reg.accumulate(obj, training_appearances(obj, config.norm_mode), config)
    return reg


def assert_same_space(got, want):
    """Equal id, config and labels, and bit-identical arrays."""
    assert (got.object_id, got.config, got.labels) == (want.object_id, want.config, want.labels)
    for name in ("mean", "eigenvalues", "basis", "coords"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="session")
def four_object_registry():
    return build_registry()


# --- per-vector projection oracle, independent of recog's whole-registry scorer ---

def project(es, v):
    _check_vector(es.dim, es.config.norm_mode, v)
    return es.basis @ (v.values - es.mean)


def reconstruct(es, coords):
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (es.k,):
        raise DimensionMismatch(f"coords length {coords.size} != k {es.k}")
    return es.mean + es.basis.T @ coords


def residual(es, v):
    """Norm of the query component orthogonal to the eigenspace."""
    _check_vector(es.dim, es.config.norm_mode, v)
    w = v.values - es.mean
    return float(np.linalg.norm(w - es.basis.T @ (es.basis @ w)))


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


# --- independent eigenvalue oracle: bisection on matrix inertia ---

def _count_below(Q, t):
    """Number of eigenvalues of Q strictly below t, via LDL^T pivot signs."""
    n = Q.shape[0]
    A = np.array(Q, dtype=np.float64) - t * np.eye(n)
    count = 0
    for i in range(n):
        pivot = A[i, i]
        if pivot == 0.0:
            pivot = 1e-300
        if pivot < 0:
            count += 1
        for j in range(i + 1, n):
            factor = A[j, i] / pivot
            A[j, i:] -= factor * A[i, i:]
    return count


def bisect_eigenvalues(Q, tol=1e-10):
    """All eigenvalues of a symmetric matrix by inertia bisection (descending)."""
    n = Q.shape[0]
    radius = float(np.abs(Q).sum(axis=1).max()) + 1.0  # Gershgorin bound
    values = []
    for i in range(n):  # i-th smallest
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _count_below(Q, mid) > i:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return np.array(values[::-1])


# --- 3x3 characteristic-polynomial bisection oracle ---

def charpoly_roots_3x3(Q, tol=1e-12):
    """Roots of det(Q - t I) for symmetric 3x3, by sign-change bisection."""
    a, b, c = Q[0]
    _, d, e = Q[1]
    f = Q[2, 2]
    trace = a + d + f
    minors = (a * d - b * b) + (a * f - c * c) + (d * f - e * e)
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)

    def p(t):
        return -t ** 3 + trace * t ** 2 - minors * t + det

    radius = float(np.abs(Q).sum(axis=1).max()) + 1.0
    # critical points of the cubic split the real line into monotone pieces
    disc = trace ** 2 - 3.0 * minors
    if disc > 0:
        c1 = (trace - np.sqrt(disc)) / 3.0
        c2 = (trace + np.sqrt(disc)) / 3.0
        cuts = [-radius, c1, c2, radius]
    else:
        cuts = [-radius, radius]

    roots = []
    for lo, hi in zip(cuts, cuts[1:]):
        if p(lo) == 0.0:
            roots.append(lo)
            continue
        if p(lo) * p(hi) > 0:
            continue
        a_, b_ = lo, hi
        while b_ - a_ > tol:
            mid = 0.5 * (a_ + b_)
            if p(a_) * p(mid) <= 0:
                b_ = mid
            else:
                a_ = mid
        roots.append(0.5 * (a_ + b_))
    return np.sort(np.array(roots))[::-1]

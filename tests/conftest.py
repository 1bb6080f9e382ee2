import numpy as np
import pytest

import eigengaze as eg
from eigengaze.eigenspace import _layout, _render, _text_rows, check_rendered, check_shape
from eigengaze.errors import DimensionMismatch, NoConvergence
from eigengaze.linalg import (
    OFF_DIAG_TOL,
    EigenDecomposition,
    canonical_signs,
    check_symmetric,
    off_diagonal_norm,
)
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


def assert_matches_golden(goldens, what, digest_of_a_render):
    """A render's digest equals goldens[numpy version]. Another numpy brings
    another BLAS, whose round-off may move the last bits, so on a version with
    no golden a second render must give the same digest, and the test skips
    with a reason that names the version."""
    digest = digest_of_a_render()
    golden = goldens.get(np.__version__)
    if golden is None:
        assert digest_of_a_render() == digest
        pytest.skip(f"no {what} golden for numpy {np.__version__}; two renders are byte-identical")
    assert digest == golden


def random_image(rng, max_side=9, max_value=None):
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    if max_value is None:
        max_value = int(rng.choice([1, 15, 255, 4095, 65535]))
    samples = rng.integers(0, max_value + 1, size=w * h)
    return eg.RasterImage(w, h, max_value, samples)


def dimmed(image):
    """The image's samples tripled in a 10-bit image: 3 * 255 / 1023, so 0.748
    times as bright, which unit normalization cancels."""
    return eg.RasterImage(image.width, image.height, 1023, 3 * image.samples.astype(np.int64))


def training_appearances(obj, side=SIDE, seed=SEED, dim=False):
    """10 views at 10-degree steps, one of them rectangle-occluded; dimmed if dim."""
    apps = []
    for angle in TRAIN_ANGLES:
        img = eg.synth_view(obj, angle, side, seed)
        occluded = angle == OCCLUDED_TRAIN_ANGLE
        if occluded:
            img = eg.apply_occlusion(img, TRAIN_OCCLUSION)
        img = dimmed(img) if dim else img
        apps.append(eg.vectorize(img, label=eg.ViewLabel(obj, angle, occluded)))
    return apps


def query_set(objects=OBJECTS, side=SIDE, seed=SEED, dim=False):
    """Held-out views at offset angles, two per object freshly occluded; dimmed if dim."""
    queries = []
    for obj in objects:
        for angle in QUERY_ANGLES:
            img = eg.synth_view(obj, angle, side, seed)
            occluded = angle in OCCLUDED_QUERY_ANGLES
            if occluded:
                img = eg.apply_occlusion(img, QUERY_OCCLUSION)
            img = dimmed(img) if dim else img
            label = eg.ViewLabel(obj, angle, occluded)
            queries.append((eg.vectorize(img, label=label), obj))
    return queries


def build_registry(config=None, policy=None, objects=OBJECTS, dim=False):
    config = config if config is not None else eg.EigenspaceConfig()
    reg = ObjectRegistry(policy if policy is not None else EnrollmentPolicy())
    for obj in objects:
        reg.accumulate(obj, training_appearances(obj, dim=dim), config)
    return reg


def energy_shares(views):
    """For k = 1 up to the rank, the share of the energy that the leading k
    eigenvalues of the views' PCA hold: the threshold at which choose_k cuts at
    k, where no cluster of equal eigenvalues spans the cut."""
    cumulative = np.cumsum(eg.gram_pca(np.column_stack([v.values for v in views])).eigenvalues)
    return (cumulative / cumulative[-1]).tolist()


def assert_cut_by_its_tau(es, views):
    """es keeps the k that choose_k picks, at the energy threshold its config
    records, from the PCA of the views it was built from."""
    lam = eg.gram_pca(np.column_stack([v.values for v in views])).eigenvalues
    assert es.k == eg.choose_k(lam, es.config.energy_threshold)


def held_files(directory):
    """Each file's name, inode and bytes."""
    return {p.name: (p.stat().st_ino, p.read_bytes()) for p in directory.iterdir()}


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
    check_shape(es, v)
    return es.basis @ (v.values - es.mean)


def reconstruct(es, coords):
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (es.k,):
        raise DimensionMismatch(f"coords length {coords.size} != k {es.k}")
    return es.mean + es.basis.T @ coords


def residual(es, v):
    """Norm of the query component orthogonal to the eigenspace."""
    check_shape(es, v)
    w = v.values - es.mean
    return float(np.linalg.norm(w - es.basis.T @ (es.basis @ w)))


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


# --- eigensolver oracle, independent of LAPACK: cyclic Jacobi ---

MAX_SWEEPS = 100


def jacobi_eigen(Q) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Rotations continue, for at most MAX_SWEEPS sweeps, until the off-diagonal
    Frobenius norm is at most OFF_DIAG_TOL * ||Q||_F (the smallest normal double
    if that is 0). Results are in descending eigenvalue order, signs canonical.
    """
    Q = check_symmetric(Q)
    n = Q.shape[0]
    off_diag_tol = OFF_DIAG_TOL * float(np.linalg.norm(Q)) or np.finfo(np.float64).tiny

    A = Q.copy()
    V = np.eye(n)
    off = off_diagonal_norm(A)
    sweeps = 0
    while off > off_diag_tol:
        if sweeps >= MAX_SWEEPS:
            raise NoConvergence(
                f"Jacobi failed to converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {off:.3e})",
                off_norm=off,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * V[:, p] - s * V[:, q]
                rot_q = s * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = rot_p, rot_q
        sweeps += 1
        off = off_diagonal_norm(A)

    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = canonical_signs(V[:, order].T)
    return EigenDecomposition(values, vectors)


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


# --- model line check oracle: each float row split off and its line rendered again ---

def rebuilt_rows_check(lines, es, from_text):
    """Oracle for check_model_lines, checking float rows beside a sidecar the
    long way: each row's value text is split off after its keyword and label
    fields, and _render builds the row's whole line again from that text.
    Without a sidecar, every value is rendered at `.17g`, as there."""
    if from_text:
        rows = _text_rows(es)
    else:
        layout = _layout(es.dim, es.k, len(es.labels))
        rows = (lines[i].split(" ", lead + 1)[-1] for i, (lead, _) in enumerate(layout, 5))
    check_rendered(lines, _render(es, rows), "model file")

"""Dense symmetric eigendecomposition (cyclic Jacobi) and Gram-trick PCA.

The appearance covariance of a d-pixel image set is d x d, far too large to
form when d = width*height. For m training vectors we instead eigendecompose
the m x m Gram matrix and lift its eigenvectors back to pixel space; the two
routes share nonzero eigenvalues exactly.

`gram_pca` diagonalises the Gram matrix with LAPACK (`np.linalg.eigh`) and
hands the rotated matrix to the Jacobi solver `sym_eigen`, whose stopping
rule then serves as the acceptance test: a rotation that is already
diagonal to tolerance costs no sweep, and one that is not is finished by
Jacobi. `sym_eigen` on its own remains the reference the fast path is
tested against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, NoConvergence

# eigenvalues at or below max(ABS_CLAMP, REL_CLAMP * lambda_max) are treated
# as numerically zero rank
ABS_CLAMP = 1e-10
REL_CLAMP = 1e-12

SYMMETRY_TOL = 1e-12

# choose_k never cuts between eigenvalues closer than this relative gap
CLUSTER_GAP = 1e-9


# both results hold arrays, so they compare and hash by identity
@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    values: np.ndarray   # descending, shape (n,)
    vectors: np.ndarray  # orthonormal rows, vectors[i] pairs with values[i]


@dataclass(frozen=True, eq=False)
class PcaResult:
    mean: np.ndarray         # length d (zeros when uncentered)
    eigenvalues: np.ndarray  # descending, strictly positive after clamping
    basis: np.ndarray        # shape (k, d), orthonormal rows


def check_symmetric(Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(Q)):
        raise ValueError("matrix entries must be finite")
    diff = np.abs(Q - Q.T)
    bound = SYMMETRY_TOL * np.maximum(1.0, np.abs(Q))
    if np.any(diff > bound):
        raise ValueError("matrix is not symmetric within tolerance")
    return Q


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude component (first on ties) is positive."""
    flip = vectors[np.arange(len(vectors)), np.abs(vectors).argmax(axis=1)] < 0
    return np.negative(vectors, out=vectors.copy(), where=flip[:, None])  # negation is exact


def off_diagonal_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def sym_eigen(Q, off_diag_tol: float | None = None, max_sweeps: int = 100) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Rotations continue until the off-diagonal Frobenius norm falls to
    off_diag_tol (default 1e-12 * ||Q||_F). Results are sorted by descending
    eigenvalue with the canonical sign convention applied.
    """
    Q = check_symmetric(Q)
    n = Q.shape[0]
    if off_diag_tol is None:
        off_diag_tol = 1e-12 * float(np.linalg.norm(Q))
    if off_diag_tol <= 0.0:
        off_diag_tol = np.finfo(np.float64).tiny
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    A = Q.copy()
    V = np.eye(n)
    off = off_diagonal_norm(A)
    sweeps = 0
    while off > off_diag_tol:
        if sweeps >= max_sweeps:
            raise NoConvergence(
                f"Jacobi failed to converge in {max_sweeps} sweeps "
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


def gram_pca(X, centered: bool = True) -> PcaResult:
    """PCA of the columns of the d x m matrix X via the m x m Gram matrix.

    Eigenvalues are those of X~ X~^T (X~ = X minus the column mean when
    centered); eigenvectors of the Gram matrix are lifted to pixel space and
    renormalized. Rank-deficient directions are dropped; a fully degenerate
    input yields an empty basis rather than an error.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a d x m matrix with d, m >= 1")
    d, m = X.shape
    mean = X.mean(axis=1) if centered else np.zeros(d)
    Xt = X - mean[:, None]

    G = Xt.T @ Xt
    _, V0 = np.linalg.eigh(G)
    R = V0.T @ G @ V0
    # Jacobi accepts R if its off-diagonal norm is within 1e-12 ||R||_F and
    # otherwise rotates on; symmetrising first meets check_symmetric exactly
    decomp = sym_eigen(0.5 * (R + R.T))
    vectors = decomp.vectors @ V0.T  # rows are eigenvectors of G

    lam_max = max(float(decomp.values[0]), 0.0)
    cutoff = max(ABS_CLAMP, REL_CLAMP * lam_max)
    keep = decomp.values > cutoff
    eigenvalues = decomp.values[keep]
    if eigenvalues.size == 0:
        return PcaResult(mean, np.empty(0), np.empty((0, d)))

    lifted = (Xt @ vectors[keep].T) / np.sqrt(eigenvalues)
    # renormalize: the lift is exact in theory, unit only up to round-off
    lifted /= np.linalg.norm(lifted, axis=0)
    basis = canonical_signs(lifted.T)
    return PcaResult(mean, eigenvalues, basis)


def choose_k(eigenvalues, energy_threshold: float) -> int:
    """Smallest k whose leading eigenvalues capture the requested energy share,
    extended to the end of any cluster the cut would split.

    Inside an exactly degenerate cluster the eigenvectors are any basis of the
    cluster's span, so a cut there would store a solver-dependent subspace. A
    cluster is a run of eigenvalues whose successive relative gaps
    (lam[k-1] - lam[k]) / lam[k-1] are below CLUSTER_GAP.
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy_threshold must be in (0, 1]")
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0 or lam[0] <= 0.0:
        raise AllZero("no positive eigenvalue")
    cumulative = np.cumsum(lam)
    cumulative = cumulative / cumulative[-1]  # last ratio is exactly 1.0
    k = int(np.searchsorted(cumulative, energy_threshold)) + 1
    while k < lam.size and lam[k - 1] - lam[k] < CLUSTER_GAP * lam[k - 1]:
        k += 1
    return k

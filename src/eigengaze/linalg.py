"""Dense symmetric eigendecomposition and Gram-trick PCA.

The appearance covariance of a d-pixel image set is d x d, far too large to
form when d = width*height. For m training vectors we instead eigendecompose
the m x m Gram matrix and lift its eigenvectors back to pixel space; the two
routes share nonzero eigenvalues exactly.

`sym_eigen` is the one eigensolver: it takes LAPACK's rotation
(`np.linalg.eigh`) and accepts it only if it diagonalises the matrix to
OFF_DIAG_TOL. The tests keep a cyclic Jacobi solver as the reference it is
checked against.
"""

import math
import numbers
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

# sym_eigen's acceptance bound on the off-diagonal norm, relative to ||R||_F
OFF_DIAG_TOL = 1e-12


# both results hold arrays, so they compare and hash by identity
@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    values: np.ndarray   # descending, shape (n,)
    vectors: np.ndarray  # orthonormal rows, vectors[i] pairs with values[i]


@dataclass(frozen=True, eq=False)
class PcaResult:
    mean: np.ndarray         # length d, the column mean
    eigenvalues: np.ndarray  # descending, strictly positive after clamping
    basis: np.ndarray        # shape (k, d), orthonormal rows


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_energy_threshold(tau):
    """The one energy-threshold rule: a real number in (0, 1], not a bool."""
    if not (is_real(tau) and 0.0 < tau <= 1.0):
        raise ValueError(f"energy_threshold must be in (0, 1], not {tau!r}")


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


def sym_eigen(Q) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK, checked.

    The rotation V that `np.linalg.eigh` returns is accepted only if it
    diagonalises Q: the off-diagonal Frobenius norm of R = V^T Q V
    (symmetrised) must be at most OFF_DIAG_TOL * ||R||_F, or the smallest
    normal double if that is 0; otherwise NoConvergence is raised. A Q whose
    R or norms overflow float64 raises ValueError. The values are R's
    diagonal in descending order, the vectors V's columns, signs canonical.
    """
    Q = check_symmetric(Q)
    _, V = np.linalg.eigh(Q)
    # entries near the float64 limit can overflow R or its norms: inf or nan
    # in R makes both norms non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        R = V.T @ Q @ V
        R = 0.5 * (R + R.T)
        off = off_diagonal_norm(R)
        norm = float(np.linalg.norm(R))
    if not (math.isfinite(off) and math.isfinite(norm)):
        raise ValueError("matrix is too large to decompose: its rotation overflows")
    if off > (OFF_DIAG_TOL * norm or np.finfo(np.float64).tiny):
        raise NoConvergence(
            f"eigh's rotation leaves an off-diagonal norm of {off:.3e}", off_norm=off
        )
    values = np.diag(R)
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values[order], canonical_signs(V.T[order]))


def gram_pca(X, energy_threshold: float = 1.0) -> PcaResult:
    """PCA of the columns of the d x m matrix X via the m x m Gram matrix.

    Eigenvalues are those of X~ X~^T, X~ being X minus its column mean; those
    at or below the clamp are dropped, and a rank-0 input yields an empty basis.
    Of the rest, it keeps the k that choose_k picks for energy_threshold: at
    1.0, the whole rank unless the float64 running sum cannot resolve an
    eigenvalue above the clamp, which takes over 1e-12 * 2**53 (about 9,007)
    views. Only the kept Gram eigenvectors are lifted to pixel space and
    renormalized; they equal the leading rows of the full result bit for bit.
    energy_threshold is checked first, by EigenspaceConfig's rule.
    """
    check_energy_threshold(energy_threshold)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("X must be a d x m matrix with d, m >= 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("X entries must be finite")
    d, m = X.shape
    # an overflow leaves inf or nan in the Gram matrix, which sym_eigen rejects
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=1)
        Xt = X - mean[:, None]
        G = Xt.T @ Xt
    decomp = sym_eigen(G)

    lam_max = max(float(decomp.values[0]), 0.0)
    cutoff = max(ABS_CLAMP, REL_CLAMP * lam_max)
    eigenvalues = decomp.values[decomp.values > cutoff]  # a prefix: values descend
    rank = eigenvalues.size
    if rank == 0:
        return PcaResult(mean, np.empty(0), np.empty((0, d)))
    k = choose_k(eigenvalues, energy_threshold)

    # lift two columns at least: numpy rounds a one-column product differently
    lift = slice(max(k, min(2, rank)))
    lifted = (Xt @ decomp.vectors[lift].T) / np.sqrt(eigenvalues[lift])
    # renormalize: the lift is exact in theory, unit only up to round-off
    lifted /= np.linalg.norm(lifted, axis=0)
    return PcaResult(mean, eigenvalues[:k], canonical_signs(lifted.T[:k]))


def choose_k(eigenvalues, energy_threshold: float) -> int:
    """Smallest k whose leading eigenvalues capture the requested energy share,
    extended to the end of any cluster the cut would split.

    Inside an exactly degenerate cluster the eigenvectors are any basis of the
    cluster's span, so a cut there would store a solver-dependent subspace. A
    cluster is a run of eigenvalues whose successive relative gaps
    (lam[k-1] - lam[k]) / lam[k-1] are below CLUSTER_GAP. energy_threshold
    follows EigenspaceConfig's rule.
    """
    check_energy_threshold(energy_threshold)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0 or lam[0] <= 0.0:
        raise AllZero("no positive eigenvalue")
    cumulative = np.cumsum(lam)
    cumulative = cumulative / cumulative[-1]  # last ratio is exactly 1.0
    k = int(np.searchsorted(cumulative, energy_threshold)) + 1
    while k < lam.size and lam[k - 1] - lam[k] < CLUSTER_GAP * lam[k - 1]:
        k += 1
    return k

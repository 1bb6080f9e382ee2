import numpy as np
import pytest

import eigengaze as eg
from eigengaze import linalg
from eigengaze.errors import AllZero, NoConvergence
from eigengaze.linalg import canonical_signs, off_diagonal_norm

import conftest
from conftest import bisect_eigenvalues, charpoly_roots_3x3, jacobi_eigen, random_symmetric


def direct_covariance_pca(X):
    """Oracle: eigendecompose the full d x d covariance, drop null directions."""
    X = np.asarray(X, dtype=np.float64)
    Xt = X - X.mean(axis=1)[:, None]
    C = Xt @ Xt.T
    decomp = jacobi_eigen(0.5 * (C + C.T))
    cutoff = max(1e-10, 1e-12 * max(float(decomp.values[0]), 0.0))
    keep = decomp.values > cutoff
    return decomp.values[keep], decomp.vectors[keep]


def cold_start_pca(X):
    """Oracle for gram_pca: Jacobi from scratch on the Gram matrix, then the
    same clamp and lift."""
    Xt = X - X.mean(axis=1)[:, None]
    G = Xt.T @ Xt
    decomp = jacobi_eigen(0.5 * (G + G.T))
    keep = decomp.values > max(1e-10, 1e-12 * max(float(decomp.values[0]), 0.0))
    lam = decomp.values[keep]
    lifted = (Xt @ decomp.vectors[keep].T) / np.sqrt(lam)
    lifted /= np.linalg.norm(lifted, axis=0)
    return lam, canonical_signs(lifted.T)


def synthetic_views(obj, side=32, seed=1):
    """d x 36 matrix of unit-norm views at 0..350 degrees."""
    return np.column_stack([
        eg.vectorize(eg.synth_view(obj, a, side, seed)).values for a in range(0, 360, 10)
    ])


def spy_sym_eigen(monkeypatch):
    """Record every matrix gram_pca hands to sym_eigen."""
    seen = []
    real = linalg.sym_eigen

    def spy(Q, *args, **kwargs):
        seen.append(np.array(Q))
        return real(Q, *args, **kwargs)

    monkeypatch.setattr(linalg, "sym_eigen", spy)
    return seen


def assert_matches_cold_start(got, X):
    lam, basis = cold_start_pca(X)
    assert got.eigenvalues.shape == lam.shape
    if lam.size == 0:
        return
    # eigenvalues far below lam[0] are only carried to ~eps * lam[0] by G itself
    assert got.eigenvalues == pytest.approx(lam, rel=1e-12, abs=1e-12 * lam[0])
    for k in range(1, lam.size + 1):
        if k < lam.size and lam[k - 1] - lam[k] <= 1e-6 * lam[k - 1]:
            continue  # the leading-k subspace is ill-defined at this cut
        want = basis[:k].T @ basis[:k]
        assert np.max(np.abs(got.basis[:k].T @ got.basis[:k] - want)) <= 1e-9


class TestSymEigen:
    """The program's eigensolver; TestJacobiEigen runs the same checks on the
    Jacobi oracle the other tests trust."""

    solve = staticmethod(eg.sym_eigen)

    def test_identity(self):
        decomp = self.solve(np.eye(3))
        assert decomp.values == pytest.approx([1, 1, 1])
        assert np.allclose(decomp.vectors @ decomp.vectors.T, np.eye(3), atol=1e-12)
        for row in decomp.vectors:
            assert row[np.argmax(np.abs(row))] > 0

    def test_two_by_two_closed_form(self):
        decomp = self.solve(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert decomp.values == pytest.approx([3.0, 1.0], abs=1e-12)
        assert decomp.vectors[0] == pytest.approx([s, s], abs=1e-12)
        assert decomp.vectors[1] == pytest.approx([s, -s], abs=1e-12)

    def test_random_invariants_and_bisection_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            Q = random_symmetric(rng, n)
            decomp = self.solve(Q)
            assert np.all(np.diff(decomp.values) <= 1e-12)
            gram = decomp.vectors @ decomp.vectors.T
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
            for lam, v in zip(decomp.values, decomp.vectors):
                assert np.linalg.norm(Q @ v - lam * v) <= 1e-8 * (1 + abs(lam))
            assert decomp.values == pytest.approx(bisect_eigenvalues(Q), abs=1e-7)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Q = random_symmetric(rng, int(rng.integers(2, 10)))
            decomp = self.solve(Q)
            trace = float(np.trace(Q))
            assert abs(float(decomp.values.sum()) - trace) <= 1e-8 * (1 + abs(trace))

    def test_three_by_three_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            Q = random_symmetric(rng, 3)
            roots = charpoly_roots_3x3(Q)
            assert len(roots) == 3
            assert self.solve(Q).values == pytest.approx(roots, abs=1e-7)

    def test_no_convergence_reports_norm(self, monkeypatch):
        Q = random_symmetric(np.random.default_rng(0), 8)
        # a rotation that leaves Q as it is
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (np.diag(A).copy(), np.eye(len(A))))
        with pytest.raises(NoConvergence, match="off-diagonal norm") as info:
            self.solve(Q)
        assert info.value.off_norm == off_diagonal_norm(Q) > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            self.solve(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestJacobiEigen(TestSymEigen):
    solve = staticmethod(jacobi_eigen)

    def test_no_convergence_reports_norm(self, monkeypatch):
        Q = random_symmetric(np.random.default_rng(0), 8)
        monkeypatch.setattr(conftest, "MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence, match="in 1 sweeps") as info:
            self.solve(Q)
        assert info.value.off_norm is not None and info.value.off_norm > 0


def test_lapack_and_jacobi_agree():
    """Values within 1e-12 ||Q||_F, and the same canonical vectors wherever
    the eigenvalue gaps on both sides exceed 1e-6."""
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        Q = random_symmetric(rng, n)
        got, want = eg.sym_eigen(Q), jacobi_eigen(Q)
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.linalg.norm(Q)
        gaps = np.diff(want.values, prepend=np.inf, append=-np.inf)
        isolated = (-gaps[:-1] > 1e-6) & (-gaps[1:] > 1e-6)
        assert np.max(np.abs(got.vectors[isolated] - want.vectors[isolated]), initial=0.0) <= 1e-9


class TestGramPca:
    def test_identical_columns_centered_empty(self):
        X = np.tile(np.array([1.0, 2.0, 3.0])[:, None], (1, 4))
        result = eg.gram_pca(X)
        assert result.eigenvalues.size == 0
        assert result.basis.shape == (0, 3)

    def test_matches_direct_covariance(self):
        rng = np.random.default_rng(200)
        for _ in range(30):
            d = int(rng.integers(2, 13))
            m = int(rng.integers(1, 7))
            X = rng.standard_normal((d, m))
            got = eg.gram_pca(X)
            want_vals, want_vecs = direct_covariance_pca(X)
            if got.eigenvalues.size == 0:
                assert want_vals.size == 0
                continue
            assert got.eigenvalues == pytest.approx(want_vals, rel=1e-9)
            assert got.basis == pytest.approx(want_vecs, abs=1e-7)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 6))
        result = eg.gram_pca(X)
        gram = result.basis @ result.basis.T
        assert np.max(np.abs(gram - np.eye(result.basis.shape[0]))) <= 1e-8

    def test_reconstruction_at_full_rank(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((10, 5))
        result = eg.gram_pca(X)
        Xt = X - result.mean[:, None]
        E = result.basis.T
        assert np.linalg.norm(Xt - E @ (E.T @ Xt)) <= 1e-8

    def test_scaling_scales_eigenvalues_quadratically(self):
        rng = np.random.default_rng(14)
        X = np.abs(rng.standard_normal((8, 4)))
        base = eg.gram_pca(X)
        scaled = eg.gram_pca(3.0 * X)
        assert scaled.eigenvalues == pytest.approx(9.0 * base.eigenvalues, rel=1e-8)
        assert scaled.basis == pytest.approx(base.basis, abs=1e-8)

    @pytest.mark.parametrize("obj, tau", [("mobile", 0.95), ("mobile", 1.0), ("A", 0.1)],
                             ids=["centered-0.95-tau-rule", "centered-1.0-tau-rule", "A-k-1"])
    def test_the_k_rule_keeps_the_leading_rows_of_the_full_pca(self, obj, tau):
        """By default gram_pca keeps the full rank. At energy threshold tau it
        keeps build_eigenspace's k and returns the leading eigenvalues and basis
        rows of the full PCA, bit for bit. A's lambda_1 is unpaired, so 0.1 cuts
        at k = 1, where two columns are lifted and one kept."""
        views = [eg.vectorize(eg.synth_view(obj, a, 32, 1), label=eg.ViewLabel(obj, a))
                 for a in range(0, 360, 10)]
        X = np.column_stack([v.values for v in views])
        full = eg.gram_pca(X)
        assert full.eigenvalues.size == np.linalg.matrix_rank(X - full.mean[:, None]) == 35
        got = eg.gram_pca(X, energy_threshold=tau)
        want_k = eg.choose_k(full.eigenvalues, tau)
        config = eg.EigenspaceConfig(energy_threshold=tau)
        assert got.basis.shape[0] == want_k == eg.build_eigenspace(obj, views, config).k
        assert (want_k == 1) == (obj == "A")
        for part, whole in [(got.mean, full.mean), (got.eigenvalues, full.eigenvalues[:want_k]),
                            (got.basis, full.basis[:want_k])]:
            assert part.shape == whole.shape and part.tobytes() == whole.tobytes()


class TestGramPcaOracle:
    def test_random_inputs_match_cold_start_jacobi(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            X = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(1, 20))))
            assert_matches_cold_start(eg.gram_pca(X), X)

    @pytest.mark.parametrize("obj", ["A", "B", "mobile", "stapler"])
    def test_synthetic_objects_match_cold_start_jacobi(self, obj):
        X = synthetic_views(obj)
        assert_matches_cold_start(eg.gram_pca(X), X)

    @pytest.mark.parametrize("obj", ["A", "mobile"])
    def test_gram_matrix_is_decomposed_by_lapack_once(self, obj, monkeypatch):
        seen = spy_sym_eigen(monkeypatch)
        eg.gram_pca(synthetic_views(obj))
        assert len(seen) == 1 and seen[0].shape == (36, 36)
        # eigh's rotation of it meets sym_eigen's acceptance bound
        _, V = np.linalg.eigh(seen[0])
        R = V.T @ seen[0] @ V
        assert off_diagonal_norm(R) <= 1e-12 * np.linalg.norm(R)

    @pytest.mark.parametrize("rotation", ["identity", "perturbed"])
    def test_a_poor_rotation_raises_no_convergence(self, rotation, monkeypatch):
        real_eigh = np.linalg.eigh

        def poor_eigh(G):
            if rotation == "identity":
                return np.diag(G).copy(), np.eye(len(G))
            noise = random_symmetric(np.random.default_rng(4), len(G))
            return real_eigh(G + 1e-6 * np.linalg.norm(G) * noise)

        monkeypatch.setattr(np.linalg, "eigh", poor_eigh)
        with pytest.raises(NoConvergence) as info:
            eg.gram_pca(synthetic_views("mobile"))
        assert info.value.off_norm > 0


class TestChooseK:
    def test_single_mode(self):
        assert eg.choose_k([5.0, 0.0, 0.0], 0.9) == 1

    def test_full_energy_full_rank(self):
        assert eg.choose_k([4.0, 3.0, 2.0, 1.0], 1.0) == 4

    def test_partial_energy(self):
        assert eg.choose_k([4.0, 3.0, 2.0, 1.0], 0.7) == 2

    def test_all_zero(self):
        with pytest.raises(AllZero):
            eg.choose_k([0.0, 0.0], 0.5)

    def test_cut_extends_to_end_of_degenerate_cluster(self):
        # the energy rule alone cuts at k = 2, between the two equal eigenvalues
        assert eg.choose_k([3.0, 2.0, 2.0, 1.0], 0.6) == 3
        assert eg.choose_k([3.0, 2.0, 2.0 * (1 - 1e-15), 2.0 * (1 - 2e-15), 1.0], 0.6) == 4

    def test_separated_eigenvalues_are_cut(self):
        assert eg.choose_k([3.0, 2.0, 2.0 * (1 - 1e-8), 1.0], 0.6) == 2

    @pytest.mark.parametrize("obj", ["A", "B"])
    def test_synthetic_object_cut_leaves_clusters_whole(self, obj):
        lam = eg.gram_pca(synthetic_views(obj)).eigenvalues
        energy_k = int(np.searchsorted(np.cumsum(lam) / lam.sum(), 0.95)) + 1
        assert lam[energy_k - 1] - lam[energy_k] < 1e-9 * lam[energy_k - 1]
        k = eg.choose_k(lam, 0.95)
        assert k > energy_k
        assert lam[k - 1] - lam[k] >= 1e-9 * lam[k - 1]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            lam = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 9))))[::-1]
            if lam[0] <= 0:
                continue
            ks = [eg.choose_k(lam, t) for t in np.linspace(0.05, 1.0, 20)]
            assert ks == sorted(ks)


def test_canonical_signs_tie_uses_first_component():
    flipped = canonical_signs(np.array([[-0.5, 0.5], [0.5, -0.5]]))
    assert np.allclose(flipped, [[0.5, -0.5], [0.5, -0.5]])


def canonical_signs_loop(vectors):
    """Reference: canonical_signs as a loop over rows, flipping by -1.0."""
    out = vectors.copy()
    for row in out:
        idx = int(np.argmax(np.abs(row)))
        if row[idx] < 0:
            row *= -1.0
    return out


def test_canonical_signs_matches_the_row_loop():
    """The same bits as the row loop, signed zeros included, on random
    matrices, rows whose largest magnitude is tied, zero rows and -0.0."""
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal((n, d)) for n, d in [(1, 1), (3, 7), (15, 1024), (40, 40)]]
    cases += [
        rng.integers(-2, 3, size=(50, 6)).astype(np.float64),  # ties and zero rows
        np.array([[-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5], [0.0, -0.0], [-0.0, -0.0]]),
        np.array([[-0.0, -1e-300, 0.0], [0.0, 0.0, 0.0], [-3.0, 3.0, -0.0]]),
        np.zeros((0, 4)),
    ]
    for vectors in cases:
        got, want = canonical_signs(vectors), canonical_signs_loop(vectors)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.flags.c_contiguous and got is not vectors

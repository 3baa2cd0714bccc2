import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab.eigen import is_psd_dense, jacobi_decompose
from overlap_lab.errors import NoConvergence, NotSymmetric
from overlap_lab.grid import OverlapGrid
from level_matrices import from_offdiag


def cubic_roots_symmetric(A):
    """Characteristic-polynomial roots of a symmetric 3x3 (trigonometric form).

    Independent oracle: no iteration, no shared code with the solver.
    """
    p1 = A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2
    q = np.trace(A) / 3
    p2 = sum((A[i, i] - q) ** 2 for i in range(3)) + 2 * p1
    p = np.sqrt(p2 / 6)
    B = (A - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(B) / 2, -1.0, 1.0)
    phi = np.arccos(r) / 3
    e1 = q + 2 * p * np.cos(phi)
    e3 = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    return np.sort([e1, 3 * q - e1 - e3, e3])


ADV = np.array([[1.0, 0.7, 0.7], [0.7, 1.0, 0.3], [0.7, 0.3, 1.0]])


def eigenvalues(A, **kwargs):
    """The ascending eigenvalues of jacobi_decompose."""
    return jacobi_decompose(A, **kwargs)[0]


class TestSymmetricEigenvalues:
    def test_identity(self):
        assert eigenvalues(np.eye(2)).tolist() == [1.0, 1.0]

    def test_rank_one(self):
        assert np.allclose(eigenvalues(np.ones((2, 2))), (0.0, 2.0), atol=1e-12)

    def test_adversarial_gram_positive(self):
        vals = eigenvalues(ADV)
        assert min(vals) > 0
        # determinant by leading minors: 1, 0.51, 0.224
        assert np.isclose(np.prod(vals), 0.224, atol=1e-10)
        oracle = cubic_roots_symmetric(ADV)
        assert np.allclose(vals, oracle, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_three_by_three_char_poly_oracle(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, 3))
        A = (A + A.T) / 2
        vals = eigenvalues(A, tol=1e-12)
        assert np.allclose(vals, cubic_roots_symmetric(A), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_against_numpy(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        vals = eigenvalues(A, tol=1e-12)
        assert np.allclose(vals, np.linalg.eigvalsh(A), atol=1e-9)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(11)
        for n in (3, 10, 40):
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            vals = eigenvalues(A)
            scale = np.max(np.abs(A))
            assert abs(sum(vals) - np.trace(A)) <= 1e-9 * n * scale

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(21)
        tol = 1e-10
        for n in (4, 12, 33):
            X = rng.normal(size=(n, n))
            A = X @ X.T / n
            vals, vecs, _, _ = jacobi_decompose(A, tol=tol)
            scale = np.max(np.abs(A))
            for i in range(n):
                v = vecs[:, i]
                assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-10)
                assert np.linalg.norm(A @ v - vals[i] * v) <= 10 * tol * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32))
    def test_random_matrices_match_numpy(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        vals = eigenvalues(A, tol=1e-12)
        assert np.allclose(vals, np.linalg.eigvalsh(A), atol=1e-8)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            jacobi_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            jacobi_decompose(np.zeros((600, 600)))

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            jacobi_decompose(ADV, tol=1e-14, max_sweeps=0)

    def test_reports_iterations_and_residual(self):
        _, _, sweeps, off = jacobi_decompose(ADV, tol=1e-10)
        assert sweeps >= 1
        assert off <= 1e-10 * np.max(np.abs(ADV))


class TestIsPsd:
    def test_constant_matrix_is_psd(self):
        g = OverlapGrid((0.7,), 0.7)
        ok, lo = is_psd_dense(g.values_by_index()[from_offdiag(4, [1] * 6)])
        assert ok and lo >= -1e-12

    def test_gram_realizations_are_psd(self):
        from overlap_lab.measures import adversarial_measure
        from overlap_lab.sampler import MCConfig, filtered_level_batches

        measure = adversarial_measure()
        for _, lv in filtered_level_batches(measure, 5, MCConfig(4, 1), 0,
                                            key=0x5CA):
            ok, _ = is_psd_dense(measure.grid.values_by_index()[lv[0]])
            assert ok

    def test_search_finds_non_gram_pattern(self):
        # brute-force search over level patterns on a grid with a negative
        # level until one with a genuinely negative eigenvalue appears
        g = OverlapGrid((-0.5, 0.3), 1.0)
        found = None
        for n in (3, 4):
            n_off = n * (n - 1) // 2
            for code in range(2**n_off):
                bits = [(code >> i) & 1 for i in range(n_off)]
                m = g.values_by_index()[from_offdiag(n, [b + 1 for b in bits])]
                if eigenvalues(m)[0] < -1e-6:
                    found = m
                    break
            if found is not None:
                break
        assert found is not None
        ok, lo = is_psd_dense(found)
        assert not ok and lo < -1e-6

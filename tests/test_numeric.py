"""Dense kernel contract tests: truncated SVD and least squares (QR and Cholesky)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from hsfuse import _blas, forward, fusion
from hsfuse.numeric import (
    CHOLESKY_RCOND_MIN,
    RankDeficiencyError,
    cholesky_solve,
    lstsq,
    truncated_svd,
)


class TestTruncatedSvd:
    def test_identity_singular_values(self):
        res = truncated_svd(np.eye(3), 3)
        np.testing.assert_allclose(res.s, 1.0)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(6)
        w = rng.standard_normal(10)
        res = truncated_svd(np.outer(f, w), 1)
        assert abs(res.s[0] - np.linalg.norm(f) * np.linalg.norm(w)) < 1e-12 * res.s[0]
        unit = w / np.linalg.norm(w)
        assert abs(abs(res.v[:, 0] @ unit) - 1.0) < 1e-12

    def test_projector_matches_eigendecomposition(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((3, 50))
        res = truncated_svd(mat, 2)
        proj = res.v @ res.v.T
        # oracle: eigenvectors of the 50x50 Gram matrix
        evals, evecs = np.linalg.eigh(mat.T @ mat)
        top = evecs[:, np.argsort(evals)[::-1][:2]]
        proj_oracle = top @ top.T
        assert np.abs(proj - proj_oracle).max() < 1e-9

    def test_descending_order_and_orthonormal_factors(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((20, 12))
        k = 12
        res = truncated_svd(mat, k)
        assert (np.diff(res.s) <= 0).all()
        assert np.abs(res.u.T @ res.u - np.eye(k)).max() < 1e-10
        assert np.abs(res.v.T @ res.v - np.eye(k)).max() < 1e-10

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((9, 14))
        res = truncated_svd(mat, 9)
        rec = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(mat - rec) <= 1e-10 * np.linalg.norm(mat)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must be"):
            truncated_svd(np.ones((3, 5)), k)

    def test_non_finite_rejected(self):
        mat = np.ones((3, 3))
        mat[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            truncated_svd(mat, 1)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got shape"):
            truncated_svd(np.ones(shape), 1)


class TestLstsq:
    def test_identity_system(self):
        y = np.array([3.0, -1.0, 2.0])
        res = lstsq(np.eye(3), y)
        assert np.array_equal(res.x, y)
        assert res.residual < 1e-14

    def test_duplicated_consistent_rows(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((8, 3))
        e_true = rng.standard_normal(3)
        y = phi @ e_true
        res = lstsq(np.vstack([phi, phi]), np.concatenate([y, y]))
        assert np.linalg.norm(res.x - e_true) < 1e-12 * np.linalg.norm(e_true)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((50, 6))
        e_true = rng.standard_normal(6)
        # perturb the data only inside the orthogonal complement of range(phi)
        q = np.linalg.qr(phi)[0]
        noise = rng.standard_normal(50)
        noise -= q @ (q.T @ noise)
        y = phi @ e_true + noise
        res = lstsq(phi, y)
        oracle = np.linalg.pinv(phi) @ y
        assert np.linalg.norm(res.x - oracle) < 1e-10 * np.linalg.norm(oracle)
        assert np.linalg.norm(res.x - e_true) < 1e-10 * np.linalg.norm(e_true)
        assert abs(res.residual - np.linalg.norm(noise)) < 1e-10 * np.linalg.norm(noise)

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(6)
        phi = rng.standard_normal((40, 7))
        y = rng.standard_normal(40)
        res = lstsq(phi, y)
        normal_residual = np.linalg.norm(phi.T @ (y - phi @ res.x))
        assert normal_residual <= 1e-8 * np.linalg.norm(phi.T @ y)

    def test_square_orthogonal_exact(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
        e_true = rng.standard_normal(9)
        res = lstsq(q, q @ e_true)
        assert np.linalg.norm(res.x - e_true) < 1e-12 * np.linalg.norm(e_true)

    def test_rank_deficiency_duplicate_column(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(10)
        other = rng.standard_normal(10)
        phi = np.column_stack([col, other, col])
        with pytest.raises(RankDeficiencyError) as excinfo:
            lstsq(phi, rng.standard_normal(10))
        assert excinfo.value.column in (0, 2)

    def test_zero_matrix(self):
        with pytest.raises(RankDeficiencyError, match="zero"):
            lstsq(np.zeros((5, 2)), np.ones(5))

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            lstsq(np.ones((2, 3)), np.ones(2))

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError, match="right-hand side"):
            lstsq(np.ones((4, 2)), np.ones(5))

    def test_non_matrix_system_rejected(self):
        with pytest.raises(ValueError, match="expected a 2-D system matrix, got shape \\(4,\\)"):
            lstsq(np.ones(4), np.ones(4))

    def test_reports_qr_solver(self):
        assert lstsq(np.eye(3), np.ones(3)).solver == "qr"

    @pytest.mark.parametrize("shape", [(12, 12), (50, 6), (4105, 93)])
    def test_matches_explicit_q(self, shape):
        # Q.T @ y from the reflectors equals the product with the formed economic Q
        rng = np.random.default_rng(shape[1])
        phi = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        q, r, perm = scipy.linalg.qr(phi, mode="economic", pivoting=True)
        x = np.empty(shape[1])
        x[perm] = scipy.linalg.solve_triangular(r, q.T @ y)
        res = lstsq(phi, y)
        assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)
        assert abs(res.residual - np.linalg.norm(y - phi @ x)) <= 1e-12 * np.linalg.norm(y)

    def test_non_finite_rhs_rejected(self):
        y = np.ones(6)
        y[2] = np.nan
        with pytest.raises(ValueError, match="right-hand side contains non-finite"):
            lstsq(np.arange(12.0).reshape(6, 2) ** 0.5, y)


def near_dependent_system(eps, seed=9):
    """Structured coded-camera system whose mask band 5 is band 4 + eps * noise.

    Columns (t, 4) and (t, 5) of phi then differ by O(eps), so cond(phi)
    grows like 1/eps while everything else about the system stays typical.
    """
    rng = np.random.default_rng(seed)
    rows, cols, bands, k = 24, 24, 12, 2
    mask = forward.gen_mask(rows, cols, bands, seed, 0.5).copy()
    mask[:, :, 5] = mask[:, :, 4] + eps * rng.standard_normal((rows, cols))
    w = np.linalg.qr(rng.standard_normal((rows * cols, k)))[0].T
    phi = fusion.assemble_phi_w(mask, w)
    y = phi @ rng.standard_normal(k * bands) + 0.01 * rng.standard_normal(rows * cols)
    return phi, y


def rel_diff(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


DECLINED_GRAMS = pytest.mark.parametrize(
    "gram",
    [np.array([[1.0, np.nan], [np.nan, 1.0]]), np.array([[1.0, 0.0], [0.0, np.inf]]),
     np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, -1.0]), np.diag([1.0, 1e-7])],
    ids=["nan", "inf", "indefinite", "negative-diagonal", "rcond-below-bound"],
)


@pytest.fixture(params=["openblas", "scipy"])
def lapack_path(request, monkeypatch):
    """Run on numpy's bundled OpenBLAS, then with its symbols reported missing."""
    if request.param == "openblas" and _blas.openblas() is None:
        pytest.skip("numpy bundles no scipy-openblas LAPACK symbols")
    if request.param == "scipy":
        monkeypatch.setattr(_blas, "openblas", lambda: None)
    return request.param


class TestCholeskySolve:
    @DECLINED_GRAMS
    def test_declines(self, gram):
        assert cholesky_solve(gram, np.ones(2)) is None

    @DECLINED_GRAMS
    def test_declines_without_the_binding(self, monkeypatch, gram):
        monkeypatch.setattr(_blas, "openblas", lambda: None)
        assert cholesky_solve(gram, np.ones(2)) is None

    @pytest.mark.parametrize("rhs", [np.array([np.nan, 1.0]), np.array([1.0, -np.inf])],
                             ids=["nan", "inf"])
    def test_declines_non_finite_rhs(self, lapack_path, rhs):
        # dposv would return [nan, nan] for a NaN right-hand side as an accepted answer
        assert cholesky_solve(np.eye(2), rhs) is None

    @pytest.mark.parametrize("n", [2, 30, 93])
    def test_bits_equal_scipy_lapack(self, lapack_path, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.standard_normal((n + 7, n))
            gram, rhs = a.T @ a, rng.standard_normal(n)
            factor, info = scipy.linalg.lapack.dpotrf(gram)
            assert info == 0
            assert np.array_equal(cholesky_solve(gram, rhs),
                                  scipy.linalg.lapack.dpotrs(factor, rhs)[0])

    def test_threads_solve_as_one_thread_does(self, lapack_path):
        # calls from many threads at once, of mixed orders, give the bits one thread gives,
        # and each indefinite Gram is declined
        rng = np.random.default_rng(16)
        systems = []
        for n in (2, 30, 93) * 8:
            a = rng.standard_normal((n + 7, n))
            systems.append((a.T @ a, rng.standard_normal(n)))
            systems.append((-a.T @ a, rng.standard_normal(n)))
        alone = [cholesky_solve(*system) for system in systems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between a call and its reads
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(cholesky_solve, *system) for system in systems]
                together = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [x is None for x in alone] == [i % 2 == 1 for i in range(len(systems))]
        assert all(x is y is None or np.array_equal(x, y) for x, y in zip(alone, together))

    def test_binding_refuses_bad_shapes(self):
        lib = _blas.openblas()
        if lib is None:
            pytest.skip("numpy bundles no scipy-openblas LAPACK symbols")
        with pytest.raises(ValueError, match="square"):
            lib.dposv(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="does not match order 2"):
            lib.dposv(np.eye(2), np.ones(3))

    def test_missing_symbols_use_scipy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_blas, "openblas", lambda: calls.append(1))
        monkeypatch.setattr(scipy.linalg.lapack, "dposv",
                            lambda *args: calls.append(2) or (np.eye(2), np.zeros(2), 0))
        assert np.array_equal(cholesky_solve(np.eye(2), np.ones(2)), np.zeros(2))
        assert calls == [1, 2]

    def test_declines_by_factorisation_and_by_rcond(self):
        # the indefinite G fails dpotrf itself (info > 0); diag(1, 1e-7) factors but its
        # rcond is below the bound, which diag(1, 1e-5) clears
        assert scipy.linalg.lapack.dpotrf(np.array([[1.0, 2.0], [2.0, 1.0]]))[1] > 0
        assert scipy.linalg.lapack.dpotrf(np.diag([1.0, 1e-7]))[1] == 0
        assert np.allclose(cholesky_solve(np.diag([1.0, 1e-5]), np.ones(2)), [1.0, 1e5])

    @pytest.mark.parametrize("seed,shape", [(14, (30, 5)), (15, (400, 93))])
    def test_matches_dense_solve_on_spd_systems(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        gram, rhs = a.T @ a, rng.standard_normal(shape[1])
        x = cholesky_solve(gram, rhs)
        assert rel_diff(x, np.linalg.solve(gram, rhs)) <= 1e-12

    @pytest.mark.parametrize("seed,shape", [(10, (40, 7)), (11, (300, 24)), (12, (1600, 93))])
    def test_matches_qr_on_well_conditioned_systems(self, seed, shape):
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        x, ref = cholesky_solve(phi.T @ phi, phi.T @ y), lstsq(phi, y)
        assert rel_diff(x, ref.x) <= 1e-12
        assert abs(np.linalg.norm(y - phi @ x) - ref.residual) <= 1e-12 * ref.residual

    def test_normal_equations_hold(self):
        rng = np.random.default_rng(13)
        phi = rng.standard_normal((40, 7))
        y = rng.standard_normal(40)
        x = cholesky_solve(phi.T @ phi, phi.T @ y)
        assert np.linalg.norm(phi.T @ (y - phi @ x)) <= 1e-8 * np.linalg.norm(phi.T @ y)

    def test_bound_is_stated(self):
        assert CHOLESKY_RCOND_MIN == 1e-6

    def test_conditioning_sweep_declines_at_the_bound(self):
        declined = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            phi, y = near_dependent_system(eps)
            gram = phi.T @ phi
            rcond = 1.0 / np.linalg.cond(gram, 1)
            x = cholesky_solve(gram, phi.T @ y)
            declined.append(x is None)
            if x is not None:
                assert rel_diff(x, lstsq(phi, y).x) <= 1e-9, eps
            # the estimate may differ from the exact 1-norm figure by a small factor
            if rcond >= 10 * CHOLESKY_RCOND_MIN:
                assert x is not None, (eps, rcond)
            if rcond <= CHOLESKY_RCOND_MIN / 10:
                assert x is None, (eps, rcond)
        # well-conditioned systems are answered, the rest declined, switching once
        assert declined == sorted(declined) and not declined[0] and declined[-1]

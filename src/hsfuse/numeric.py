"""Dense kernels used by the fusion solves: top-k SVD and least squares.

All wrap LAPACK (via numpy/scipy) behind explicit numerical contracts:
the SVD returns descending singular triplets with orthonormal factors.
``lstsq`` is the reference least-squares solve: a column-pivoted QR
factorisation (Q applied to the right-hand side, never formed), which
equals the normal-equation solution on full-column-rank systems but does
not square the condition number.
``cholesky_solve`` solves normal equations G x = b by Cholesky, several
times faster on tall systems, and declines (returns None) whenever G or b
is not finite or G's estimated condition makes the squaring unsafe; a
caller then hands the system's rows to ``lstsq``, so an answer it keeps
stays within about 1e-10 relative of QR's.

``cholesky_solve`` calls ``dposv`` and ``dpocon`` in numpy's own OpenBLAS
(``_blas``), so a reconstruction whose windows all keep their Cholesky
answer never imports scipy.linalg, which takes longer to load than numpy.
Only the QR fallback imports it, and ``cholesky_solve`` too where numpy
bundles no OpenBLAS.
"""

from typing import NamedTuple

import numpy as np

from . import RankDeficiencyError, _blas

__all__ = [
    "RANK_RTOL",
    "CHOLESKY_RCOND_MIN",
    "RankDeficiencyError",
    "SvdResult",
    "LstsqResult",
    "truncated_svd",
    "lstsq",
    "cholesky_solve",
]

# Relative tolerance on the pivoted-QR diagonal below which a column is
# declared numerically dependent.
RANK_RTOL = 1e-10

# Smallest reciprocal condition number of G = phi.T @ phi for which
# cholesky_solve trusts its solution. The normal equations lose
# accuracy in proportion to cond(G) = cond(phi)**2: their relative error is
# about eps * cond(G) (eps = 1.1e-16), against QR's eps * cond(phi). With
# rcond(G) >= 1e-6 that is at most ~1e-10, i.e. cond(phi) <= 1e3. dpocon
# estimates the 1-norm condition, which for a symmetric matrix is never
# below the 2-norm one, so the bound errs towards falling back to QR.
CHOLESKY_RCOND_MIN = 1e-6


class SvdResult(NamedTuple):
    u: np.ndarray  # (rows, k), orthonormal columns
    s: np.ndarray  # (k,), descending
    v: np.ndarray  # (cols, k), orthonormal columns


class LstsqResult(NamedTuple):
    x: np.ndarray
    residual: float
    solver: str  # "cholesky" (normal equations) or "qr" (pivoted QR)


def truncated_svd(mat, k):
    """Top-k singular triplets of a dense matrix, so mat ~= u @ diag(s) @ v.T.

    Singular values are sorted descending. The rank-k projector v @ v.T is
    unique whenever s[k-1] > s[k]; individual columns of u/v are only
    defined up to sign (or rotation on repeated singular values).
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix contains non-finite entries")
    if not 1 <= k <= min(mat.shape):
        raise ValueError(f"k must be in [1, {min(mat.shape)}], got {k}")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    return SvdResult(u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy())


def lstsq(phi, y):
    """Minimise ||y - phi @ x||_2 for a tall full-column-rank system.

    Solved through column-pivoted QR; Q.T @ y comes from applying the
    Householder reflectors to y (``scipy.linalg.qr_multiply``), so the
    economic Q is never formed. If the smallest diagonal of the R factor
    falls below RANK_RTOL times the largest, the system is declared rank
    deficient and the offending (original) column index is reported.
    Returns the solution together with the residual 2-norm, measured on phi.
    """
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError(f"expected a 2-D system matrix, got shape {phi.shape}")
    if y.ndim != 1 or y.shape[0] != phi.shape[0]:
        raise ValueError(f"right-hand side shape {y.shape} does not match {phi.shape[0]} rows")
    rows, cols = phi.shape
    if rows < cols:
        raise ValueError(f"system is underdetermined: {rows} rows < {cols} columns")
    if not np.isfinite(phi).all():
        raise ValueError("system matrix contains non-finite entries")
    if not np.isfinite(y).all():
        raise ValueError("right-hand side contains non-finite entries")
    import scipy.linalg  # after the checks: a refused system does not pay its import

    # Q is applied to y as its Householder reflectors and never formed (y @ Q is Q.T @ y)
    qty, r, perm = scipy.linalg.qr_multiply(phi, y, mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    dmax = diag.max()
    if dmax == 0.0:
        raise RankDeficiencyError(
            f"system matrix is zero (column {int(perm[0])})", column=int(perm[0])
        )
    bad = np.flatnonzero(diag < RANK_RTOL * dmax)
    if bad.size:
        column = int(perm[bad[0]])
        raise RankDeficiencyError(
            f"numerical rank {int(bad[0])} < {cols} columns (column {column} is dependent)",
            column=column,
        )
    z = scipy.linalg.solve_triangular(r, qty)
    x = np.empty_like(z)
    x[perm] = z
    residual = float(np.linalg.norm(y - phi @ x))
    return LstsqResult(x, residual, "qr")


def cholesky_solve(gram, rhs):
    """Solution of gram @ x = rhs by Cholesky (``dposv``), or None (solve by pivoted QR
    instead) unless G and rhs are finite and G factors with rcond(G) >= CHOLESKY_RCOND_MIN
    (``dpocon``)."""
    lapack = _blas.openblas()
    if lapack is None:
        from scipy.linalg import lapack

    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        return None
    factor, x, info = lapack.dposv(gram, rhs)
    if info != 0:
        return None
    # dpocon needs the 1-norm of G itself, not of its factor
    rcond, _ = lapack.dpocon(factor, np.abs(gram).sum(axis=0).max())
    return x if rcond >= CHOLESKY_RCOND_MIN else None


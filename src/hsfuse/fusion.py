"""Non-iterative dual-measurement fusion reconstruction.

The scene is modelled as spectrally low rank: the band-by-pixel unfolding X
factors as E @ W with a (bands x k) spectral basis E and (k x pixels)
coefficients W. W is estimated from the multiband image Z (top right
singular vectors of its unfolding, W = S^-1 U.T Z, so its rows are
orthonormal and all scale lives in E), and E is solved from the coded image
through a structured sensing matrix whose row for pixel p is the Kronecker
product of that pixel's coefficient and mask spectra. So each window fits
one linear multiband-to-hyperspectral map F = E S^-1 U.T (bands x
channels); ``pfuse`` solves overlapping windows independently and averages
their maps per pixel, and ``fuse`` is ``pfuse`` with one window.

Base windows are solved from sufficient statistics: with a_p = kron(z_p, c_p)
and P = kron(S^-1 U.T, I) the normal equations are P H P.T e = P g, where
H = sum a_p a_p.T and g = sum a_p y_p. H, g and the Gram Z Z.T are formed
once per cell (the image cut at every window origin and end), each window
adds up its cells, and U, S come from eigh of its Gram. As that squares the
singular values and the system, a window keeps this answer only if its
statistics are finite, its Gram is nonzero, its rank-th eigenvalue and the
gap below it are at least ``numeric.CHOLESKY_RCOND_MIN`` times the largest,
and the Cholesky solve passes that bound on rcond(G). Other windows, and all
joint ones, take the per-window path: own SVD, sensing matrix and solve.

The improved (joint) solve, selected by passing the multiband response,
adds the multiband measurement's rows to that system. They all lie in the
span of W's k row directions, so the channels*pixels multiband rows reduce
exactly to k*channels rows, and the reduced system is solved like a base
window's own: by the guarded normal equations, falling back to pivoted QR.

The layout of vec(E) is defined operationally: stacking E column by column
makes ``assemble_phi_w(C, W) @ vec(E)`` equal the pixel-major ravel of
``simulate_cassi(fold3(E @ W), C)`` for every E, W, C of matching shape.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import core, numeric
from .forward import validate_response

__all__ = [
    "FusionConfig",
    "CoefficientEstimate",
    "PatchStats",
    "estimate_coefficients",
    "assemble_phi_w",
    "assemble_phi_rgb",
    "solve_basis",
    "fuse",
    "pfuse",
]

# relative singular-value threshold below which a patch's rank is shrunk
RANK_TOL = 1e-10


@dataclass(frozen=True)
class FusionConfig:
    """Settings for patch-based fusion.

    ``rank`` is the spectral subspace dimension (bounded by the multiband
    channel count) and ``patch_rows``/``patch_cols``/``stride`` drive the
    overlapping grid. Which basis solve runs is not a setting: passing a
    response to :func:`pfuse` selects the joint coded+multiband system.
    """

    rank: int = 3
    patch_rows: int = 100
    patch_cols: int = 100
    stride: int = 50

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.patch_rows < 1 or self.patch_cols < 1:
            raise ValueError("patch dimensions must be positive")
        if self.stride < 1 or self.stride > min(self.patch_rows, self.patch_cols):
            raise ValueError("stride must satisfy 1 <= stride <= min(patch dims)")

    def grid(self, shape, channels):
        """Patch grid over a (rows, cols, bands) scene measured in ``channels`` channels.

        Raises ValueError when this config cannot reconstruct such a scene:
        the rank exceeds the channel count, the patch area does not exceed
        the basis unknowns (rank*bands), or the patch exceeds the image.
        """
        rows, cols, bands = shape
        m, n = self.patch_rows, self.patch_cols
        if self.rank > channels:
            raise ValueError(f"rank {self.rank} exceeds the channel count {channels}")
        if m * n <= self.rank * bands:
            raise ValueError(
                f"patch area m*n = {m * n} must exceed rank*bands = {self.rank * bands}"
            )
        return core.make_grid(rows, cols, m, n, self.stride)


class CoefficientEstimate(NamedTuple):
    coefficients: np.ndarray  # (rank, pixels), orthonormal rows
    rank: int  # effective rank after shrinkage
    mixing: np.ndarray  # (rank, channels) S^-1 U.T: coefficients = mixing @ unfold3(z)


@dataclass
class PatchStats:
    """Per-patch solve record collected by :func:`pfuse`.

    ``coefficients``/``basis``/``solver`` are None for all-zero patches,
    which are reconstructed as zero without a solve. ``solver`` is
    ``"cholesky"`` when the solve kept its normal-equation answer (from cell
    statistics or the patch's own base or joint system), ``"qr"`` when it
    fell back to pivoted QR.
    ``residual`` is the 2-norm residual of the patch's least-squares
    system: the coded rows, plus for the joint solve all channels*pixels
    multiband rows (not only the reduced rows that were factored).
    """

    origin: tuple
    rank: int
    residual: float
    coefficients: Optional[np.ndarray]
    basis: Optional[np.ndarray]
    solver: Optional[str]


def estimate_coefficients(z, k):
    """Coefficients from the multiband image: top-k right singular vectors.

    Returns W with orthonormal rows (W @ W.T = I), shaped (k_eff, pixels),
    and the map S^-1 U.T from a pixel's multiband values to its coefficients.
    k_eff < k only when trailing singular values fall below
    RANK_TOL * sigma_1, i.e. the data genuinely has fewer spectral degrees
    of freedom; the shrunk rank is reported in the result.
    """
    z = core.check_cube(z, "multiband measurement")
    channels = z.shape[2]
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if k > channels:
        raise ValueError(f"rank {k} exceeds the channel count {channels}")
    zmat = core.unfold3(z)
    svd = numeric.truncated_svd(zmat, min(k, min(zmat.shape)))
    if svd.s[0] == 0.0:
        raise ValueError("multiband measurement is identically zero (rank 0)")
    keep = int(np.count_nonzero(svd.s > RANK_TOL * svd.s[0]))
    mixing = svd.u[:, :keep].T / svd.s[:keep, None]
    return CoefficientEstimate(svd.v[:, :keep].T.copy(), keep, mixing)


def assemble_phi_w(mask, w):
    """Structured sensing matrix of the coded camera under coefficients W.

    Row p is kron(W[:, p], C[p, :]) with C[p, :] the mask spectrum at pixel
    p, so the result has shape (pixels, k*bands) and
    ``assemble_phi_w(C, W) @ vec(E)`` equals the pixel-major ravel of
    ``simulate_cassi(fold3(E @ W), C)``.
    """
    mask = core.check_cube(mask, "mask")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"coefficients must be 2-D, got shape {w.shape}")
    rows, cols, bands = mask.shape
    k, pixels = w.shape
    if pixels != rows * cols:
        raise ValueError(f"coefficients cover {pixels} pixels, mask has {rows * cols}")
    mask_px = mask.reshape(rows * cols, bands, order="F")
    return np.einsum("tp,pb->ptb", w, mask_px).reshape(pixels, k * bands)


def assemble_phi_rgb(response, w):
    """Structured sensing matrix of the multiband camera under coefficients W.

    Analogous to :func:`assemble_phi_w` with the response columns in place
    of mask spectra: shape (channels*pixels, k*bands), rows ordered with all
    pixels of channel 0 first, and
    ``assemble_phi_rgb(A, W) @ vec(E)`` equals the pixel-major ravel of
    ``simulate_multiband(fold3(E @ W), A)``.
    """
    response = validate_response(response)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"coefficients must be 2-D, got shape {w.shape}")
    bands, channels = response.shape
    k, pixels = w.shape
    return np.einsum("tp,bc->cptb", w, response).reshape(channels * pixels, k * bands)


def _joint_response(response, bands, channels):
    """The multiband response, checked against the mask's bands and z's channels."""
    response = validate_response(response, bands=bands)
    if response.shape[1] != channels:
        raise ValueError(
            f"response has {response.shape[1]} channels, "
            f"the multiband measurement has {channels}"
        )
    return response


def _solve(y, mask, w, z, response):
    """Least-squares basis solve as a :class:`numeric.LstsqResult`.

    Without ``response`` this is the base system. With it (already checked
    by :func:`_joint_response`) the multiband rows join the system in their
    exact reduction: reordered with all channels of pixel 0 first, they are
    kron(W.T, A.T), and with the thin QR W.T = Q R that is
    kron(Q, I) @ kron(R, A.T), where kron(Q, I) has orthonormal columns. So
    the channels*pixels multiband rows can be replaced by the k*channels
    rows kron(R, A.T) against vec(Z Q) (Z the channels x pixels unfolding
    of z) without changing the Gram matrix, the column norms or the
    least-squares answer; the part of Z outside span(Q) is added back to
    the residual, which stays the stacked system's. Either system is solved
    by :func:`numeric.normal_lstsq`: Cholesky on the normal equations, or
    pivoted QR when its rcond guard declines them. The joint Gram is the
    base Gram plus a positive semidefinite term, which never lowers its
    smallest eigenvalue.
    """
    phi = assemble_phi_w(mask, w)
    rhs = y.ravel(order="F")
    outside = 0.0
    if response is not None:
        q, r = np.linalg.qr(w.T)
        zmat = core.unfold3(z)
        zq = zmat @ q
        phi = np.vstack((phi, np.kron(r, response.T)))
        rhs = np.concatenate((rhs, zq.ravel(order="F")))
        outside = np.linalg.norm(zmat - zq @ q.T)
    sol = numeric.normal_lstsq(phi, rhs)
    return sol._replace(residual=float(np.hypot(sol.residual, outside)))


def solve_basis(y, mask, w, z=None, response=None):
    """Spectral basis from the coded image given coefficients W.

    Solves min ||vec(Y) - phi_W @ e|| by least squares and reshapes e to
    (bands, k): through the Cholesky-factored normal equations when
    phi_W is well conditioned, by pivoted QR otherwise
    (:func:`numeric.normal_lstsq`). Given ``response`` and ``z``, the
    multiband measurement joins the system through its own structured matrix
    (:func:`assemble_phi_rgb`), reduced exactly to k*channels rows, and the
    joint least-squares problem is solved the same way; W need not have
    orthonormal rows. On consistent data both paths give the same E @ W.
    """
    y = np.asarray(y, dtype=np.float64)
    mask = core.check_cube(mask, "mask")
    w = np.asarray(w, dtype=np.float64)
    if y.ndim != 2 or y.shape != mask.shape[:2]:
        raise ValueError(f"coded image shape {y.shape} does not match mask {mask.shape[:2]}")
    if response is not None:
        if z is None:
            raise ValueError("the joint solve requires the multiband measurement")
        z = core.check_cube(z, "multiband measurement")
        if z.shape[:2] != y.shape:
            raise ValueError(f"multiband shape {z.shape} does not match image {y.shape}")
        response = _joint_response(response, mask.shape[2], z.shape[2])
    sol = _solve(y, mask, w, z, response)
    return sol.x.reshape(mask.shape[2], -1, order="F")


def _check_measurements(y, z, mask):
    y = np.asarray(y, dtype=np.float64)
    z = core.check_cube(z, "multiband measurement")
    mask = core.check_cube(mask, "mask")
    if y.ndim != 2:
        raise ValueError(f"coded image must be 2-D, got shape {y.shape}")
    if y.shape != mask.shape[:2] or z.shape[:2] != mask.shape[:2]:
        raise ValueError(
            f"inconsistent spatial shapes: coded {y.shape}, multiband {z.shape[:2]}, "
            f"mask {mask.shape[:2]}"
        )
    return y, z, mask


def _fuse_block(y, z, mask, rank, response):
    """Fusion of one window by its own solve; returns (F, (rank, residual, W, E, solver)),
    where the (bands, channels) map F = E @ S^-1 U.T turns multiband values into spectra."""
    bands, channels = mask.shape[2], z.shape[2]
    if not (z.any() or y.any()):
        # nothing was measured at all: the zero cube is the exact solution
        return np.zeros((bands, channels)), (0, 0.0, None, None, None)
    est = estimate_coefficients(z, rank)
    sol = _solve(y, mask, est.coefficients, z, response)
    basis = sol.x.reshape(bands, est.rank, order="F")
    return basis @ est.mixing, (est.rank, sol.residual, est.coefficients, basis, sol.solver)


@np.errstate(invalid="ignore")  # inf * 0 from a non-finite input; the window guard rejects it
def _cell_stats(y, z, mask, r0, r1, col_edges, out):
    """Write H, g and the multiband Gram of each cell between rows r0 and r1 to ``out``."""
    h, g, gram = out
    for b, (c0, c1) in enumerate(zip(col_edges[:-1], col_edges[1:])):
        zc = z[r0:r1, c0:c1].reshape(-1, z.shape[2])
        yc = y[r0:r1, c0:c1].ravel()
        a = (zc[:, :, None] * mask[r0:r1, c0:c1].reshape(len(yc), 1, -1)).reshape(len(yc), -1)
        np.matmul(a.T, a, out=h[b])
        np.matmul(a.T, yc, out=g[b])
        np.matmul(zc.T, zc, out=gram[b])


def _cell_solves(y, z, mask, grid, rank, keep_stats):
    """Yield (index, F, PatchStats or None) for each window the cell statistics solve;
    the cell rows the current row of windows needs are kept in a preallocated ring."""
    channels, bands = z.shape[2], mask.shape[2]
    bound = numeric.CHOLESKY_RCOND_MIN
    row_edges, col_edges, spans = grid.cells()
    ring = max(a1 - a0 for a0, a1, _, _ in spans)
    shapes = ((channels * bands,) * 2, (channels * bands,), (channels, channels))
    cells = [np.empty((ring, len(col_edges) - 1) + shape) for shape in shapes]
    strip = [np.empty(part.shape[1:]) for part in cells]
    done, current = 0, None
    for index, (a0, a1, b0, b1) in enumerate(spans):
        if (a0, a1) != current:
            current = a0, a1
            for a in range(max(done, a0), a1):
                out = [part[a % ring] for part in cells]
                _cell_stats(y, z, mask, *row_edges[a : a + 2], col_edges, out)
            done = max(done, a1)
            for total, part in zip(strip, cells):
                total[...] = part[a0 % ring]
                for a in range(a0 + 1, a1):
                    total += part[a % ring]
        h, g, gram = (part[b0:b1].sum(axis=0) for part in strip)
        # a non-finite input value reaches H's diagonal (a_p), g (y_p) or the Gram (z_p)
        if not all(np.isfinite(part).all() for part in (h, g, gram)):
            continue
        lam, u = np.linalg.eigh(gram)
        lam, u = np.append(lam[::-1], 0.0), u[:, ::-1]  # lam[channels] = 0 ends the last gap
        if not lam[0] > 0 or min(lam[rank - 1], lam[rank - 1] - lam[rank]) < bound * lam[0]:
            continue
        m = u[:, :rank].T / np.sqrt(lam[:rank])[:, None]  # S^-1 U.T
        # P H P.T through the kron structure: contract H's two channel axes with m
        t = (m @ h.reshape(channels, -1)).reshape(rank, bands, channels, bands)
        gw = (m @ t.transpose(2, 0, 1, 3).reshape(channels, -1)).reshape(rank, rank, bands, bands)
        gw = gw.transpose(1, 2, 0, 3).reshape(rank * bands, -1)
        e = numeric.cholesky_solve(gw, (m @ g.reshape(channels, bands)).ravel())
        if e is None:
            continue
        basis = e.reshape(bands, rank, order="F")
        record = None
        if keep_stats:
            i0, j0 = origin = grid.origins[index]
            window = np.s_[i0 : i0 + grid.patch_rows, j0 : j0 + grid.patch_cols]
            w = m @ core.unfold3(z[window])
            fit = assemble_phi_w(mask[window], w) @ e
            residual = float(np.linalg.norm(y[window].ravel(order="F") - fit))
            record = PatchStats(origin, rank, residual, w, basis, "cholesky")
        yield index, basis @ m, record


def fuse(y, z, mask, rank, response=None):
    """Global fusion of one coded and one multiband measurement.

    Coefficients come from the multiband image, the spectral basis from the
    coded image, jointly with the multiband one if ``response`` is given.
    This is :func:`pfuse` with one window covering the whole image, so it
    requires more pixels than basis unknowns (rows*cols > rank*bands).
    """
    y, z, mask = _check_measurements(y, z, mask)
    rows, cols, bands = mask.shape
    if rows * cols <= rank * bands:
        raise ValueError(f"image area {rows * cols} must exceed rank*bands = {rank * bands}")
    config = FusionConfig(rank, rows, cols, min(rows, cols))
    return pfuse(y, z, mask, config, response=response)


def pfuse(y, z, mask, config, workers=1, response=None, stats=None):
    """Patch-based fusion over an overlapping grid, averaged on overlaps.

    A ``response`` selects the joint solve. Base windows are solved from
    cell statistics on the calling thread, the rest by the per-window path
    (with ``workers`` > 1 on a pool of at most one thread per such window
    and per CPU). :func:`core.aggregate` averages the maps in grid order:
    the output is bit-identical for any worker count.
    Rank-deficient multiband patches are solved at their effective rank;
    all-zero patches reconstruct as zero. Pass a list as ``stats`` to
    receive one :class:`PatchStats` per patch, in grid order.

    The patch area must exceed the number of basis unknowns
    (patch_rows*patch_cols > rank*bands), otherwise the per-patch systems
    cannot have full column rank.
    """
    y, z, mask = _check_measurements(y, z, mask)
    grid = config.grid(mask.shape, z.shape[2])
    response = None if response is None else _joint_response(response, mask.shape[2], z.shape[2])
    maps, records = [None] * len(grid.origins), [None] * len(grid.origins)
    if response is None:
        for index, fmap, record in _cell_solves(y, z, mask, grid, config.rank, stats is not None):
            maps[index], records[index] = fmap, record
    pending = [index for index, fmap in enumerate(maps) if fmap is None]
    workers = min(workers or 1, len(pending), os.cpu_count() or 1)

    def solve(index):
        i0, j0 = origin = grid.origins[index]
        window = np.s_[i0 : i0 + grid.patch_rows, j0 : j0 + grid.patch_cols]
        try:
            fmap, fields = _fuse_block(y[window], z[window], mask[window], config.rank, response)
        except numeric.RankDeficiencyError as err:
            raise numeric.RankDeficiencyError(f"patch at origin {origin}: {err}",
                                              column=err.column) from err
        except ValueError as err:
            raise ValueError(f"patch at origin {origin}: {err}") from err
        return fmap, PatchStats(origin, *fields)

    def fill(mapper):
        for index, (fmap, record) in zip(pending, mapper(solve, pending)):
            maps[index], records[index] = fmap, record

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fill(pool.map)
    else:
        fill(map)
    if stats is not None:
        stats.extend(records)
    return core.aggregate(maps, grid, z)

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
and the Cholesky solve passes that bound on rcond(G). Other windows take the
per-window path: own SVD, sensing matrix and solve.

The improved (joint) solve, selected by passing the multiband response,
adds the multiband measurement's rows (``assemble_phi_rgb``) to that
system. They enter its normal equations as one Gram term kron(W W.T, A A.T)
and one right-hand side vec(A Z W.T). A joint window is solved from the
statistics of its own pixels, the window as its one cell, under the same
guards: with W = m Z and m = S^-1 U.T, those terms are kron(m Z Z.T m.T,
A A.T) and vec(A Z Z.T m.T), so neither W nor any rows are formed. A joint
window the guards decline takes the per-window path, where one solve serves
both systems: the guarded Cholesky solve, falling back to pivoted QR on the
rows.

The layout of vec(E) is defined operationally: stacking E column by column
makes ``assemble_phi_w(C, W) @ vec(E)`` equal the pixel-major ravel of
``simulate_cassi(fold3(E @ W), C)`` for every E, W, C of matching shape.
"""

import contextlib
import functools
import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _blas, core, numeric

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
    "pfuse_rows",
]

# relative singular-value threshold below which a patch's rank is shrunk
RANK_TOL = 1e-10


@dataclass(frozen=True)
class FusionConfig:
    """Settings for patch-based fusion.

    ``rank`` is the spectral subspace dimension (bounded by the multiband
    channel count) and ``patch_rows``/``patch_cols``/``stride`` drive the
    overlapping grid; the stride defaults to half the shorter patch side, at
    least 1. Passing a response to :func:`pfuse` selects the joint solve.
    """

    rank: int = 3
    patch_rows: int = 100
    patch_cols: int = 100
    stride: Optional[int] = None

    def __post_init__(self):
        for name in ("rank", "patch_rows", "patch_cols"):
            value = getattr(self, name)
            if not (core._integer(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.stride is None:
            object.__setattr__(self, "stride", max(1, min(self.patch_rows, self.patch_cols) // 2))
        stride = self.stride
        if not (core._integer(stride) and 1 <= stride <= min(self.patch_rows, self.patch_cols)):
            raise ValueError("stride must satisfy 1 <= stride <= min(patch dims) and be an "
                             f"integer, got {self.stride!r}")

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
            raise ValueError(f"window area m*n = {m * n} must exceed rank*bands = "
                             f"{self.rank * bands}")
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
    multiband rows, whether they were solved through their Gram term or
    stacked under the coded rows. A patch solved from statistics takes it
    through its map F (:func:`_cell_record`), without a sensing matrix.
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
    # a pixel-major C-ordered copy of the mask: each pixel's spectrum is one run, in any layout
    spectra = np.ascontiguousarray(mask.transpose(1, 0, 2)).reshape(pixels, bands)
    return np.einsum("tp,pb->ptb", w, spectra, order="C").reshape(pixels, k * bands)


def assemble_phi_rgb(response, w):
    """Structured sensing matrix of the multiband camera under coefficients W.

    Analogous to :func:`assemble_phi_w` with the response columns in place
    of mask spectra: shape (channels*pixels, k*bands), rows ordered with all
    pixels of channel 0 first, and
    ``assemble_phi_rgb(A, W) @ vec(E)`` equals the pixel-major ravel of
    ``simulate_multiband(fold3(E @ W), A)``.
    """
    response = core.validate_response(response)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"coefficients must be 2-D, got shape {w.shape}")
    bands, channels = response.shape
    k, pixels = w.shape
    return np.einsum("tp,bc->cptb", w, response).reshape(channels * pixels, k * bands)


def _solve(y, mask, w, z, response):
    """Least-squares basis solve as a :class:`numeric.LstsqResult`.

    The system's rows are :func:`assemble_phi_w`'s against vec(Y) and, with
    ``response`` (already checked by :func:`core.validate_response`), the
    multiband rows of :func:`assemble_phi_rgb` against vec(Z) (Z the
    channels x pixels unfolding of z). The latter enter the normal
    equations as the Gram term kron(W W.T, A A.T), positive semidefinite,
    and the right-hand side vec(A Z W.T). :func:`numeric.cholesky_solve`
    solves them once; when it declines, :func:`numeric.lstsq` solves the
    rows themselves, and names a non-finite input. Either way the residual
    is that of all the rows.
    """
    phi = assemble_phi_w(mask, w)
    rhs = y.ravel(order="F")
    # inf * 0 from a non-finite input; cholesky_solve declines it, and lstsq names it
    with np.errstate(invalid="ignore", over="ignore"):
        gram, b = phi.T @ phi, phi.T @ rhs
        if response is not None:
            zmat = core.unfold3(z)
            gram += np.kron(w @ w.T, response @ response.T)
            b += (response @ (zmat @ w.T)).ravel(order="F")
    x = numeric.cholesky_solve(gram, b)
    if x is None:
        if response is not None:
            phi = np.vstack((phi, assemble_phi_rgb(response, w)))
            rhs = np.concatenate((rhs, zmat.ravel()))
        return numeric.lstsq(phi, rhs)
    residual = np.linalg.norm(rhs - phi @ x)
    if response is not None:
        fit = response.T @ x.reshape(-1, len(w), order="F") @ w
        residual = np.hypot(residual, np.linalg.norm(zmat - fit))
    return numeric.LstsqResult(x, float(residual), "cholesky")


def solve_basis(y, mask, w, z=None, response=None):
    """Spectral basis from the coded image given coefficients W.

    Solves min ||vec(Y) - phi_W @ e|| by least squares and reshapes e to
    (bands, k). Given both ``response`` and ``z``, the multiband
    measurement joins the system through its own structured matrix
    (:func:`assemble_phi_rgb`), whose rows add the Gram term
    kron(W W.T, A A.T) to the normal equations; W need not have orthonormal
    rows. Either system is solved once: through its Cholesky-factored
    normal equations when they are finite and well conditioned, by pivoted
    QR on its rows otherwise. On consistent data the base and joint solves
    give the same E @ W.
    """
    y = np.asarray(y, dtype=np.float64)
    mask = core.check_cube(mask, "mask")
    w = np.asarray(w, dtype=np.float64)
    if y.ndim != 2 or y.shape != mask.shape[:2]:
        raise ValueError(f"coded image shape {y.shape} does not match mask {mask.shape[:2]}")
    if (z is None) != (response is None):
        raise ValueError("the joint solve requires the multiband measurement and the response")
    if response is not None:
        z = core.check_cube(z, "multiband measurement")
        if z.shape[:2] != y.shape:
            raise ValueError(f"multiband shape {z.shape} does not match image {y.shape}")
        response = core.validate_response(response, mask.shape[2], z.shape[2])
    sol = _solve(y, mask, w, z, response)
    return sol.x.reshape(mask.shape[2], -1, order="F")


def _fuse_block(y, z, mask, rank, response, origin):
    """(F, PatchStats) of a window whose statistics were declined, with F = E @ S^-1 U.T
    its (bands, channels) map: zero for an all-zero window, else from its own SVD, sensing
    matrix and :func:`_solve`."""
    bands, channels = mask.shape[2], z.shape[2]
    if not (z.any() or y.any()):
        # nothing was measured at all: the zero cube is the exact solution
        return np.zeros((bands, channels)), PatchStats(origin, 0, 0.0, None, None, None)
    try:
        est = estimate_coefficients(z, rank)
        sol = _solve(y, mask, est.coefficients, z, response)
    except numeric.RankDeficiencyError as err:
        raise numeric.RankDeficiencyError(f"patch at origin {origin}: {err}",
                                          column=err.column) from err
    except ValueError as err:
        raise ValueError(f"patch at origin {origin}: {err}") from err
    basis = sol.x.reshape(bands, est.rank, order="F")
    return basis @ est.mixing, PatchStats(origin, est.rank, sol.residual, est.coefficients,
                                          basis, sol.solver)


@np.errstate(invalid="ignore")  # inf * 0 from a non-finite input; the window guard rejects it
def _cell_stats(y, z, mask, col_edges):
    """H, g and the multiband Gram of each cell of one row of cells, stacked by cell."""
    channels, bands, cells = z.shape[2], mask.shape[2], len(col_edges) - 1
    out = (np.empty((cells, channels * bands, channels * bands)),
           np.empty((cells, channels * bands)), np.empty((cells, channels, channels)))
    for b, (c0, c1) in enumerate(zip(col_edges[:-1], col_edges[1:])):
        zc = z[:, c0:c1].reshape(-1, channels)
        yc = y[:, c0:c1].ravel()
        a = np.einsum("pc,pb->pcb", zc, mask[:, c0:c1].reshape(len(yc), -1)).reshape(len(yc), -1)
        np.matmul(a.T, a, out=out[0][b])
        np.matmul(a.T, yc, out=out[1][b])
        np.matmul(zc.T, zc, out=out[2][b])
    return out


def _cell_solve(h, g, gram, rank, response):
    """(E, S^-1 U.T) of a window from its summed cell statistics, or None where a
    guard declines them. With ``response`` the multiband rows join the system in the
    whitened coordinates: W W.T = m Z Z.T m.T and A Z W.T = A Z Z.T m.T (m = S^-1 U.T)."""
    channels, bands = len(gram), len(g) // len(gram)
    # a non-finite input value reaches H's diagonal (a_p), g (y_p) or the Gram (z_p)
    if not all(np.isfinite(part).all() for part in (h, g, gram)):
        return None
    lam, u = np.linalg.eigh(gram)
    lam, u = np.append(lam[::-1], 0.0), u[:, ::-1]  # lam[channels] = 0 ends the last gap
    bound = numeric.CHOLESKY_RCOND_MIN
    if not lam[0] > 0 or min(lam[rank - 1], lam[rank - 1] - lam[rank]) < bound * lam[0]:
        return None
    m = u[:, :rank].T / np.sqrt(lam[:rank])[:, None]  # S^-1 U.T
    # P H P.T through the kron structure: contract H's two channel axes with m
    t = (m @ h.reshape(channels, -1)).reshape(rank, bands, channels, bands)
    gw = (m @ t.transpose(2, 0, 1, 3).reshape(channels, -1)).reshape(rank, rank, bands, bands)
    gw = gw.transpose(1, 2, 0, 3).reshape(rank * bands, -1)
    b = (m @ g.reshape(channels, bands)).ravel()
    if response is not None:
        gw += np.kron(m @ gram @ m.T, response @ response.T)
        b += (response @ (gram @ m.T)).ravel(order="F")
    e = numeric.cholesky_solve(gw, b)
    return None if e is None else (e.reshape(bands, rank, order="F"), m)


def _cell_record(y, z, mask, basis, m, fmap, origin, response):
    """PatchStats of a window solved from statistics, with the residual of its own system.

    Each pixel's spectrum is F z_p with F = E m, so the coded residual is
    y - sum_c (C F)_c z_c, and the joint one adds Z - (F.T A).T Z: no sensing matrix."""
    residual = np.linalg.norm(y - ((mask @ fmap) * z).sum(axis=2))
    if response is not None:
        residual = np.hypot(residual, np.linalg.norm(z - z @ (fmap.T @ response)))
    return PatchStats(origin, len(m), float(residual), m @ core.unfold3(z), basis, "cholesky")


def fuse(y, z, mask, rank, response=None):
    """Global fusion of one coded and one multiband measurement.

    Coefficients come from the multiband image, the spectral basis from the
    coded image, jointly with the multiband one if ``response`` is given.
    This is :func:`pfuse` with one window covering the whole image, so the
    grid (:meth:`FusionConfig.grid`) refuses an image with no more pixels
    than basis unknowns (rows*cols <= rank*bands).
    """
    rows, cols, _ = core.check_cube(mask, "mask").shape
    return pfuse(y, z, mask, FusionConfig(rank, rows, cols), response=response)


def pfuse(y, z, mask, config, workers=1, response=None, stats=None):
    """Patch-based fusion over an overlapping grid, averaged on overlaps.

    This is :func:`pfuse_rows` over the arrays, collected into one
    (rows, cols, bands) array. A ``response`` selects the joint solve. Each
    window is answered on the calling thread from its statistics: a base
    window sums its shared cells, and a joint window's own statistics are
    made with ``workers`` > 1 (None: one per CPU) on a pool of at most one
    thread per CPU and per window, while numpy's BLAS is held to one thread.
    A window whose statistics are declined takes the per-window path
    (:func:`_fuse_block`). :func:`core.aggregate_rows` averages the maps in
    grid order: the output is bit-identical for any worker count.
    Rank-deficient multiband patches are solved at their effective rank;
    all-zero patches reconstruct as zero. Pass a list as ``stats`` to
    receive one :class:`PatchStats` per patch, in grid order; without it, a
    window solved from statistics makes no record.

    The patch area must exceed the number of basis unknowns
    (patch_rows*patch_cols > rank*bands), otherwise the per-patch systems
    cannot have full column rank.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"coded image must be 2-D, got shape {y.shape}")
    z, mask = core.check_cube(z, "multiband measurement"), core.check_cube(mask, "mask")
    out = np.empty(mask.shape)
    for r0, rows in pfuse_rows(y[:, :, None], z, mask, config, workers=workers,
                               response=response, stats=stats):
        out[r0 : r0 + len(rows)] = rows
    return out


def pfuse_rows(y, z, mask, config, workers=1, response=None, stats=None):
    """:func:`pfuse` of row sources, yielding the reconstruction by rows.

    ``y`` (one band), ``z`` and ``mask`` each have a ``shape`` (rows, cols,
    bands), and ``source[r0:r1]`` gives rows r0:r1, read as float64: numpy
    arrays and :class:`io.CubeReader` are row sources. The arguments are
    checked before this returns; the generator then yields ``(r0, rows)``
    blocks of the (rows, cols, bands) result, in row order, each as soon as
    no later window covers it.

    It goes through the grid one row of windows at a time and reads each row
    of cells once, with no read longer than a window, into one record: its
    y, z and mask rows and, for base windows, its cells' statistics, made as
    it is read. Joint statistics, a declined window and a record copy their
    one window's pixels from those records, and drop the copy when done. A
    record is dropped when its rows of the result are yielded. So it holds
    the records of one row of windows and yields the rows that row finishes
    before it reads the next; while a pool runs, it submits the next row's
    statistics before it draws this one's answers, so the workers do not
    wait between rows, and holds two. Memory grows with patch_rows x cols x
    (bands + channels + 1) input values plus (channels x bands)^2 values per
    cell and a window's copy per worker, not with the scene's height.
    Closing the generator early stops the pool and restores BLAS's threads.
    """
    if workers is not None and not (core._integer(workers) and workers >= 1):
        raise ValueError(f"workers must be None or an integer >= 1, got {workers!r}")
    if any(len(source.shape) != 3 for source in (y, z, mask)):
        raise ValueError(f"row sources must be 3-D, got shapes {y.shape}, {z.shape}, {mask.shape}")
    if y.shape[2] != 1:
        raise ValueError(f"coded measurement must have 1 band, got {y.shape[2]}")
    if y.shape[:2] != mask.shape[:2] or z.shape[:2] != mask.shape[:2]:
        raise ValueError(f"inconsistent spatial shapes: coded {y.shape[:2]}, "
                         f"multiband {z.shape[:2]}, mask {mask.shape[:2]}")
    grid = config.grid(mask.shape, z.shape[2])
    if response is not None:
        response = core.validate_response(response, mask.shape[2], z.shape[2])
    return _stream(y, z, mask, grid, config.rank, workers, response, stats)


def _stream(y, z, mask, grid, rank, workers, response, stats):
    """The generator of :func:`pfuse_rows`, on checked arguments."""
    row_edges, col_edges, spans = grid.cells()
    # a cell row's first row -> ((y, z, mask) rows, base cell statistics), until aggregated
    inputs = {}
    cpus = os.cpu_count() or 1
    workers = min(cpus if workers is None else workers, cpus, len(spans))
    pool = None  # makes joint windows' statistics, started below with more than one worker

    def cut(reads, index):
        """Window ``index``'s y, z and mask from its cell rows' reads, one C-ordered copy each:
        a reader's band-major layout, kept, would move the statistics' bits."""
        j0, n = grid.origins[index][1], grid.patch_cols
        return [np.concatenate([part[:, j0 : j0 + n] for part in parts],
                               out=np.empty((grid.patch_rows, n, *parts[0].shape[2:])))
                for parts in zip(*reads)]

    def own_sums(reads, index):  # a joint window's H, g and Gram: the window as one cell
        return [part[0] for part in _cell_stats(*cut(reads, index), (0, grid.patch_cols))]

    def answer(reads, index, sums):
        """The map F of window ``index`` from its statistics, or from the per-window path
        where a guard declines them; its record goes to ``stats``."""
        origin, solved = grid.origins[index], _cell_solve(*sums, rank, response)
        if solved is None:
            fmap, record = _fuse_block(*cut(reads, index), rank, response, origin)
        else:
            basis, m = solved
            fmap, record = basis @ m, None
            if stats is not None:
                record = _cell_record(*cut(reads, index), basis, m, fmap, origin, response)
        if stats is not None:
            stats.append(record)
        return fmap

    def submit(a0, a1, indices):
        """Read one row of windows and return its maps, answered in window order as they
        are drawn: base windows sum their cells, joint windows' statistics are submitted."""
        for r0, r1 in zip(row_edges[a0:a1], row_edges[a0 + 1 : a1 + 1]):
            if r0 not in inputs:
                coded, *rest = (np.asarray(part[r0:r1], dtype=np.float64) for part in (y, z, mask))
                read = (coded[:, :, 0], *rest)
                inputs[r0] = read, None if response is not None else _cell_stats(*read, col_edges)
        reads, cells = zip(*(inputs[r0] for r0 in row_edges[a0:a1]))
        if response is None:
            strip = [sum(parts[1:], parts[0]) for parts in zip(*cells)]  # cell rows, in order
            sums = ([part[b0:b1].sum(axis=0) for part in strip]
                    for b0, b1 in (spans[index][2:] for index in indices))
        else:
            sums = (pool.map if pool else map)(functools.partial(own_sums, reads), indices)
        return map(functools.partial(answer, reads), indices, sums)

    def maps():
        submitted = []  # rows of windows' maps not yet drawn: while a pool runs, one is left
        for (a0, a1), row in itertools.groupby(range(len(spans)), key=lambda w: spans[w][:2]):
            submitted.append(submit(a0, a1, list(row)))
            while len(submitted) > (pool is not None):
                yield from submitted.pop(0)
        yield from itertools.chain(*submitted)

    # the pool and BLAS's one-thread pin, left when the generator ends or is closed
    with contextlib.ExitStack() as stack:
        if response is not None and workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # with logging, ~6.5 ms to load

            # the pool threads are the parallelism: BLAS threads of their own would oversubscribe
            stack.enter_context(_blas.one_thread())
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
        yield from core.aggregate_rows(maps(), grid, lambda r0, r1: inputs.pop(r0)[0][1])

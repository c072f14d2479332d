"""Hyperspectral cube and spectral response conventions; overlapping patches.

A cube is a float64 ndarray of shape (M, N, B): M spatial rows, N spatial
columns, B spectral bands. Pixels are linearised column-major over rows,

    p = i + j * M,

and ``unfold3`` / ``fold3`` convert between the cube and its B x (M*N)
band-by-pixel matrix under that ordering. Patch grids tile the image with
overlapping m x n windows; windows that would run past the border are
clamped so the last window ends exactly at the image edge. Cutting the
image at every window origin and end gives cells, each covered by a fixed
set of windows; ``aggregate`` averages the windows' spectral maps per cell.

A spectral response is a (bands, channels) matrix A; the multiband camera
reads A^T x at a pixel with spectrum x. ``validate_response`` owns its rules,
and the simulator, the response file format and the joint solve apply them.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchGrid",
    "check_cube",
    "validate_response",
    "unfold3",
    "fold3",
    "make_grid",
    "extract_patch",
    "aggregate_rows",
    "aggregate",
]


def _integer(value):
    """Whether ``value`` is an integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_cube(cube, name="cube"):
    """Coerce to a float64 (rows, cols, bands) array and validate the shape."""
    arr = np.asarray(cube, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-D (rows, cols, bands), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} has an empty dimension: {arr.shape}")
    return arr


def validate_response(a, bands=None, channels=None):
    """Validate a spectral response matrix, (``bands``, ``channels``) where given, as float64."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"response must be a (bands, channels) matrix, got shape {a.shape}")
    if bands is not None and a.shape[0] != bands:
        raise ValueError(f"response has {a.shape[0]} rows, expected {bands} bands")
    if not np.isfinite(a).all():
        raise ValueError("response contains non-finite entries")
    if (a < 0).any():
        raise ValueError("response entries must be nonnegative")
    dead = np.flatnonzero(~a.any(axis=0))
    if dead.size:
        raise ValueError(f"response channel {int(dead[0])} is all zero")
    if channels is not None and a.shape[1] != channels:
        raise ValueError(f"response has {a.shape[1]} channels, "
                         f"the multiband measurement has {channels}")
    return a


def unfold3(cube):
    """Unfold a cube into its (bands, rows*cols) matrix.

    Column p of the result is the spectrum of the pixel with linear index
    p = i + j*rows.
    """
    cube = check_cube(cube)
    rows, cols, bands = cube.shape
    return cube.reshape(rows * cols, bands, order="F").T


def fold3(mat, rows, cols):
    """Fold a (bands, rows*cols) matrix back into a (rows, cols, bands) cube."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    if mat.shape[1] != rows * cols:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns, expected rows*cols = {rows * cols}"
        )
    return mat.T.reshape(rows, cols, mat.shape[0], order="F")


@dataclass(frozen=True)
class PatchGrid:
    """Overlapping patch tiling of a rows x cols image.

    ``origins`` lists the top-left corner of every patch, row-major. Border
    origins are clamped, so every pixel is covered by at least one patch.
    """

    rows: int
    cols: int
    patch_rows: int
    patch_cols: int
    stride: int
    origins: tuple

    def cells(self):
        """(row_edges, col_edges, spans): the image cut at every window origin and end.

        Cell (a, b), rows row_edges[a]:row_edges[a + 1] by columns col_edges[b]:col_edges[b + 1],
        is covered by a fixed set of windows; window w is cells a0:a1 by b0:b1 = spans[w].
        The grid is frozen, so the cut is made at the first call and kept, as tuples."""
        return self._cells

    @functools.cached_property
    def _cells(self):
        m, n = self.patch_rows, self.patch_cols
        row_edges = tuple(sorted({0, self.rows}.union(*((i, i + m) for i, _ in self.origins))))
        col_edges = tuple(sorted({0, self.cols}.union(*((j, j + n) for _, j in self.origins))))
        row_at = {edge: a for a, edge in enumerate(row_edges)}
        col_at = {edge: b for b, edge in enumerate(col_edges)}
        spans = tuple((row_at[i], row_at[i + m], col_at[j], col_at[j + n]) for i, j in self.origins)
        return row_edges, col_edges, spans


def _axis_origins(extent, patch, stride):
    xs = list(range(0, extent - patch + 1, stride))
    if xs[-1] != extent - patch:
        xs.append(extent - patch)
    return xs


def make_grid(rows, cols, patch_rows, patch_cols, stride):
    """Build the overlapping patch grid covering a rows x cols image."""
    if patch_rows < 1 or patch_cols < 1:
        raise ValueError("patch dimensions must be positive")
    if patch_rows > rows or patch_cols > cols:
        raise ValueError(f"patch {patch_rows}x{patch_cols} exceeds image {rows}x{cols}")
    if stride < 1 or stride > min(patch_rows, patch_cols):
        raise ValueError(
            f"stride must satisfy 1 <= stride <= min(patch dims), got {stride}"
        )
    ii = _axis_origins(rows, patch_rows, stride)
    jj = _axis_origins(cols, patch_cols, stride)
    origins = tuple((i0, j0) for i0 in ii for j0 in jj)
    return PatchGrid(rows, cols, patch_rows, patch_cols, stride, origins)


def extract_patch(cube, origin, patch_rows, patch_cols):
    """Copy the (patch_rows, patch_cols, bands) window at ``origin``."""
    cube = check_cube(cube)
    i0, j0 = origin
    if i0 < 0 or j0 < 0 or i0 + patch_rows > cube.shape[0] or j0 + patch_cols > cube.shape[1]:
        raise ValueError(f"patch at {origin} exceeds cube bounds {cube.shape[:2]}")
    return cube[i0 : i0 + patch_rows, j0 : j0 + patch_cols, :].copy()


def aggregate_rows(maps, grid, z_rows):
    """Average per-window spectral maps over ``grid``, yielding the result by cell rows.

    ``maps`` is any iterable of one (bands, channels) map per window, in the
    order of ``grid.origins``. Each is added, in that order, to every cell of
    its window, and a cell's mean map is that sum over its coverage count.
    Once no later window covers a row of cells, this yields ``(r0, rows)``:
    rows r0:r1 of the result, pixel p being mean map @ z[p], where
    ``z_rows(r0, r1)`` returns z's rows r0:r1 as a (r1 - r0, cols, channels)
    array. Only the sums of cell rows that a window still to come covers are
    held. The order is fixed, so the result is bit-identical across runs and
    worker counts.
    """
    row_edges, col_edges, spans = grid.cells()
    if not spans:
        raise ValueError("no patches to aggregate")
    count = np.zeros((len(row_edges) - 1, len(col_edges) - 1))
    for a0, a1, b0, b1 in spans:
        count[a0:a1, b0:b1] += 1.0
    if (count == 0).any():
        holes = int(np.outer(np.diff(row_edges), np.diff(col_edges))[count == 0].sum())
        raise ValueError(f"{holes} pixels have zero patch coverage")
    # done[w]: the cell rows below it are covered by no window after window w
    done = [*itertools.accumulate((a0 for a0, *_ in spans[:0:-1]), min,
                                  initial=len(row_edges) - 1)][::-1]
    totals, shape, ready = {}, None, 0
    for fmap, (a0, a1, b0, b1), end in zip(maps, spans, done, strict=True):
        if shape is None:
            shape = np.shape(fmap)
        elif np.shape(fmap) != shape:
            raise ValueError("maps have inconsistent shapes")
        for a in range(a0, a1):
            if a not in totals:
                totals[a] = np.zeros(count.shape[1:] + shape)
            totals[a][b0:b1] += fmap
        for a in range(ready, end):
            r0, r1 = row_edges[a : a + 2]
            mean = totals.pop(a) / count[a, :, None, None]
            z = z_rows(r0, r1)
            out = np.empty((r1 - r0, grid.cols, shape[0]))
            for b, (c0, c1) in enumerate(zip(col_edges[:-1], col_edges[1:])):
                out[:, c0:c1] = z[:, c0:c1] @ mean[b].T
            yield r0, out
        ready = max(ready, end)


def aggregate(maps, grid, z):
    """:func:`aggregate_rows` of ``maps`` over the multiband cube ``z``, as one array."""
    z = check_cube(z, "multiband measurement")
    if z.shape[:2] != (grid.rows, grid.cols):
        raise ValueError(f"multiband shape {z.shape} does not match grid {grid.rows}x{grid.cols}")
    out = None
    for r0, rows in aggregate_rows(maps, grid, lambda r0, r1: z[r0:r1]):
        if out is None:
            out = np.empty((grid.rows, grid.cols, rows.shape[2]))
        out[r0 : r0 + len(rows)] = rows
    return out

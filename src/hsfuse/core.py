"""Hyperspectral cube conventions and overlapping patch machinery.

A cube is a float64 ndarray of shape (M, N, B): M spatial rows, N spatial
columns, B spectral bands. Pixels are linearised column-major over rows,

    p = i + j * M,

and ``unfold3`` / ``fold3`` convert between the cube and its B x (M*N)
band-by-pixel matrix under that ordering. Patch grids tile the image with
overlapping m x n windows; windows that would run past the border are
clamped so the last window ends exactly at the image edge.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchGrid",
    "check_cube",
    "pixel_index",
    "pixel_coords",
    "unfold3",
    "fold3",
    "default_stride",
    "make_grid",
    "extract_patch",
    "aggregate",
]


def check_cube(cube, name="cube"):
    """Coerce to a float64 (rows, cols, bands) array and validate the shape."""
    arr = np.asarray(cube, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-D (rows, cols, bands), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} has an empty dimension: {arr.shape}")
    return arr


def pixel_index(i, j, rows):
    """Linear index of pixel (i, j): p = i + j*rows."""
    return i + j * rows


def pixel_coords(p, rows):
    """Inverse of :func:`pixel_index`, returning (i, j)."""
    return p % rows, p // rows


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


def _axis_origins(extent, patch, stride):
    xs = list(range(0, extent - patch + 1, stride))
    if xs[-1] != extent - patch:
        xs.append(extent - patch)
    return xs


def default_stride(patch_rows, patch_cols):
    """Half the shorter patch side (at least 1): valid for every patch shape."""
    return max(1, min(patch_rows, patch_cols) // 2)


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


def aggregate(patches, origins, rows, cols):
    """Average overlapping patches back into a full (rows, cols, bands) cube.

    ``patches`` may be any iterable (a generator is consumed one patch at a
    time, so the patches are never held together). Values are summed into an
    accumulator together with a per-pixel coverage count, in the order the
    patches are given, then divided once. The order is fixed, so the result
    is bit-identical across runs and worker counts.
    """
    acc = count = None
    for patch, (i0, j0) in zip(patches, origins, strict=True):
        patch = check_cube(patch, "patch")
        if acc is None:
            acc = np.zeros((rows, cols, patch.shape[2]))
            count = np.zeros((rows, cols))
        elif patch.shape[2] != acc.shape[2]:
            raise ValueError("patches have inconsistent band counts")
        pr, pc = patch.shape[:2]
        if i0 < 0 or j0 < 0 or i0 + pr > rows or j0 + pc > cols:
            raise ValueError(f"patch at ({i0}, {j0}) exceeds image bounds")
        acc[i0 : i0 + pr, j0 : j0 + pc, :] += patch
        count[i0 : i0 + pr, j0 : j0 + pc] += 1.0
    if acc is None:
        raise ValueError("no patches to aggregate")
    if (count == 0).any():
        holes = int((count == 0).sum())
        raise ValueError(f"{holes} pixels have zero patch coverage")
    return acc / count[:, :, None]

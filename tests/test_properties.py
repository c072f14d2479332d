"""Property tests (hypothesis): cube unfolding and the overlapping patch grid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsfuse import core
from hsfuse.fusion import FusionConfig

dims = st.integers(min_value=1, max_value=7)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def grids(draw):
    """(rows, cols, patch_rows, patch_cols, stride); stride None means the default."""
    rows = draw(st.integers(1, 80))
    cols = draw(st.integers(1, 80))
    m = draw(st.integers(1, rows))
    n = draw(st.integers(1, cols))
    stride = draw(st.none() | st.integers(1, min(m, n)))
    return rows, cols, m, n, stride


@settings(deadline=None)
@given(st.tuples(dims, dims, dims).flatmap(lambda shape: arrays(np.float64, shape, elements=finite)))
def test_fold_unfold_roundtrip(cube):
    rows, cols, bands = cube.shape
    mat = core.unfold3(cube)
    assert mat.shape == (bands, rows * cols)
    assert np.array_equal(core.fold3(mat, rows, cols), cube)
    assert np.array_equal(core.unfold3(core.fold3(mat, rows, cols)), mat)


@settings(deadline=None)
@given(grids())
def test_grid_covers_every_pixel(spec):
    rows, cols, m, n, stride = spec
    if stride is None:
        stride = FusionConfig(patch_rows=m, patch_cols=n).stride
        assert 1 <= stride <= min(m, n)
    grid = core.make_grid(rows, cols, m, n, stride)
    count = np.zeros((rows, cols), dtype=int)
    for i0, j0 in grid.origins:
        assert 0 <= i0 <= rows - m and 0 <= j0 <= cols - n
        count[i0 : i0 + m, j0 : j0 + n] += 1
    assert count.min() >= 1
    # origins step by the stride, and the last window is clamped to the border
    ii = sorted({i0 for i0, _ in grid.origins})
    jj = sorted({j0 for _, j0 in grid.origins})
    for axis, extent, patch in ((ii, rows, m), (jj, cols, n)):
        assert axis[0] == 0 and axis[-1] == extent - patch
        assert all(0 < b - a <= stride for a, b in zip(axis, axis[1:]))
    assert len(grid.origins) == len(ii) * len(jj)

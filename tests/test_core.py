"""Cube layout, unfolding, and patch grid tests."""

import bisect

import numpy as np
import pytest

from hsfuse import core


class TestUnfoldFold:
    def test_single_pixel_spectrum_is_one_column(self):
        spectrum = np.array([1.0, -2.0, 3.5, 0.25])
        cube = spectrum.reshape(1, 1, 4)
        mat = core.unfold3(cube)
        assert mat.shape == (4, 1)
        assert np.array_equal(mat[:, 0], spectrum)

    def test_2x2x1_linearisation_order(self):
        # pixels appear in order (0,0), (1,0), (0,1), (1,1)
        cube = np.zeros((2, 2, 1))
        cube[0, 0, 0] = 1.0
        cube[1, 0, 0] = 2.0
        cube[0, 1, 0] = 3.0
        cube[1, 1, 0] = 4.0
        mat = core.unfold3(cube)
        assert mat.shape == (1, 4)
        assert np.array_equal(mat[0], [1.0, 2.0, 3.0, 4.0])

    def test_unfold_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        cube = rng.random((3, 4, 5))
        mat = core.unfold3(cube)
        expected = np.empty((5, 12))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    expected[k, i + j * 3] = cube[i, j, k]
        assert np.array_equal(mat, expected)

    def test_fold_unfold_roundtrip(self):
        rng = np.random.default_rng(8)
        cube = rng.random((4, 3, 6))
        assert np.array_equal(core.fold3(core.unfold3(cube), 4, 3), cube)

    def test_unfold_fold_roundtrip_on_matrix(self):
        rng = np.random.default_rng(9)
        mat = rng.random((6, 12))
        assert np.array_equal(core.unfold3(core.fold3(mat, 4, 3)), mat)

    def test_fold_column_gives_single_pixel(self):
        mat = np.arange(5.0).reshape(5, 1)
        cube = core.fold3(mat, 1, 1)
        assert cube.shape == (1, 1, 5)
        assert np.array_equal(cube[0, 0], mat[:, 0])

    def test_fold_zero_matrix(self):
        cube = core.fold3(np.zeros((3, 8)), 2, 4)
        assert cube.shape == (2, 4, 3)
        assert not cube.any()

    def test_fold_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            core.fold3(np.zeros((3, 7)), 2, 4)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 5, 3), (7, 2, 4)])
    def test_roundtrip_identity_shapes(self, shape):
        rng = np.random.default_rng(sum(shape))
        cube = rng.standard_normal(shape)
        assert np.array_equal(core.fold3(core.unfold3(cube), shape[0], shape[1]), cube)

    def test_check_cube_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="3-D"):
            core.unfold3(np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0)])
    def test_check_cube_rejects_empty_dimension(self, shape):
        with pytest.raises(ValueError, match="cube has an empty dimension"):
            core.check_cube(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(8,), (1, 2, 4)])
    def test_fold_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match="expected a 2-D matrix, got shape"):
            core.fold3(np.zeros(shape), 2, 4)


def brute_force_coverage(grid):
    cover = np.zeros((grid.rows, grid.cols), dtype=int)
    for i0, j0 in grid.origins:
        cover[i0 : i0 + grid.patch_rows, j0 : j0 + grid.patch_cols] += 1
    return cover


class TestMakeGrid:
    def test_exact_tiling_single_origin(self):
        grid = core.make_grid(4, 4, 4, 4, 4)
        assert grid.origins == ((0, 0),)

    def test_clamped_origins_5x5(self):
        grid = core.make_grid(5, 5, 4, 4, 4)
        assert grid.origins == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert (brute_force_coverage(grid) >= 1).all()

    def test_full_coverage_512(self):
        grid = core.make_grid(512, 512, 100, 100, 50)
        cover = brute_force_coverage(grid)
        assert (cover >= 1).all()
        # clamped border origins end exactly at the edge
        assert max(i for i, _ in grid.origins) == 412
        assert max(j for _, j in grid.origins) == 412

    @pytest.mark.parametrize("rows,cols,m,n,s", [(17, 23, 5, 7, 3), (9, 9, 4, 4, 1), (30, 11, 30, 4, 2)])
    def test_coverage_property(self, rows, cols, m, n, s):
        grid = core.make_grid(rows, cols, m, n, s)
        assert (brute_force_coverage(grid) >= 1).all()
        assert grid.origins == tuple(sorted(set(grid.origins)))

    def test_patch_larger_than_image(self):
        with pytest.raises(ValueError, match="exceeds image"):
            core.make_grid(8, 8, 9, 4, 2)

    @pytest.mark.parametrize("m,n", [(0, 4), (4, 0), (-1, 4)])
    def test_bad_patch_dimensions(self, m, n):
        with pytest.raises(ValueError, match="patch dimensions must be positive"):
            core.make_grid(8, 8, m, n, 1)

    def test_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            core.make_grid(8, 8, 4, 4, 5)
        with pytest.raises(ValueError, match="stride"):
            core.make_grid(8, 8, 4, 4, 0)


def brute_force_maps(grid, maps, z):
    """The averaged-map cube computed pixel by pixel, straight from the windows."""
    rows, cols, _ = z.shape
    out = np.zeros((rows, cols, maps[0].shape[0]))
    for i in range(rows):
        for j in range(cols):
            covering = [f for f, (i0, j0) in zip(maps, grid.origins)
                        if i0 <= i < i0 + grid.patch_rows and j0 <= j < j0 + grid.patch_cols]
            out[i, j] = np.mean(covering, axis=0) @ z[i, j]
    return out


class TestCells:
    @pytest.mark.parametrize("rows,cols,m,n,s", [(17, 23, 5, 7, 3), (9, 9, 4, 4, 1),
                                                 (30, 11, 30, 4, 2), (256, 256, 40, 40, 10)])
    def test_cells_partition_windows(self, rows, cols, m, n, s):
        grid = core.make_grid(rows, cols, m, n, s)
        row_edges, col_edges, spans = grid.cells()
        assert row_edges[0] == 0 and row_edges[-1] == rows
        assert col_edges[0] == 0 and col_edges[-1] == cols
        assert len(spans) == len(grid.origins)
        for (i0, j0), (a0, a1, b0, b1) in zip(grid.origins, spans):
            assert (row_edges[a0], row_edges[a1]) == (i0, i0 + m)
            assert (col_edges[b0], col_edges[b1]) == (j0, j0 + n)
        # every pixel of a cell is covered by the same windows
        cover = brute_force_coverage(grid)
        for r0, r1 in zip(row_edges[:-1], row_edges[1:]):
            for c0, c1 in zip(col_edges[:-1], col_edges[1:]):
                assert (cover[r0:r1, c0:c1] == cover[r0, c0]).all()

    def test_cut_once_per_grid(self):
        grid = core.make_grid(17, 23, 5, 7, 3)
        cut = grid.cells()
        assert grid.cells() is cut
        assert all(isinstance(part, tuple) for part in cut)
        # an equal grid cuts the image the same way, and the kept cut leaves equality alone
        again = core.make_grid(17, 23, 5, 7, 3)
        assert again == grid and hash(again) == hash(grid)
        assert again.cells() == cut and again.cells() is not cut

    def test_kaist_sized_grid(self):
        # 2704 x 3376 with 40 x 40 windows at stride 10: 89,780 windows, each edge found
        # by bisection in the sorted edges, as plain ints
        grid = core.make_grid(2704, 3376, 40, 40, 10)
        row_edges, col_edges, spans = grid.cells()
        assert len(spans) == 89_780
        expected = tuple((bisect.bisect_left(row_edges, i), bisect.bisect_left(row_edges, i + 40),
                          bisect.bisect_left(col_edges, j), bisect.bisect_left(col_edges, j + 40))
                         for i, j in grid.origins)
        assert spans == expected
        assert {type(a) for span in spans for a in span} == {int}


class TestExtractAggregate:
    def test_exact_tiling_identity(self):
        # identity maps on an exact tiling give back the multiband cube
        rng = np.random.default_rng(11)
        cube = rng.random((6, 8, 3))
        grid = core.make_grid(6, 8, 3, 4, 3)
        out = core.aggregate([np.eye(3) for _ in grid.origins], grid, cube)
        assert np.array_equal(out, cube)

    def test_mean_of_two_identical_patches(self):
        rng = np.random.default_rng(12)
        fmap, z = rng.random((4, 2)), rng.random((3, 3, 2))
        grid = core.PatchGrid(3, 3, 3, 3, 3, ((0, 0), (0, 0)))
        out = core.aggregate([fmap, fmap], grid, z)
        assert np.array_equal(out, core.aggregate([fmap], core.make_grid(3, 3, 3, 3, 3), z))
        np.testing.assert_allclose(out, z @ fmap.T, rtol=1e-14, atol=0)

    def test_overlapping_grid_reconstructs_source(self):
        rng = np.random.default_rng(13)
        z = rng.random((10, 13, 3))
        grid = core.make_grid(10, 13, 4, 5, 2)
        maps = [rng.random((4, 3)) for _ in grid.origins]
        out = core.aggregate(maps, grid, z)
        np.testing.assert_allclose(out, brute_force_maps(grid, maps, z), rtol=1e-13, atol=0)

    def test_extract_out_of_bounds(self):
        with pytest.raises(ValueError, match="exceeds cube bounds"):
            core.extract_patch(np.zeros((4, 4, 2)), (2, 2), 3, 3)

    def test_zero_coverage_detected(self):
        grid = core.PatchGrid(4, 4, 2, 2, 2, ((0, 0),))
        with pytest.raises(ValueError, match="12 pixels have zero patch coverage"):
            core.aggregate([np.ones((1, 1))], grid, np.ones((4, 4, 1)))

    def test_band_mismatch_detected(self):
        grid = core.PatchGrid(2, 2, 2, 2, 2, ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="inconsistent shapes"):
            core.aggregate([np.ones((1, 1)), np.ones((2, 1))], grid, np.ones((2, 2, 1)))

    def test_generator_equals_list(self):
        rng = np.random.default_rng(14)
        grid = core.make_grid(10, 13, 4, 5, 2)
        z = rng.random((10, 13, 3))
        maps = [rng.random((5, 3)) for _ in grid.origins]
        streamed = core.aggregate((f for f in maps), grid, z)
        assert np.array_equal(streamed, core.aggregate(maps, grid, z))

    def test_maps_summed_in_the_given_order(self):
        # 1e16 + 1 rounds to 1e16: summed in order the maps cancel to 0, reordered to 1/3
        grid = core.PatchGrid(2, 2, 2, 2, 2, ((0, 0),) * 3)
        maps = [np.full((1, 1), v) for v in (1e16, 1.0, -1e16)]
        z = np.ones((2, 2, 1))
        assert not core.aggregate(maps, grid, z).any()
        assert (core.aggregate([maps[0], maps[2], maps[1]], grid, z) == 1.0 / 3.0).all()

    @pytest.mark.parametrize("count", [1, 3])
    def test_length_mismatch_detected(self, count):
        maps = (np.ones((1, 1)) for _ in range(count))
        grid = core.PatchGrid(2, 2, 2, 2, 2, ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="zip"):
            core.aggregate(maps, grid, np.ones((2, 2, 1)))

    def test_grid_mismatch_detected(self):
        grid = core.PatchGrid(2, 2, 2, 2, 2, ((0, 0),))
        with pytest.raises(ValueError,
                           match="multiband shape \\(2, 3, 1\\) does not match grid 2x2"):
            core.aggregate([np.ones((1, 1))], grid, np.ones((2, 3, 1)))

    def test_no_patches(self):
        with pytest.raises(ValueError, match="no patches"):
            core.aggregate(iter(()), core.PatchGrid(2, 2, 2, 2, 2, ()), np.ones((2, 2, 1)))

"""Metric tests against scalar-loop and direct-formula oracles."""

import re
import tracemalloc

import numpy as np
import pytest

from helpers import low_rank_cube, smooth_spectra_cube, two_zone_cube
from hsfuse import _blas, cli, core, forward, metrics
from hsfuse import io as hio


def psnr_loop_oracle(ref, est, peak=1.0, cap=99.0):
    rows, cols, bands = ref.shape
    values = []
    for k in range(bands):
        total = 0.0
        for i in range(rows):
            for j in range(cols):
                d = ref[i, j, k] - est[i, j, k]
                total += d * d
        mse = total / (rows * cols)
        values.append(cap if mse == 0 else min(10.0 * np.log10(peak * peak / mse), cap))
    return float(np.mean(values))


def ssim_window_oracle(x, y, peak=1.0):
    """Direct windowed SSIM: every interior 11x11 window, no convolution code."""
    size, sigma = 11, 1.5
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    rows, cols = x.shape
    values = []
    for i in range(rows - size + 1):
        for j in range(cols - size + 1):
            px = x[i : i + size, j : j + size]
            py = y[i : i + size, j : j + size]
            mx = (w * px).sum()
            my = (w * py).sum()
            sxx = (w * px * px).sum() - mx * mx
            syy = (w * py * py).sum() - my * my
            sxy = (w * px * py).sum() - mx * my
            values.append(
                ((2 * mx * my + c1) * (2 * sxy + c2))
                / ((mx * mx + my * my + c1) * (sxx + syy + c2))
            )
    return float(np.mean(values))


def ssim_tail(moments, c1, c2):
    """Mean SSIM from the filtered local moments (mu_x, mu_y, E[xx], E[yy], E[xy])."""
    mu_x, mu_y, exx, eyy, exy = moments
    mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    num = (2.0 * mu_xy + c1) * (2.0 * (exy - mu_xy) + c2)
    den = (mu_xx + mu_yy + c1) * ((exx - mu_xx) + (eyy - mu_yy) + c2)
    return float(np.mean(num / den))


def ssim_whole_band_oracle(ref, est, peak=1.0):
    """band_ssim's arithmetic over each whole band at once, with no strips or column blocks:
    the moments filtered down by one banded Toeplitz matrix of the taps and across by another."""
    taps = metrics._gaussian_taps()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2

    def toeplitz(n):
        t = np.zeros((n, n + 10))
        for i in range(n):
            t[i, i : i + 11] = taps
        return t

    down, across = toeplitz(ref.shape[0] - 10), toeplitz(ref.shape[1] - 10).T
    out = []
    for b in range(ref.shape[2]):
        x, y = ref[:, :, b], est[:, :, b]
        out.append(ssim_tail(down @ np.stack([x, y, x * x, y * y, x * y]) @ across, c1, c2))
    return np.array(out)


def ssim_slice_filter_oracle(ref, est, peak=1.0):
    """band_ssim as it was before its filter became matrix products: the 11 taps as
    slice-multiply-add passes along each axis, over each whole band."""
    taps = metrics._gaussian_taps()
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2

    def valid(a, axis):
        n = a.shape[axis] - 10
        head = (slice(None),) * axis

        def tap(k):
            return a[head + (slice(k, k + n),)]

        out = taps[5] * tap(5)
        for k in range(5):
            out += taps[k] * (tap(k) + tap(10 - k))
        return out

    out = []
    for b in range(ref.shape[2]):
        x, y = ref[:, :, b], est[:, :, b]
        out.append(ssim_tail(valid(valid(np.stack([x, y, x * x, y * y, x * y]), 1), 2), c1, c2))
    return np.array(out)


def msa_loop_oracle(ref, est):
    rows, cols, _ = ref.shape
    angles = []
    for i in range(rows):
        for j in range(cols):
            a, b = ref[i, j], est[i, j]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na == 0 or nb == 0:
                continue
            cos = min(1.0, max(-1.0, float(a @ b) / (na * nb)))
            angles.append(np.degrees(np.arccos(cos)))
    return float(np.mean(angles))


def msa_unfolded_oracle(ref, est):
    """MSA from sums over the rows of the unfolded matrices, snapped as ``metrics.msa`` does."""
    rmat, emat = core.unfold3(ref), core.unfold3(est)
    dot = np.sum(rmat * emat, axis=0)
    rr = np.sum(rmat * rmat, axis=0)
    ee = np.sum(emat * emat, axis=0)
    valid = (rr > 0) & (ee > 0)
    num, den2 = dot[valid], rr[valid] * ee[valid]
    cos = np.where(num * num >= den2, np.sign(num), np.clip(num / np.sqrt(den2), -1.0, 1.0))
    return float(np.degrees(np.arccos(cos)).mean())


class TestPsnr:
    def test_equal_cubes_hit_cap(self):
        rng = np.random.default_rng(0)
        cube = rng.random((6, 6, 4))
        assert metrics.m_psnr(cube, cube) == 99.0

    def test_constant_offset_is_20db(self):
        rng = np.random.default_rng(1)
        ref = rng.random((8, 9, 3))
        est = ref + 0.1
        assert abs(metrics.m_psnr(ref, est) - 20.0) < 1e-10

    @pytest.mark.parametrize("seed", range(2, 6))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.random((7, 5, 4))
        est = rng.random((7, 5, 4))
        assert abs(metrics.m_psnr(ref, est) - psnr_loop_oracle(ref, est)) < 1e-10

    @pytest.mark.parametrize("peak", [1.0, None])
    def test_same_bits_in_either_layout(self, tmp_path, peak):
        # read_cube returns band-major cubes; a C-contiguous copy of the same values
        # must not sum each band in another order
        rng = np.random.default_rng(7)
        for name, cube in (("ref", rng.random((64, 48, 5))), ("est", rng.random((64, 48, 5)))):
            hio.write_cube(cube, tmp_path / f"{name}.hsc")
        ref, est = (hio.read_cube(tmp_path / f"{name}.hsc") for name in ("ref", "est"))
        assert ref[:, :, 0].flags.c_contiguous and not ref.flags.c_contiguous
        got = metrics.band_psnr(np.ascontiguousarray(ref), np.ascontiguousarray(est), peak)
        assert np.array_equal(got, metrics.band_psnr(ref, est, peak))

    def test_per_band_peak_option(self):
        rng = np.random.default_rng(6)
        ref = 3.0 * rng.random((6, 6, 2)) + 0.5
        est = ref + 0.2
        got = metrics.band_psnr(ref, est, peak=None)
        peaks = ref.max(axis=(0, 1))
        mse = ((ref - est) ** 2).mean(axis=(0, 1))
        np.testing.assert_allclose(got, 10 * np.log10(peaks**2 / mse), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.m_psnr(np.ones((4, 4, 2)), np.ones((4, 4, 3)))

    def test_bad_peak(self):
        with pytest.raises(ValueError, match="peak"):
            metrics.m_psnr(np.ones((4, 4, 2)), np.ones((4, 4, 2)), peak=0.0)

    @pytest.mark.parametrize("peak", [float("nan"), float("inf"), -1.0, 1e-300, 1e200])
    def test_hostile_peak_rejected(self, peak):
        # NaN, inf and underflowing or overflowing squares used to give nan/-inf
        cube = np.random.default_rng(3).random((12, 12, 2))
        with pytest.raises(ValueError, match="peak"):
            metrics.band_psnr(cube, 0.5 * cube, peak=peak)
        with pytest.raises(ValueError, match="peak"):
            metrics.band_ssim(cube, 0.5 * cube, peak=peak)

    def test_per_band_peak_too_small_to_square(self):
        ref = np.full((4, 4, 2), 0.5)
        ref[:, :, 1] = 1e-300
        with pytest.raises(ValueError, match="reference maximum"):
            metrics.band_psnr(ref, 0.5 * ref, peak=None)

    def test_noise_monotone(self):
        rng = np.random.default_rng(7)
        ref = rng.random((16, 16, 3))
        means = []
        for sigma in (0.01, 0.05, 0.1):
            vals = [
                metrics.m_psnr(ref, forward.add_noise(ref, sigma, seed))
                for seed in range(10)
            ]
            means.append(np.mean(vals))
        assert means[0] > means[1] > means[2]


class TestSsim:
    def test_identical_is_one(self):
        rng = np.random.default_rng(8)
        cube = rng.random((12, 12, 3))
        assert metrics.m_ssim(cube, cube) == 1.0

    def test_equal_constants_are_one(self):
        cube = np.full((11, 11, 2), 0.37)
        assert metrics.m_ssim(cube, cube.copy()) == 1.0

    # non-square and minimum-size images catch a row/column mix-up in the
    # separable filter
    @pytest.mark.parametrize(
        "seed,shape",
        [
            pytest.param(9, (32, 32), id="9"),
            pytest.param(10, (32, 32), id="10"),
            pytest.param(11, (32, 32), id="11"),
            pytest.param(12, (11, 11), id="11x11"),
            pytest.param(13, (11, 40), id="11x40"),
            pytest.param(14, (37, 13), id="37x13"),
        ],
    )
    def test_matches_direct_window_oracle(self, seed, shape):
        rng = np.random.default_rng(seed)
        ref = rng.random(shape + (2,))
        est = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0.0, 1.0)
        got = metrics.band_ssim(ref, est)
        for b in range(2):
            oracle = ssim_window_oracle(ref[:, :, b], est[:, :, b])
            assert abs(got[b] - oracle) < 1e-12

    @pytest.mark.parametrize("strip", [1, 8, 16, 24, 32, 64])
    def test_strips_within_1e14_of_whole_band(self, monkeypatch, strip):
        # 61 rows leave a short last strip for every strip height but 1, and 23 columns a
        # short last block for every width but 1. A strip's matrix products need not add in
        # the whole band's order (BLAS may take another kernel for a one-row strip), so the
        # bound is a few ulps of both the whole-band products and the old slice filter.
        monkeypatch.setattr(metrics, "_SSIM_BLOCK", strip)
        rng = np.random.default_rng(20)
        ref = rng.random((61, 23, 3))
        est = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0.0, 1.0)
        got = metrics.band_ssim(ref, est)
        assert np.abs(got - ssim_whole_band_oracle(ref, est)).max() <= 1e-14
        assert np.abs(got - ssim_slice_filter_oracle(ref, est)).max() <= 1e-14
        assert (metrics.band_ssim(ref, ref.copy()) == 1.0).all()

    @pytest.mark.parametrize("shape", [(11, 11), (37, 13), (61, 23), (11, 256)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_identical_is_one_and_symmetric(self, shape):
        # the five moments share every matrix product, so equal inputs give equal moments
        rng = np.random.default_rng(sum(shape))
        ref = rng.random(shape + (2,))
        est = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0.0, 1.0)
        assert (metrics.band_ssim(ref, ref.copy()) == 1.0).all()
        assert np.array_equal(metrics.band_ssim(ref, est), metrics.band_ssim(est, ref))

    def test_same_bits_on_one_and_two_blas_threads(self):
        lib = _blas.openblas()
        if lib is None:
            pytest.skip("numpy bundles no scipy-openblas to set the thread count of")
        rng = np.random.default_rng(21)
        ref = rng.random((75, 300, 2))  # down-pass products of 32 x 42 x 300, large enough to split
        est = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0.0, 1.0)
        before = lib.get_threads()
        try:
            got = []
            for threads in (1, 2):
                lib.set_threads(threads)
                got.append(metrics.band_ssim(ref, est))
        finally:
            lib.set_threads(before)
        assert np.array_equal(*got)

    def test_cli_report_row_is_unchanged(self, tmp_path):
        # the row the slice filter gave: the matrix-product filter moves m_ssim's last bits
        # only, below the CSV's six significant digits
        hio.write_cube(smooth_spectra_cube(41, 40, 40, 31), tmp_path / "truth.hsc")
        sim = tmp_path / "sim"
        for argv in (("simulate", "--in", tmp_path / "truth.hsc", "--mask-seed", 42,
                      "--noise-sigma", 0.01, "--noise-seed", 43, "--out-dir", sim),
                     ("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                      "--mask", sim / "mask.hsc", "--patch", 20, "--out", tmp_path / "xhat.hsc"),
                     ("eval", "--ref", tmp_path / "truth.hsc", "--est", tmp_path / "xhat.hsc",
                      "--out", tmp_path / "eval.csv")):
            assert cli.main([str(a) for a in argv]) == 0
        _, row = (tmp_path / "eval.csv").read_text().splitlines()
        assert row.rsplit(",", 1)[0] == "truth,eval,0,0,0,33.4253,0.944591,12.7387"

    @pytest.mark.parametrize("peak", [1e-100, 1e100])
    def test_peak_beyond_stability_constants(self, peak):
        # PSNR takes this peak, but c1*c2 leaves the normal range: a flat
        # window's SSIM would be 0/0 or inf/inf
        cube = np.zeros((11, 11, 1))
        assert np.isfinite(metrics.band_psnr(cube + peak * 1e-3, cube, peak=peak)).all()
        with pytest.raises(ValueError, match=re.escape(f"peak {peak}")):
            metrics.band_ssim(cube, cube, peak=peak)

    def test_image_smaller_than_window(self):
        with pytest.raises(ValueError, match="window"):
            metrics.m_ssim(np.ones((10, 12, 1)), np.ones((10, 12, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.m_ssim(np.ones((12, 12, 2)), np.ones((12, 13, 2)))


class TestMsa:
    def test_positive_scaling_is_zero(self):
        rng = np.random.default_rng(12)
        cube = rng.random((5, 6, 4)) + 0.1
        assert metrics.msa(cube, 2.0 * cube) == 0.0

    def test_per_pixel_positive_rescaling_is_zero(self):
        rng = np.random.default_rng(13)
        cube = rng.random((6, 5, 4)) + 0.1
        # powers of two keep the rescaled spectra exactly proportional
        scale = np.exp2(rng.integers(-3, 4, size=(6, 5)).astype(float))
        assert metrics.msa(cube, cube * scale[:, :, None]) == 0.0

    def test_orthogonal_spectra(self):
        rows, cols = 4, 3
        ref = np.zeros((rows, cols, 2))
        est = np.zeros((rows, cols, 2))
        ref[:, :, 0] = 1.0
        est[:, :, 1] = 1.0
        assert abs(metrics.msa(ref, est) - 90.0) < 1e-12

    @pytest.mark.parametrize("seed", range(14, 18))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.random((6, 7, 5))
        est = rng.random((6, 7, 5))
        assert abs(metrics.msa(ref, est) - msa_loop_oracle(ref, est)) < 1e-9

    def test_zero_norm_pixels_skipped_and_counted(self):
        rng = np.random.default_rng(18)
        ref = rng.random((12, 12, 3)) + 0.1
        est = ref.copy()
        ref[0, 0] = 0.0
        est[2, 3] = 0.0
        report = metrics.evaluate(ref, est)
        assert report.msa_skipped == 2
        assert report.msa == 0.0

    @pytest.mark.parametrize("layout", ["c-contiguous", "read-cube"])
    def test_bit_identical_to_unfolded_oracle(self, tmp_path, layout):
        # 31 bands: a pairwise or reordered band sum would change the last bits
        rng = np.random.default_rng(19)
        ref = rng.random((24, 20, 31))
        est = ref + 0.05 * rng.standard_normal(ref.shape)
        est[0, :3] = -ref[0, :3]
        est[1, 1] = 0.0
        if layout == "read-cube":  # band-major, as every CLI command reads its cubes
            hio.write_cube(ref, tmp_path / "ref.hsc")
            hio.write_cube(est, tmp_path / "est.hsc")
            ref, est = hio.read_cube(tmp_path / "ref.hsc"), hio.read_cube(tmp_path / "est.hsc")
        assert np.array_equal(metrics.msa(ref, est), msa_unfolded_oracle(ref, est))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            metrics.msa(np.zeros((3, 3, 2)), np.zeros((3, 3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.msa(np.ones((3, 3, 2)), np.ones((3, 4, 2)))


class TestEvaluate:
    def test_per_band_peak_switch(self):
        rng = np.random.default_rng(23)
        ref = 2.0 * rng.random((12, 12, 3)) + 0.5
        est = ref + 0.1
        report = metrics.evaluate(ref, est, peak=None)
        np.testing.assert_allclose(report.band_psnr, metrics.band_psnr(ref, est, peak=None))

    def test_no_peak_keeps_an_ssim_range_of_one(self):
        rng = np.random.default_rng(25)
        ref = 2.0 * rng.random((12, 12, 3)) + 0.5
        est = ref + 0.1 * rng.standard_normal(ref.shape)
        report = metrics.evaluate(ref, est, peak=None)
        assert np.array_equal(report.band_ssim, metrics.band_ssim(ref, est, 1.0))

    def test_no_peak_means_the_same_to_m_ssim(self):
        # band_ssim reads peak=None as evaluate does, so m_ssim takes it too
        rng = np.random.default_rng(26)
        ref = 2.0 * rng.random((12, 12, 3)) + 0.5
        est = ref + 0.1 * rng.standard_normal(ref.shape)
        assert metrics.m_ssim(ref, est, peak=None) == metrics.evaluate(ref, est, peak=None).m_ssim

    def test_allocates_at_most_one_and_a_half_cubes(self):
        # beyond its inputs only band-sized PSNR, SSIM and MSA arrays (0.66 cubes here)
        rng = np.random.default_rng(24)
        ref = rng.random((64, 64, 31))
        est = ref + 0.01 * rng.standard_normal(ref.shape)
        tracemalloc.start()
        try:
            metrics.evaluate(ref, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ref.nbytes

    def test_means_of_band_vectors(self):
        rng = np.random.default_rng(19)
        ref = rng.random((16, 16, 4))
        est = np.clip(ref + 0.05 * rng.standard_normal(ref.shape), 0, 1)
        report = metrics.evaluate(ref, est)
        assert report.m_psnr == pytest.approx(float(report.band_psnr.mean()), abs=0)
        assert report.m_ssim == pytest.approx(float(report.band_ssim.mean()), abs=0)
        assert report.band_psnr.shape == (4,)
        assert report.msa >= 0.0


class TestSingularSpectrum:
    def test_exact_rank3_cube(self):
        cube, _, _ = low_rank_cube(20, 10, 10, 8, 3)
        sigma = metrics.singular_spectrum(cube)
        assert sigma.shape == (8,)
        assert sigma[3] < 1e-10 * sigma[0]

    def test_single_pixel_norm(self):
        spectrum = np.array([3.0, 4.0])
        sigma = metrics.singular_spectrum(spectrum.reshape(1, 1, 2))
        np.testing.assert_allclose(sigma, [5.0])

    def test_patches_drop_faster_than_global(self):
        cube = two_zone_cube(21, 40, 20, 0, 20, 10, rank=3)
        grid = core.make_grid(40, 40, 10, 10, 10)
        patches = [core.extract_patch(cube, o, 10, 10) for o in grid.origins]
        patch_log = metrics.mean_log_singular_spectrum(patches)
        with np.errstate(divide="ignore"):
            global_log = np.log10(metrics.singular_spectrum(cube))
        assert patch_log[3] < global_log[3]

    def test_mean_log_of_identical_patches(self):
        cube, _, _ = low_rank_cube(22, 6, 6, 4, 4)
        got = metrics.mean_log_singular_spectrum([cube, cube])
        np.testing.assert_allclose(got, np.log10(metrics.singular_spectrum(cube)))

    def test_empty_patch_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            metrics.mean_log_singular_spectrum([])
        with pytest.raises(ValueError, match="at least one"):
            metrics.mean_log_singular_spectrum(p for p in [])

    def test_inconsistent_spectrum_lengths_rejected(self):
        # a 2x2x3 patch has 3 singular values, a 1x2x3 patch 2
        with pytest.raises(ValueError, match="inconsistent singular spectrum lengths"):
            metrics.mean_log_singular_spectrum([np.ones((2, 2, 3)), np.ones((1, 2, 3))])

    def test_generator_matches_list(self):
        cube = two_zone_cube(23, 40, 20, 0, 20, 10, rank=3)
        grid = core.make_grid(40, 40, 10, 10, 10)
        patches = [core.extract_patch(cube, o, 10, 10) for o in grid.origins]
        expected = metrics.mean_log_singular_spectrum(patches)
        got = metrics.mean_log_singular_spectrum(core.extract_patch(cube, o, 10, 10)
                                                 for o in grid.origins)
        assert np.array_equal(got, expected)

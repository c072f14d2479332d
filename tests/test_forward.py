"""Forward-model and seeded-randomness tests."""

import warnings

import numpy as np
import pytest

from hsfuse import core, forward

_MULT = 6364136223846793005
_M64 = (1 << 64) - 1


def pcg32_reference(seed, count, stream=54):
    """Scalar reference implementation of the PCG-XSH-RR 32 sequence."""
    inc = ((stream << 1) | 1) & _M64
    state = 0
    state = (state * _MULT + inc) & _M64
    state = (state + (seed & _M64)) & _M64
    state = (state * _MULT + inc) & _M64
    out = []
    for _ in range(count):
        old = state
        state = (old * _MULT + inc) & _M64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        out.append(((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF)
    return out


class TestPcg32:
    # first outputs for seed 42, stream 54 (the algorithm's canonical check values)
    KNOWN_SEED42 = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]

    def test_known_outputs_seed42(self):
        got = forward.Pcg32(42).next_u32(6)
        assert list(got) == self.KNOWN_SEED42

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31, 2**63 + 5, 2**64 - 1])
    def test_matches_scalar_reference(self, seed):
        got = forward.Pcg32(seed).next_u32(257)
        assert list(got) == pcg32_reference(seed, 257)

    def test_chunk_boundaries(self):
        # crosses the internal vectorisation chunk more than twice
        count = (1 << 15) * 2 + 123
        got = forward.Pcg32(7).next_u32(count)
        assert list(got[:100]) == pcg32_reference(7, 100)
        ref_tail = pcg32_reference(7, count)[-5:]
        assert list(got[-5:]) == ref_tail

    @pytest.mark.parametrize("count", [(1 << 15) - 1, 1 << 15, (1 << 15) + 1])
    def test_full_sequence_at_chunk_size(self, count):
        # the chunked closed form against the sequential recurrence, every value,
        # and the state it leaves behind for the next draw
        gen = forward.Pcg32(11)
        got = np.concatenate([gen.next_u32(count), gen.next_u32(3)])
        assert got.tolist() == pcg32_reference(11, count + 3)

    def test_incremental_draws_match_bulk(self):
        gen = forward.Pcg32(9)
        parts = np.concatenate([gen.next_u32(10), gen.next_u32(300), gen.next_u32(1)])
        assert list(parts) == pcg32_reference(9, 311)

    def test_negative_count_refused(self):
        gen = forward.Pcg32(5)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            gen.next_u32(-1)
        assert gen.next_u32(4).tolist() == pcg32_reference(5, 4)  # nothing was drawn

    def test_uniform_range(self):
        u = forward.Pcg32(3).uniform(10000)
        assert (u >= 0).all() and (u < 1).all()


class TestGenMask:
    def test_density_one_all_ones(self):
        mask = forward.gen_mask(4, 5, 6, 0, density=1.0)
        assert np.array_equal(mask, np.ones((4, 5, 6)))

    def test_deterministic(self):
        a = forward.gen_mask(8, 8, 4, 123, 0.5)
        b = forward.gen_mask(8, 8, 4, 123, 0.5)
        assert np.array_equal(a, b)
        c = forward.gen_mask(8, 8, 4, 124, 0.5)
        assert not np.array_equal(a, c)

    def test_ones_fraction(self):
        mask = forward.gen_mask(16, 16, 8, 7, 0.5)
        assert abs(mask.mean() - 0.5) < 0.1

    def test_traversal_order_matches_reference(self):
        # entry (i, j, k) consumes draw number (i*N + j)*B + k; a density at a draw's own
        # u = raw / 2**32 or one step above it pins the comparison to that exact u, and
        # none of these draws is a float32, so a float32 threshold would move an entry
        rows, cols, bands = 3, 4, 2
        raw = pcg32_reference(31, rows * cols * bands)
        densities = [0.25, 1.0, 2**-32, 5e-324]  # the last is subnormal
        densities += [(r + step) / 2**32 for r in raw for step in (0, 1)]
        for density in densities:
            mask = forward.gen_mask(rows, cols, bands, 31, density)
            expected = np.array(
                [1.0 if raw[(i * cols + j) * bands + k] / 2**32 < density else 0.0
                 for i in range(rows) for j in range(cols) for k in range(bands)]
            ).reshape(rows, cols, bands)
            assert np.array_equal(mask, expected), density

    @pytest.mark.parametrize("density", [0.0, -0.1, 1.00001, float("nan")])
    def test_bad_density(self, density):
        with pytest.raises(ValueError, match="density"):
            forward.gen_mask(4, 4, 2, 0, density)

    @pytest.mark.parametrize("dims", [(0, 4, 2), (4, 0, 2), (4, 4, 0)])
    def test_zero_dimension_refused(self, dims):
        with pytest.raises(ValueError, match="mask dimensions must be positive"):
            forward.gen_mask(*dims, 0)

    def test_zero_spectrum_pixels(self):
        mask = np.ones((3, 3, 2))
        mask[1, 2, :] = 0.0
        assert forward.zero_spectrum_pixels(mask) == 1
        assert forward.zero_spectrum_pixels(np.ones((2, 2, 2))) == 0


class TestResponses:
    def test_average_6_bands_3_channels(self):
        a = forward.average_response(6, 3)
        expected = np.array(
            [
                [0.5, 0.0, 0.0],
                [0.5, 0.0, 0.0],
                [0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0],
                [0.0, 0.0, 0.5],
                [0.0, 0.0, 0.5],
            ]
        )
        assert np.array_equal(a, expected)

    def test_average_uneven_groups(self):
        a = forward.average_response(7, 3)
        # each channel is a mean over its group: columns sum to 1
        np.testing.assert_allclose(a.sum(axis=0), 1.0)
        assert ((a > 0).sum(axis=0) == [2, 2, 3]).all()

    def test_single_band_first(self):
        a = forward.single_band_response(5, [0])
        assert np.array_equal(a, np.eye(5)[:, :1])

    def test_single_band_multi(self):
        a = forward.single_band_response(6, [1, 4, 5])
        assert a.shape == (6, 3)
        assert a[1, 0] == 1.0 and a[4, 1] == 1.0 and a[5, 2] == 1.0
        assert a.sum() == 3.0

    def test_single_band_bad_indices(self):
        with pytest.raises(ValueError, match="out of range"):
            forward.single_band_response(4, [4])
        with pytest.raises(ValueError, match="distinct"):
            forward.single_band_response(4, [1, 1])

    def test_single_band_needs_an_index(self):
        with pytest.raises(ValueError, match="at least one band index is required"):
            forward.single_band_response(4, [])

    @pytest.mark.parametrize("channels", [0, -1, 7])
    def test_average_channels_outside_the_bands_refused(self, channels):
        with pytest.raises(ValueError, match=f"channels must be in \\[1, bands\\], got {channels} "
                           "for 6 bands"):
            forward.average_response(6, channels)

    def test_validate_rejects_zero_column(self):
        a = np.ones((4, 2))
        a[:, 1] = 0.0
        with pytest.raises(ValueError, match="all zero"):
            core.validate_response(a)

    def test_validate_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            core.validate_response(np.array([[1.0], [-0.5]]))

    def test_spec_parsing(self):
        assert forward.response_from_spec("average", 6).shape == (6, 3)
        assert forward.response_from_spec("average:2", 6).shape == (6, 2)
        a = forward.response_from_spec("single:0,3", 6)
        assert a[0, 0] == 1.0 and a[3, 1] == 1.0
        with pytest.raises(ValueError, match="unknown response spec"):
            forward.response_from_spec("nope", 6)
        with pytest.raises(ValueError, match="indices"):
            forward.response_from_spec("single:", 6)

    @pytest.mark.parametrize("spec", ["average:x", "single:a,1", "single:1,,2"])
    def test_unparsable_spec_named(self, spec):
        with pytest.raises(ValueError, match=f"^bad response spec '{spec}': invalid literal"):
            forward.response_from_spec(spec, 6)

    def test_file_spec_needs_a_path(self):
        with pytest.raises(ValueError, match="file response needs a path"):
            forward.response_from_spec("file:", 6)

    def test_file_spec_roundtrip(self, tmp_path):
        from hsfuse import io as hio

        rng = np.random.default_rng(33)
        a = rng.random((5, 2))
        path = tmp_path / "resp.txt"
        hio.save_response(a, path)
        assert np.array_equal(forward.response_from_spec(f"file:{path}", 5), a)
        with pytest.raises(ValueError, match="rows"):
            forward.response_from_spec(f"file:{path}", 7)


class TestSimulateCassi:
    def test_all_ones(self):
        y = forward.simulate_cassi(np.ones((2, 2, 3)), np.ones((2, 2, 3)))
        assert np.array_equal(y, np.full((2, 2), 3.0))

    def test_zero_mask(self):
        rng = np.random.default_rng(1)
        y = forward.simulate_cassi(rng.random((3, 3, 4)), np.zeros((3, 3, 4)))
        assert not y.any()

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        cube = rng.random((4, 4, 5))
        mask = forward.gen_mask(4, 4, 5, 9, 0.5)
        y = forward.simulate_cassi(cube, mask)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for k in range(5):
                    expected[i, j] += cube[i, j, k] * mask[i, j, k]
        assert np.allclose(y, expected, rtol=0, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x1, x2 = rng.random((5, 6, 4)), rng.random((5, 6, 4))
        mask = forward.gen_mask(5, 6, 4, 4, 0.5)
        a, b = 1.7, -0.3
        lhs = forward.simulate_cassi(a * x1 + b * x2, mask)
        rhs = a * forward.simulate_cassi(x1, mask) + b * forward.simulate_cassi(x2, mask)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            forward.simulate_cassi(np.ones((2, 2, 3)), np.ones((2, 2, 4)))


class TestSimulateMultiband:
    def test_identity_response(self):
        rng = np.random.default_rng(4)
        cube = rng.random((3, 4, 5))
        z = forward.simulate_multiband(cube, np.eye(5))
        assert np.array_equal(z, cube)

    def test_all_ones_column_sums_bands(self):
        rng = np.random.default_rng(5)
        cube = rng.random((3, 4, 5))
        z = forward.simulate_multiband(cube, np.ones((5, 1)))
        np.testing.assert_allclose(z[:, :, 0], cube.sum(axis=2), rtol=1e-15)

    def test_matches_per_pixel_matvec(self):
        rng = np.random.default_rng(6)
        cube = rng.random((4, 3, 5))
        a = rng.random((5, 3))
        z = forward.simulate_multiband(cube, a)
        for i in range(4):
            for j in range(3):
                expected = a.T @ cube[i, j]
                assert np.linalg.norm(z[i, j] - expected) < 1e-14 * np.linalg.norm(expected)

    def test_commutes_with_factorisation(self):
        # Z built from a factored cube equals (A^T E) W on the unfolding
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((6, 2))
        coeff = rng.standard_normal((2, 12))
        a = rng.random((6, 3))
        cube = core.fold3(basis @ coeff, 3, 4)
        z = forward.simulate_multiband(cube, a)
        lhs = core.unfold3(z)
        rhs = (a.T @ basis) @ coeff
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x1, x2 = rng.random((4, 4, 6)), rng.random((4, 4, 6))
        a = rng.random((6, 3))
        lhs = forward.simulate_multiband(2.0 * x1 - 0.5 * x2, a)
        rhs = 2.0 * forward.simulate_multiband(x1, a) - 0.5 * forward.simulate_multiband(x2, a)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_band_mismatch(self):
        with pytest.raises(ValueError, match="bands"):
            forward.simulate_multiband(np.ones((2, 2, 3)), np.ones((4, 2)))

    @pytest.mark.parametrize(
        "response,message",
        [
            (np.ones(3), "must be a \\(bands, channels\\) matrix"),
            (np.array([[1.0, np.nan], [1.0, 1.0], [1.0, 1.0]]), "non-finite"),
            (np.array([[1.0, 1.0], [-0.5, 1.0], [1.0, 1.0]]), "nonnegative"),
            (np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), "channel 1 is all zero"),
        ],
        ids=["not-2d", "nan", "negative", "zero-channel"],
    )
    def test_invalid_response_refused(self, response, message):
        # a NaN response used to give a NaN z; validate_response now guards every consumer
        with pytest.raises(ValueError, match=message):
            forward.simulate_multiband(np.ones((2, 2, 3)), response)


class TestAddNoise:
    def test_sigma_zero_identity(self):
        rng = np.random.default_rng(9)
        meas = rng.random((5, 5))
        out = forward.add_noise(meas, 0.0, 3)
        assert np.array_equal(out, meas)
        assert out is not meas

    def test_deterministic(self):
        meas = np.zeros((20, 20))
        a = forward.add_noise(meas, 0.5, 11)
        b = forward.add_noise(meas, 0.5, 11)
        assert np.array_equal(a, b)
        c = forward.add_noise(meas, 0.5, 12)
        assert not np.array_equal(a, c)

    def test_sample_statistics(self):
        out = forward.add_noise(np.zeros(10**6), 0.1, 5)
        assert 0.099 <= out.std() <= 0.101
        assert abs(out.mean()) < 1e-3

    def test_negative_sigma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            forward.add_noise(np.zeros((2, 2)), -0.1, 0)

    def test_overflowing_noise_refused(self):
        # 1e308 times a draw beyond 1.8 exceeds float64's range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="noise of sigma 1e\\+308 overflows float64"):
                forward.add_noise(np.ones((8, 8)), 1e308, 0)

    def test_non_finite_measurement_passes_through(self):
        out = forward.add_noise(np.array([np.nan, np.inf, 1.0]), 0.5, 0)
        assert np.isnan(out[0]) and out[1] == np.inf and np.isfinite(out[2])

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma(self, sigma):
        # nan used to give an all-NaN array and inf an array of +-inf
        with pytest.raises(ValueError, match="finite and nonnegative"):
            forward.add_noise(np.zeros((2, 2)), sigma, 0)

"""Fusion pipeline tests: coefficients, structured systems, global and patch solves."""

import concurrent.futures
import ctypes
import dataclasses
import os
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from helpers import low_rank_cube, rel_err, smooth_spectra_cube, two_zone_cube
from hsfuse import _blas, core, forward, fusion, metrics, numeric
from hsfuse.fusion import FusionConfig
from hsfuse.numeric import RankDeficiencyError


def random_instance(seed, rows=6, cols=5, bands=4, rank=2):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((bands, rank))
    coeff = rng.standard_normal((rank, rows * cols))
    mask = forward.gen_mask(rows, cols, bands, seed, 0.5)
    return basis, coeff, mask


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the pools pfuse asks for; the stand-in pool maps on the calling
    thread, so no thread is ever started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def four_patches():
    """(y, z, mask, config, response) of a 10x10x4 scene cut into four 5x5 patches,
    with the improved solve: every patch keeps its own statistics' answer."""
    rng = np.random.default_rng(55)
    cube, _, _ = low_rank_cube(55, 10, 10, 4, 2)
    mask = forward.gen_mask(10, 10, 4, 56, 0.5)
    response = rng.random((4, 2))
    y = forward.simulate_cassi(cube, mask)
    z = forward.simulate_multiband(cube, response)
    config = FusionConfig(rank=2, patch_rows=5, patch_cols=5, stride=5)
    return y, z, mask, config, response


class TestEstimateCoefficients:
    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(3)
        w = rng.standard_normal(24)
        z = core.fold3(np.outer(f, w), 4, 6)
        est = fusion.estimate_coefficients(z, 1)
        unit = w / np.linalg.norm(w)
        assert est.rank == 1
        assert abs(abs(est.coefficients[0] @ unit) - 1.0) < 1e-12

    def test_rows_are_orthonormal(self):
        rng = np.random.default_rng(1)
        z = rng.random((5, 7, 3))
        est = fusion.estimate_coefficients(z, 3)
        gram = est.coefficients @ est.coefficients.T
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_row_space_matches_svd_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.random((6, 6, 3))
        est = fusion.estimate_coefficients(z, 2)
        proj = est.coefficients.T @ est.coefficients
        _, _, vt = np.linalg.svd(core.unfold3(z), full_matrices=False)
        proj_oracle = vt[:2].T @ vt[:2]
        assert np.abs(proj - proj_oracle).max() < 1e-9

    def test_rank_shrinks_on_degenerate_data(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(3)
        w = rng.standard_normal(30)
        z = core.fold3(np.outer(f, w), 5, 6)  # exact rank 1
        est = fusion.estimate_coefficients(z, 3)
        assert est.rank == 1
        assert est.coefficients.shape == (1, 30)

    def test_rank_above_channels_rejected(self):
        with pytest.raises(ValueError, match="channel count"):
            fusion.estimate_coefficients(np.ones((4, 4, 2)), 3)

    def test_zero_measurement_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            fusion.estimate_coefficients(np.zeros((4, 4, 2)), 1)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rank_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"rank must be >= 1, got {k}"):
            fusion.estimate_coefficients(np.ones((4, 4, 2)), k)


class TestAssemblePhiW:
    def test_unit_coefficients_give_mask_rows(self):
        mask = forward.gen_mask(3, 4, 5, 1, 0.5)
        w = np.ones((1, 12))
        phi = fusion.assemble_phi_w(mask, w)
        assert phi.shape == (12, 5)
        assert np.array_equal(phi, mask.reshape(12, 5, order="F"))

    def test_unit_mask_gives_repeated_coefficients(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 6))
        phi = fusion.assemble_phi_w(np.ones((2, 3, 4)), w)
        for p in range(6):
            assert np.array_equal(phi[p], np.kron(w[:, p], np.ones(4)))

    def test_rows_are_kronecker_products(self):
        basis, coeff, mask = random_instance(5)
        phi = fusion.assemble_phi_w(mask, coeff)
        mask_px = mask.reshape(30, 4, order="F")
        for p in range(30):
            assert np.array_equal(phi[p], np.kron(coeff[:, p], mask_px[p]))

    @pytest.mark.parametrize("seed", range(6, 12))
    def test_operator_equivalence(self, seed):
        basis, coeff, mask = random_instance(seed)
        cube = core.fold3(basis @ coeff, 6, 5)
        y = forward.simulate_cassi(cube, mask)
        phi = fusion.assemble_phi_w(mask, coeff)
        lhs = phi @ basis.reshape(-1, order="F")
        rhs = y.ravel(order="F")
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_layouts_give_identical_bytes(self):
        # the sensing matrix reads its own pixel-major copy of the mask, so no layout of the
        # mask or the coefficients moves a bit
        _, coeff, mask = random_instance(12)
        wide = forward.gen_mask(6, 9, 4, 13, 0.5)
        wide[:, 2:7] = mask
        band_major = np.ascontiguousarray(mask.transpose(2, 0, 1)).transpose(1, 2, 0)
        masks = {"C": mask, "F": np.asfortranarray(mask), "band-major": band_major,
                 "column-sliced": wide[:, 2:7]}
        assert mask.flags.c_contiguous and masks["F"].flags.f_contiguous
        assert not any(masks[name].flags.forc for name in ("band-major", "column-sliced"))
        want = fusion.assemble_phi_w(mask, coeff).tobytes()
        for name, layout in masks.items():
            for w in (np.ascontiguousarray(coeff), np.asfortranarray(coeff)):
                assert fusion.assemble_phi_w(layout, w).tobytes() == want, name

    def test_pixel_count_mismatch(self):
        with pytest.raises(ValueError, match="pixels"):
            fusion.assemble_phi_w(np.ones((2, 2, 3)), np.ones((1, 5)))

    def test_one_dimensional_coefficients_rejected(self):
        with pytest.raises(ValueError, match="coefficients must be 2-D, got shape \\(4,\\)"):
            fusion.assemble_phi_w(np.ones((2, 2, 3)), np.ones(4))


class TestAssemblePhiRgb:
    def test_all_ones_scalar_case(self):
        phi = fusion.assemble_phi_rgb(np.ones((4, 1)), np.ones((1, 6)))
        assert phi.shape == (6, 4)
        assert np.array_equal(phi, np.ones((6, 4)))

    def test_identity_response_reproduces_factored_cube(self):
        rng = np.random.default_rng(13)
        bands = 4
        basis = rng.standard_normal((bands, 2))
        coeff = rng.standard_normal((2, 15))
        cube = core.fold3(basis @ coeff, 5, 3)
        z = forward.simulate_multiband(cube, np.eye(bands))
        phi = fusion.assemble_phi_rgb(np.eye(bands), coeff)
        lhs = phi @ basis.reshape(-1, order="F")
        assert np.linalg.norm(lhs - z.ravel(order="F")) < 1e-12 * np.linalg.norm(lhs)

    @pytest.mark.parametrize("seed", range(14, 19))
    def test_operator_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        basis, coeff, _ = random_instance(seed)
        response = rng.random((4, 3))
        cube = core.fold3(basis @ coeff, 6, 5)
        z = forward.simulate_multiband(cube, response)
        phi = fusion.assemble_phi_rgb(response, coeff)
        lhs = phi @ basis.reshape(-1, order="F")
        rhs = z.ravel(order="F")
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_one_dimensional_coefficients_rejected(self):
        with pytest.raises(ValueError, match="coefficients must be 2-D, got shape \\(6,\\)"):
            fusion.assemble_phi_rgb(np.ones((4, 1)), np.ones(6))


class TestSolveBasis:
    def test_forward_then_invert(self):
        rng = np.random.default_rng(20)
        rows, cols, bands, k = 8, 7, 5, 2
        basis = rng.standard_normal((bands, k))
        coeff = np.linalg.qr(rng.standard_normal((rows * cols, k)))[0].T
        mask = forward.gen_mask(rows, cols, bands, 21, 0.5)
        y = forward.simulate_cassi(core.fold3(basis @ coeff, rows, cols), mask)
        solved = fusion.solve_basis(y, mask, coeff)
        truth = basis @ coeff
        assert np.linalg.norm(solved @ coeff - truth) < 1e-8 * np.linalg.norm(truth)

    def test_improved_equals_base_on_consistent_data(self):
        rng = np.random.default_rng(22)
        rows, cols, bands, k = 9, 9, 6, 3
        basis = rng.standard_normal((bands, k))
        coeff = np.linalg.qr(rng.standard_normal((rows * cols, k)))[0].T
        cube = core.fold3(basis @ coeff, rows, cols)
        mask = forward.gen_mask(rows, cols, bands, 23, 0.5)
        response = rng.random((bands, 3))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        base = fusion.solve_basis(y, mask, coeff)
        joint = fusion.solve_basis(y, mask, coeff, z=z, response=response)
        lhs, rhs = joint @ coeff, base @ coeff
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_improved_has_smaller_stacked_residual_on_noisy_data(self):
        rng = np.random.default_rng(24)
        rows, cols, bands, k = 10, 10, 6, 2
        basis = rng.standard_normal((bands, k))
        coeff = np.linalg.qr(rng.standard_normal((rows * cols, k)))[0].T
        cube = core.fold3(basis @ coeff, rows, cols)
        mask = forward.gen_mask(rows, cols, bands, 25, 0.5)
        response = rng.random((bands, 3))
        y = forward.add_noise(forward.simulate_cassi(cube, mask), 0.02, 1)
        z = forward.add_noise(forward.simulate_multiband(cube, response), 0.02, 2)
        base = fusion.solve_basis(y, mask, coeff)
        joint = fusion.solve_basis(y, mask, coeff, z=z, response=response)
        phi = np.vstack(
            [fusion.assemble_phi_w(mask, coeff), fusion.assemble_phi_rgb(response, coeff)]
        )
        stacked = np.concatenate([y.ravel(order="F"), z.ravel(order="F")])
        res_base = np.linalg.norm(stacked - phi @ base.reshape(-1, order="F"))
        res_joint = np.linalg.norm(stacked - phi @ joint.reshape(-1, order="F"))
        assert res_joint <= res_base + 1e-12 * res_base

    def test_improved_requires_side_data(self):
        # a response selects the joint solve, which needs the multiband measurement too
        basis, coeff, mask = random_instance(26)
        y = np.zeros((6, 5))
        with pytest.raises(ValueError, match="the joint solve requires the multiband measurement"):
            fusion.solve_basis(y, mask, coeff, response=np.ones((4, 3)))

    @pytest.mark.parametrize("shape", [(6, 4), (5, 5), (6, 5, 1)])
    def test_coded_image_shape_mismatch(self, shape):
        basis, coeff, mask = random_instance(28)
        with pytest.raises(ValueError, match=f"coded image shape \\({shape[0]}, {shape[1]}"
                           ".* does not match mask \\(6, 5\\)"):
            fusion.solve_basis(np.zeros(shape), mask, coeff)

    def test_multiband_shape_mismatch(self):
        basis, coeff, mask = random_instance(29)
        with pytest.raises(ValueError, match="multiband shape \\(6, 4, 3\\) does not match "
                           "image \\(6, 5\\)"):
            fusion.solve_basis(np.zeros((6, 5)), mask, coeff, z=np.ones((6, 4, 3)),
                               response=np.ones((4, 3)))

    def test_multiband_without_response_refused(self):
        # z without a response used to run the base solve and ignore z
        basis, coeff, mask = random_instance(27)
        z = forward.simulate_multiband(core.fold3(basis @ coeff, 6, 5), np.ones((4, 3)))
        y = forward.simulate_cassi(core.fold3(basis @ coeff, 6, 5), mask)
        with pytest.raises(ValueError, match="measurement and the response"):
            fusion.solve_basis(y, mask, coeff, z=z)


class TestFuse:
    def exact_instance(self, seed, rows=16, cols=16, bands=8, rank=3):
        rng = np.random.default_rng(seed)
        cube, _, _ = low_rank_cube(seed, rows, cols, bands, rank)
        response = rng.random((bands, 3))
        mask = forward.gen_mask(rows, cols, bands, seed + 1, 0.5)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        return cube, y, z, mask, response

    @pytest.mark.parametrize("seed", range(30, 35))
    def test_exact_recovery(self, seed):
        cube, y, z, mask, _ = self.exact_instance(seed)
        xhat = fusion.fuse(y, z, mask, 3)
        assert rel_err(xhat, cube) < 1e-8

    def test_zero_scene_gives_zero(self):
        xhat = fusion.fuse(np.zeros((6, 6)), np.zeros((6, 6, 3)), np.ones((6, 6, 2)), 2)
        assert not xhat.any()

    def test_zero_multiband_with_signal_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            fusion.fuse(np.ones((6, 6)), np.zeros((6, 6, 3)), np.ones((6, 6, 2)), 2)

    def test_gauge_invariance_sign_flip(self):
        cube, y, z, mask, _ = self.exact_instance(36)
        est = fusion.estimate_coefficients(z, 3)
        flipped = est.coefficients.copy()
        flipped[0] *= -1.0
        base = fusion.solve_basis(y, mask, est.coefficients) @ est.coefficients
        other = fusion.solve_basis(y, mask, flipped) @ flipped
        assert np.linalg.norm(base - other) < 1e-10 * np.linalg.norm(base)

    def test_gauge_invariance_rotation(self):
        cube, y, z, mask, _ = self.exact_instance(37)
        est = fusion.estimate_coefficients(z, 3)
        q = np.linalg.qr(np.random.default_rng(38).standard_normal((3, 3)))[0]
        rotated = q.T @ est.coefficients
        base = fusion.solve_basis(y, mask, est.coefficients) @ est.coefficients
        other = fusion.solve_basis(y, mask, rotated) @ rotated
        assert np.linalg.norm(base - other) < 1e-10 * np.linalg.norm(base)

    def test_area_constraint(self):
        # 4x4 image with rank*bands = 16 is not overdetermined
        with pytest.raises(ValueError, match="image area 16 must exceed rank\\*bands = 16"):
            fusion.fuse(np.ones((4, 4)), np.ones((4, 4, 3)), np.ones((4, 4, 8)), 2)

    def test_rank_above_channels(self):
        with pytest.raises(ValueError, match="channel count"):
            fusion.fuse(np.ones((6, 6)), np.ones((6, 6, 2)), np.ones((6, 6, 2)), 3)


class TestPfuse:
    def test_single_patch_degenerates_to_fuse(self):
        rng = np.random.default_rng(40)
        cube, _, _ = low_rank_cube(40, 12, 10, 6, 3)
        mask = forward.gen_mask(12, 10, 6, 41, 0.5)
        response = rng.random((6, 3))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=3, patch_rows=12, patch_cols=10, stride=10)
        assert np.array_equal(
            fusion.pfuse(y, z, mask, config), fusion.fuse(y, z, mask, 3)
        )

    def test_exact_tiling_matches_fuse_on_global_low_rank(self):
        rng = np.random.default_rng(42)
        cube, _, _ = low_rank_cube(42, 12, 12, 4, 3)
        mask = forward.gen_mask(12, 12, 4, 43, 0.5)
        response = rng.random((4, 3))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=3, patch_rows=6, patch_cols=6, stride=6)
        xp = fusion.pfuse(y, z, mask, config)
        xg = fusion.fuse(y, z, mask, 3)
        assert np.linalg.norm(xp - xg) < 1e-8 * np.linalg.norm(xg)

    def test_patch_beats_global_on_piecewise_scene(self):
        cube = two_zone_cube(44, 60, 30, 0, 30, 12, rank=3)
        mask = forward.gen_mask(60, 60, 12, 45, 0.5)
        response = forward.average_response(12, 3)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=3, patch_rows=15, patch_cols=15, stride=15)
        psnr_patch = metrics.m_psnr(cube, fusion.pfuse(y, z, mask, config))
        psnr_global = metrics.m_psnr(cube, fusion.fuse(y, z, mask, 3))
        assert psnr_patch > psnr_global + 3.0

    def test_zero_patches_reconstruct_as_zero(self):
        # middle band of columns is identically zero; those patches skip the solve
        cube = two_zone_cube(46, 24, 8, 8, 8, 6, rank=2)
        mask = forward.gen_mask(24, 24, 6, 47, 0.5)
        response = forward.average_response(6, 2)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=2, patch_rows=8, patch_cols=8, stride=8)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, stats=stats)
        assert rel_err(xhat, cube) < 1e-8
        zero_patches = [s for s in stats if s.rank == 0]
        assert zero_patches and all(s.coefficients is None for s in zero_patches)

    def test_rectangular_patches(self):
        rng = np.random.default_rng(53)
        cube, _, _ = low_rank_cube(53, 18, 14, 5, 3)
        mask = forward.gen_mask(18, 14, 5, 54, 0.5)
        response = rng.random((5, 3))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=3, patch_rows=9, patch_cols=7, stride=4)
        xhat = fusion.pfuse(y, z, mask, config)
        assert rel_err(xhat, cube) < 1e-8

    def test_workers_do_not_change_output(self):
        rng = np.random.default_rng(48)
        cube, _, _ = low_rank_cube(48, 20, 20, 5, 3)
        mask = forward.gen_mask(20, 20, 5, 49, 0.5)
        response = rng.random((5, 3))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        serial = fusion.pfuse(y, z, mask, config, workers=1)
        threaded = fusion.pfuse(y, z, mask, config, workers=4)
        assert np.array_equal(serial, threaded)

    def test_coded_image_must_be_2d(self):
        config = FusionConfig(rank=1, patch_rows=4, patch_cols=4, stride=4)
        with pytest.raises(ValueError, match="coded image must be 2-D, got shape \\(8, 8, 1\\)"):
            fusion.pfuse(np.zeros((8, 8, 1)), np.ones((8, 8, 3)), np.ones((8, 8, 2)), config)

    def test_patch_area_constraint_message(self):
        config = FusionConfig(rank=3, patch_rows=4, patch_cols=4, stride=4)
        with pytest.raises(ValueError, match="m\\*n = 16 must exceed rank\\*bands = 18"):
            fusion.pfuse(np.zeros((8, 8)), np.zeros((8, 8, 3)), np.ones((8, 8, 6)), config)

    def test_stats_records_per_patch(self):
        rng = np.random.default_rng(50)
        cube, _, _ = low_rank_cube(50, 10, 10, 4, 2)
        mask = forward.gen_mask(10, 10, 4, 51, 0.5)
        response = rng.random((4, 2))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=2, patch_rows=5, patch_cols=5, stride=5)
        stats = []
        fusion.pfuse(y, z, mask, config, stats=stats)
        assert [s.origin for s in stats] == [(0, 0), (0, 5), (5, 0), (5, 5)]
        for s in stats:
            assert s.basis.shape == (4, s.rank)
            assert s.residual >= 0.0
            assert s.solver == "cholesky"

    def test_stats_record_solver(self):
        cube = two_zone_cube(57, 16, 8, 8, 0, 6, rank=2)
        mask = forward.gen_mask(16, 16, 6, 58, 0.5)
        response = forward.average_response(6, 2)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=2, patch_rows=8, patch_cols=8, stride=8)
        base, joint = [], []
        fusion.pfuse(y, z, mask, config, stats=base)
        fusion.pfuse(y, z, mask, FusionConfig(2, 8, 8, 8),
                     response=response, stats=joint)
        # right-hand patches are all zero and skip the solve
        assert [s.solver for s in base] == ["cholesky", None, "cholesky", None]
        assert [s.solver for s in joint] == ["cholesky", None, "cholesky", None]

    def test_workers_capped_at_patch_count(self, monkeypatch, pool_sizes, four_patches):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        y, z, mask, config, response = four_patches
        assert np.array_equal(fusion.pfuse(y, z, mask, config, workers=64, response=response),
                              fusion.pfuse(y, z, mask, config, workers=1, response=response))
        assert pool_sizes == [4]
        # one window: solved without a pool
        fusion.fuse(y, z, mask, 2, response=response)
        assert pool_sizes == [4]

    def test_cell_path_starts_no_pool(self, monkeypatch, pool_sizes, four_patches):
        # base windows are solved on the calling thread; the pool makes only joint
        # windows' statistics, so a base run starts none, even for a declined window
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        y, z, mask, config, _ = four_patches
        config = FusionConfig(rank=2, patch_rows=5, patch_cols=5, stride=5)
        stats = []
        fusion.pfuse(y, z, mask, config, workers=64, stats=stats)
        assert [s.solver for s in stats] == ["cholesky"] * 4
        # a dead corner: its window's Gram is zero, so the cell guards decline it
        y, z, mask = (part.copy() for part in noisy_instance(95, 16, 16))
        for part in (y, z, mask):
            part[8:, 8:] = 0.0
        stats = []
        fusion.pfuse(y, z, mask, FusionConfig(3, 8, 8, 4), workers=64, stats=stats)
        assert [s.origin for s in stats if s.solver is None] == [(8, 8)]
        assert pool_sizes == []

    def test_declined_joint_window_solved_on_the_calling_thread(self, monkeypatch):
        # the pool makes joint windows' statistics; a window they leave to the
        # per-window path is solved where the answers are drawn
        def recording(*args):
            calls.append((args[-1], threading.current_thread() is threading.main_thread()))
            return fuse_block(*args)

        calls, fuse_block = [], fusion._fuse_block
        monkeypatch.setattr(fusion, "_fuse_block", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        y, z, mask = (part.copy() for part in noisy_instance(95, 16, 16))
        for part in (y, z, mask):
            part[8:, 8:] = 0.0
        config, response = FusionConfig(3, 8, 8, 4), forward.average_response(6, 3)
        xhat = fusion.pfuse(y, z, mask, config, workers=2, response=response)
        assert calls == [((8, 8), True)]
        assert not xhat[8:, 8:].any()

    @pytest.mark.parametrize("cpus,sizes", [(2, [2]), (1, []), (None, [])])
    def test_workers_capped_at_cpu_count(self, monkeypatch, pool_sizes, four_patches,
                                         cpus, sizes):
        # --threads 4096 must not start a thread per patch
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        y, z, mask, config, response = four_patches
        assert np.array_equal(fusion.pfuse(y, z, mask, config, workers=4096, response=response),
                              fusion.pfuse(y, z, mask, config, workers=1, response=response))
        assert pool_sizes == sizes

    @pytest.mark.parametrize("cpus,sizes", [(64, [4]), (2, [2]), (1, []), (None, [])])
    def test_workers_none_is_one_per_cpu(self, monkeypatch, pool_sizes, four_patches,
                                         cpus, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        y, z, mask, config, response = four_patches
        assert np.array_equal(fusion.pfuse(y, z, mask, config, workers=None, response=response),
                              fusion.pfuse(y, z, mask, config, response=response))
        assert pool_sizes == sizes

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
    def test_bad_workers_refused(self, pool_sizes, four_patches, workers):
        # 0 and -3 used to run serially, and 2.5 asked for a pool of 2
        y, z, mask, config, response = four_patches
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            fusion.pfuse(y, z, mask, config, workers=workers, response=response)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["base", "declined", "joint"])
    def test_stats_do_not_change_the_bytes(self, monkeypatch, case, workers):
        # observing a run never changes its answer, whichever path and worker count made it
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        y, z, mask = (part.copy() for part in noisy_instance(95, 16, 16))
        if case == "declined":
            # a dead corner: its window's Gram is zero, so the cell guards decline it and
            # the per-window path reconstructs it as zero
            for part in (y, z, mask):
                part[8:, 8:] = 0.0
        response = forward.average_response(6, 3) if case == "joint" else None
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        stats = []
        observed = fusion.pfuse(y, z, mask, config, workers=workers, response=response,
                                stats=stats)
        plain = fusion.pfuse(y, z, mask, config, workers=workers, response=response)
        assert observed.tobytes() == plain.tobytes()
        assert [s.origin for s in stats] == list(core.make_grid(16, 16, 8, 8, 4).origins)
        assert [s.origin for s in stats if s.solver is None] == \
            ([(8, 8)] if case == "declined" else [])

    def test_rank_deficient_patch_names_origin(self):
        # an all-zero mask makes every per-patch system rank deficient
        rng = np.random.default_rng(52)
        z = rng.random((8, 8, 3))
        y = rng.random((8, 8))
        config = FusionConfig(rank=1, patch_rows=8, patch_cols=8, stride=8)
        with pytest.raises(RankDeficiencyError, match="origin \\(0, 0\\)"):
            fusion.pfuse(y, z, np.zeros((8, 8, 4)), config)


class TestPfuseRows:
    """pfuse_rows: pfuse's result by rows, one row of windows at a time."""

    @staticmethod
    def tall():
        """A 20x10x4 scene cut into four rows of two 5x5 windows, stride 5."""
        rng = np.random.default_rng(60)
        cube, _, _ = low_rank_cube(60, 20, 10, 4, 2)
        mask = forward.gen_mask(20, 10, 4, 61, 0.5)
        a = rng.random((4, 2))
        y, z = forward.simulate_cassi(cube, mask), forward.simulate_multiband(cube, a)
        return y, z, mask, FusionConfig(rank=2, patch_rows=5, patch_cols=5, stride=5), a

    @pytest.mark.parametrize("joint", [False, True], ids=["base", "joint"])
    def test_rows_are_pfuse_by_cell_rows(self, joint):
        y, z, mask, config, a = self.tall()
        config = FusionConfig(rank=2, patch_rows=6, patch_cols=5, stride=4)  # rows 0, 4, 8, 12, 14
        response = a if joint else None
        blocks = list(fusion.pfuse_rows(y[:, :, None], z, mask, config, response=response))
        cut = core.make_grid(20, 10, 6, 5, 4).cells()[0]
        assert [r0 for r0, _ in blocks] == list(cut[:-1])
        assert [len(rows) for _, rows in blocks] == list(np.diff(cut))
        whole = fusion.pfuse(y, z, mask, config, response=response)
        assert np.array_equal(np.concatenate([rows for _, rows in blocks]), whole)

    def test_arguments_checked_before_returning(self):
        y, z, mask, config, a = self.tall()
        with pytest.raises(ValueError, match="coded measurement must have 1 band, got 2"):
            fusion.pfuse_rows(np.stack([y, y], axis=2), z, mask, config)
        with pytest.raises(ValueError, match="response has 3 rows, expected 4 bands"):
            fusion.pfuse_rows(y[:, :, None], z, mask, config, response=a[:3])
        with pytest.raises(ValueError, match="must be 3-D, got shapes \\(20, 10\\), "):
            fusion.pfuse_rows(y, z, mask, config)

    @pytest.mark.parametrize("joint", [False, True], ids=["base", "joint"])
    def test_float32_sources_give_pfuse_bytes(self, joint):
        # each block is read as float64, so float32 sources holding the same values
        # reconstruct exactly what pfuse does from their float64 copies
        y, z, mask, config, a = self.tall()
        y, z, mask = (part.astype(np.float32) for part in (y, z, mask))
        response = a if joint else None
        blocks = list(fusion.pfuse_rows(y[:, :, None], z, mask, config, response=response))
        whole = fusion.pfuse(*(part.astype(np.float64) for part in (y, z, mask)), config,
                             response=response)
        assert np.concatenate([rows for _, rows in blocks]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("joint,workers", [(False, 1), (False, 2), (True, 1)],
                             ids=["base", "base-two-workers", "joint"])
    def test_without_a_pool_rows_are_out_before_the_next_read(self, monkeypatch, joint,
                                                              workers):
        # base windows that all keep their cell answer start no pool, whatever the workers
        class Recorded:
            def __init__(self, array):
                self.array, self.shape = array, array.shape

            def __getitem__(self, span):
                events.append(("read", span.start))
                return self.array[span]

        events = []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        y, z, mask, config, a = self.tall()
        for r0, _ in fusion.pfuse_rows(Recorded(y[:, :, None]), z, mask, config,
                                       workers=workers, response=a if joint else None):
            events.append(("rows", r0))
        assert events == [(kind, r0) for r0 in (0, 5, 10, 15) for kind in ("read", "rows")]

    @pytest.mark.parametrize("joint", [False, True], ids=["base", "joint"])
    def test_one_cut_per_run(self, monkeypatch, joint):
        # the stream and the aggregation share the grid's one cut
        cuts, cells = [], core.PatchGrid.cells
        monkeypatch.setattr(core.PatchGrid, "cells",
                            lambda grid: cuts.append(cells(grid)) or cuts[-1])
        y, z, mask, _, a = self.tall()
        config = FusionConfig(rank=2, patch_rows=6, patch_cols=5, stride=4)
        list(fusion.pfuse_rows(y[:, :, None], z, mask, config, response=a if joint else None))
        assert len(cuts) >= 1 and all(cut is cuts[0] for cut in cuts)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_statistics_made_once_and_freed_before_the_next_row(self, monkeypatch,
                                                                      workers):
        # windows at rows 0, 4, 8, 12 and 14, six rows tall: most cell rows serve two rows
        # of windows, and each must be gone before the first read of a row below it
        class Recorded:
            def __init__(self, array):
                self.array, self.shape = array, array.shape

            def __getitem__(self, span):
                i0 = min(i for i in starts if i + config.patch_rows > span.start)
                above = [refs for a, refs in enumerate(made) if row_edges[a + 1] <= i0]
                assert all(ref() is None for refs in above for ref in refs), (span, i0)
                return self.array[span]

        def recorded(y, *rest):
            sums = cell_stats(y, *rest)
            assert len(y) == np.diff(row_edges)[len(made)]  # cell rows in order, each once
            made.append([weakref.ref(part) for part in sums])
            return sums

        y, z, mask, _, _ = self.tall()
        config = FusionConfig(rank=2, patch_rows=6, patch_cols=5, stride=4)
        whole = fusion.pfuse(y, z, mask, config)
        grid = config.grid(mask.shape, z.shape[2])
        row_edges, starts = grid.cells()[0], sorted({i for i, _ in grid.origins})
        made, cell_stats = [], fusion._cell_stats
        monkeypatch.setattr(fusion, "_cell_stats", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = list(fusion.pfuse_rows(Recorded(y[:, :, None]), z, mask, config,
                                      workers=workers))
        assert len(made) == len(row_edges) - 1
        assert all(ref() is None for refs in made for ref in refs)
        assert np.concatenate([block for _, block in rows]).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("workers,bound", [(1, 1.5), (2, 2.5)])
    def test_joint_windows_copy_no_window_row(self, monkeypatch, workers, bound):
        # each joint window copies only its own pixels from the cell rows held: on a scene eight
        # windows wide, copying a whole row of windows' y, z and mask instead peaked at 1.9
        # such copies with one worker and 3.8 with two, and cutting each window reads about
        # 0.9 and 1.5-2.0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        y, z, mask = noisy_instance(96, 128, 512, bands=31)
        config, response = FusionConfig(3, 64, 64, 32), forward.average_response(31, 3)
        tracemalloc.start()
        try:
            for _ in fusion.pfuse_rows(y[:, :, None], z, mask, config, workers=workers,
                                       response=response):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 64 * 512 * (31 + 3 + 1) * 8

    def test_next_row_submitted_before_a_row_is_collected(self, monkeypatch):
        # a pool that solves at submission shows the order of submissions and output rows
        class EagerPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return iter([fn(*args) for args in zip(*iterables)])

        def recorded(window_y, *rest):
            # the window row whose coded values these are
            (i0,) = {i0 for i0, j0 in config.grid(mask.shape, 2).origins
                     if np.array_equal(y[i0 : i0 + 5, j0 : j0 + 5], window_y)}
            events.append(("stats", i0))
            return cell_stats(window_y, *rest)

        events, cell_stats = [], fusion._cell_stats
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", EagerPool)
        monkeypatch.setattr(fusion, "_cell_stats", recorded)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        y, z, mask, config, a = self.tall()
        for r0, _ in fusion.pfuse_rows(y[:, :, None], z, mask, config, workers=2, response=a):
            events.append(("rows", r0))
        assert events == [("stats", 0)] * 2 + [("stats", 5)] * 2 + [("rows", 0)] + \
            [("stats", 10)] * 2 + [("rows", 5)] + [("stats", 15)] * 2 + [("rows", 10), ("rows", 15)]


@pytest.fixture
def blas_at_two_threads():
    """numpy's bundled OpenBLAS set to two threads; its own count is restored after."""
    lib = _blas.openblas()
    if lib is None:
        pytest.skip("numpy bundles no scipy-openblas thread-count symbols")
    before, set_threads = lib.get_threads(), lib.set_threads  # a test may replace the setter
    set_threads(2)
    try:
        if lib.get_threads() != 2:
            pytest.skip("this OpenBLAS cannot run two threads")
        yield lib
    finally:
        set_threads(before)


class TestWithoutBundledOpenBLAS:
    """Where numpy bundles no usable scipy-openblas (numpy 1.x, MKL or Accelerate builds),
    the solves use scipy.linalg.lapack and no BLAS thread count is read or set."""

    @pytest.fixture(params=["not-loadable", "no-dposv"])
    def thread_calls(self, request, monkeypatch):
        """Every BLAS thread-count call, while loading the bundled library raises OSError
        or gives one without ``scipy_dposv_64_``; openblas()'s cache is cleared around."""
        calls, cdll, bundled = [], ctypes.CDLL, _blas.openblas()

        def get_threads():
            calls.append("get")
            return 2

        def set_threads(count):
            calls.append(("set", count))

        if bundled is not None:  # the binding found before, were it reached
            monkeypatch.setattr(bundled, "get_threads", get_threads)
            monkeypatch.setattr(bundled, "set_threads", set_threads)

        def loading(path, *args, **kwargs):
            if "scipy_openblas" not in str(path):
                return cdll(path, *args, **kwargs)
            if request.param == "not-loadable":
                raise OSError(f"{path}: cannot open shared object file")
            return types.SimpleNamespace(scipy_openblas_get_num_threads64_=get_threads,
                                         scipy_openblas_set_num_threads64_=set_threads)

        monkeypatch.setattr(ctypes, "CDLL", loading)
        _blas.openblas.cache_clear()
        yield calls
        _blas.openblas.cache_clear()

    def test_threads_left_alone_and_same_bytes(self, thread_calls, monkeypatch, four_patches):
        assert _blas.openblas() is None
        with _blas.one_thread():
            assert _blas._pins == []
        y, z, mask, config, response = four_patches
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        stats = []
        one = fusion.pfuse(y, z, mask, config, workers=1, response=response, stats=stats)
        two = fusion.pfuse(y, z, mask, config, workers=2, response=response)
        assert one.tobytes() == two.tobytes()
        assert [s.solver for s in stats] == ["cholesky"] * 4  # scipy.linalg.lapack's
        assert thread_calls == []


class TestBlasThreads:
    """A pool of patch workers runs numpy's BLAS on one thread, and only while it runs."""

    @pytest.fixture
    def seen(self, monkeypatch, blas_at_two_threads):
        """BLAS thread counts read inside each joint window's statistics."""
        seen, cell_stats = [], fusion._cell_stats

        def reading(*args):
            seen.append(blas_at_two_threads.get_threads())
            return cell_stats(*args)

        monkeypatch.setattr(fusion, "_cell_stats", reading)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return seen

    def test_pool_pins_one_thread_and_restores(self, seen, blas_at_two_threads, four_patches):
        y, z, mask, config, response = four_patches
        fusion.pfuse(y, z, mask, config, workers=2, response=response)
        assert seen == [1] * 4
        assert blas_at_two_threads.get_threads() == 2

    def test_restored_when_a_window_raises(self, seen, blas_at_two_threads, four_patches):
        y, z, mask, config, response = four_patches
        with pytest.raises(RankDeficiencyError):
            fusion.pfuse(y, z, np.zeros_like(mask), config, workers=2, response=response)
        assert seen and set(seen) == {1}
        assert blas_at_two_threads.get_threads() == 2

    def test_overlapping_pools_restore_once_all_end(self, blas_at_two_threads):
        # two threads' pools overlap, and the first to start ends first
        entered, release = threading.Event(), threading.Event()

        def second():
            with _blas.one_thread():
                entered.set()
                release.wait(timeout=30)

        with _blas.one_thread():
            thread = threading.Thread(target=second)
            thread.start()
            assert entered.wait(timeout=30)
        assert blas_at_two_threads.get_threads() == 1
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert blas_at_two_threads.get_threads() == 2

    def test_closing_rows_early_stops_the_pool_and_restores(self, seen, blas_at_two_threads):
        y, z, mask, config, a = TestPfuseRows.tall()
        rows = fusion.pfuse_rows(y[:, :, None], z, mask, config, workers=2, response=a)
        next(rows)
        assert blas_at_two_threads.get_threads() == 1
        rows.close()
        assert blas_at_two_threads.get_threads() == 2
        assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
        assert set(seen) == {1} and len(seen) <= 4  # two rows of windows at most were solved

    def test_one_worker_never_sets_the_count(self, monkeypatch, seen, blas_at_two_threads,
                                             four_patches):
        calls = []
        monkeypatch.setattr(blas_at_two_threads, "set_threads", calls.append)
        y, z, mask, config, response = four_patches
        fusion.pfuse(y, z, mask, config, workers=1, response=response)
        assert calls == []
        assert seen == [2] * 4


class TestFusionConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert (config.rank, config.patch_rows, config.patch_cols, config.stride) == (3, 100, 100, 50)
        assert [f.name for f in dataclasses.fields(FusionConfig)] == [
            "rank", "patch_rows", "patch_cols", "stride"]

    @pytest.mark.parametrize(
        "args,kwargs,stride",
        [((), {}, 50), ((), {"patch_rows": 40, "patch_cols": 40}, 20), ((3, 24, 6), {}, 3),
         ((), {"patch_rows": 200, "patch_cols": 200}, 100), ((1, 1, 1), {}, 1),
         ((3, 9, 7), {}, 3)],
    )
    def test_stride_defaults_to_half_the_shorter_side(self, args, kwargs, stride):
        assert FusionConfig(*args, **kwargs).stride == stride
        assert not hasattr(core, "default_stride")

    def test_stride_bounds(self):
        with pytest.raises(ValueError, match="stride"):
            FusionConfig(patch_rows=10, patch_cols=10, stride=11)

    def test_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FusionConfig(rank=0)

    @pytest.mark.parametrize(
        "name,value",
        [("patch_rows", 8.0), ("rank", 2.5), ("rank", True), ("patch_cols", "8"),
         ("stride", 4.0), ("stride", True)],
    )
    def test_non_integer_field_refused(self, name, value):
        # 8.0 used to build and fail in range(), 2.5 to reach an IndexError
        with pytest.raises(ValueError, match=f"^{name} must ") as err:
            FusionConfig(**{name: value})
        assert "integer" in str(err.value) and str(err.value).endswith(f"got {value!r}")

    def test_numpy_integers_accepted(self):
        config = FusionConfig(np.int64(2), np.int32(8), np.int16(6))
        assert (config.rank, config.patch_rows, config.patch_cols, config.stride) == (2, 8, 6, 3)

    def test_rank_tol_is_a_constant(self):
        assert fusion.RANK_TOL == 1e-10
        with pytest.raises(TypeError):
            FusionConfig(rank_tol=1e-3)


def decline_cholesky(patched):
    """Make every Cholesky solve decline, so each solve falls back to pivoted QR."""
    patched.setattr(fusion.numeric, "cholesky_solve", lambda *_args: None)


def per_window_reference(monkeypatch, *args, qr=False, **kwargs):
    """pfuse output and stats with every window solved by the per-window path
    (its own SVD, phi and solve), and with ``qr`` that solve forced onto pivoted QR."""
    stats = []
    with monkeypatch.context() as patched:
        patched.setattr(fusion, "_cell_solve", lambda *_args: None)
        if qr:
            decline_cholesky(patched)
        return fusion.pfuse(*args, **kwargs, stats=stats), stats


def qr_reference(monkeypatch, *args, **kwargs):
    """pfuse output and stats with the base solve forced onto pivoted QR."""
    return per_window_reference(monkeypatch, *args, qr=True, **kwargs)


class TestBaseSolver:
    """The Cholesky base solve against the pivoted-QR reference on degenerate patches."""

    def run_both(self, monkeypatch, y, z, mask, config):
        stats = []
        fast = fusion.pfuse(y, z, mask, config, stats=stats)
        ref, ref_stats = qr_reference(monkeypatch, y, z, mask, config)
        assert all(s.solver == "qr" for s in ref_stats)
        assert np.abs(fast - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
        return fast, stats

    def test_flat_patches(self, monkeypatch):
        cube = np.full((16, 16, 6), 0.3)
        mask = forward.gen_mask(16, 16, 6, 60, 0.5)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, forward.average_response(6, 3))
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        xhat, stats = self.run_both(monkeypatch, y, z, mask, config)
        assert all(s.rank == 1 and s.solver == "cholesky" for s in stats)
        assert rel_err(xhat, cube) < 1e-10

    def test_one_channel_patches(self, monkeypatch):
        cube, _, _ = low_rank_cube(61, 12, 12, 5, 1)
        mask = forward.gen_mask(12, 12, 5, 62, 0.5)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, forward.average_response(5, 1))
        config = FusionConfig(rank=1, patch_rows=6, patch_cols=6, stride=3)
        xhat, stats = self.run_both(monkeypatch, y, z, mask, config)
        assert all(s.solver == "cholesky" for s in stats)
        assert rel_err(xhat, cube) < 1e-10

    def test_zero_mask_raises_as_qr(self, monkeypatch):
        rng = np.random.default_rng(63)
        z, y = rng.random((8, 8, 3)), rng.random((8, 8))
        config = FusionConfig(rank=1, patch_rows=8, patch_cols=8, stride=8)
        with pytest.raises(RankDeficiencyError) as fast:
            fusion.pfuse(y, z, np.zeros((8, 8, 4)), config)
        with pytest.raises(RankDeficiencyError) as ref:
            qr_reference(monkeypatch, y, z, np.zeros((8, 8, 4)), config)
        assert str(fast.value) == str(ref.value)
        assert fast.value.column == ref.value.column

    def test_ill_conditioned_patch_falls_back(self, monkeypatch):
        # mask band 3 is band 2 up to 1e-5: cond(phi) ~ 1e5 fails the Cholesky bound
        rng = np.random.default_rng(64)
        cube, _, _ = low_rank_cube(64, 12, 12, 6, 2)
        mask = forward.gen_mask(12, 12, 6, 65, 0.5).copy()
        mask[:, :, 3] = mask[:, :, 2] + 1e-5 * rng.standard_normal((12, 12))
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, rng.random((6, 2)))
        config = FusionConfig(rank=2, patch_rows=12, patch_cols=12, stride=12)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, stats=stats)
        ref, _ = qr_reference(monkeypatch, y, z, mask, config)
        assert [s.solver for s in stats] == ["qr"]
        assert np.array_equal(xhat, ref)

    def test_qr_fallback_solves_the_coded_rows(self, monkeypatch):
        # a declined base window is its own coded system, solved by pivoted QR
        y, z, mask = noisy_instance(66, 12, 12)
        stats = []
        with monkeypatch.context() as patched:
            decline_cholesky(patched)
            fusion.pfuse(y, z, mask, FusionConfig(3, 12, 12, 12), stats=stats)
        (s,) = stats
        ref = numeric.lstsq(fusion.assemble_phi_w(mask, s.coefficients), y.ravel(order="F"))
        assert s.solver == "qr"
        assert np.array_equal(s.basis.reshape(-1, order="F"), ref.x)
        assert s.residual == ref.residual

    @pytest.mark.parametrize(
        "case,error",
        [("zero", RankDeficiencyError), ("duplicate-column", RankDeficiencyError),
         ("mask-inf", ValueError), ("y-nan", ValueError), ("underdetermined", ValueError)],
        ids=["zero", "duplicate-column", "mask-inf", "y-nan", "underdetermined"],
    )
    def test_declined_system_raises_as_qr(self, case, error):
        # a system the Cholesky guard must not answer raises lstsq's error on its coded rows
        rng = np.random.default_rng(67)
        side = 2 if case == "underdetermined" else 8  # 4 rows < 2 * 4 unknowns
        mask = forward.gen_mask(side, side, 4, 68, 0.5).copy()
        y, w = rng.random((side, side)), rng.standard_normal((2, side * side))
        if case == "zero":
            mask[:] = 0.0
        elif case == "duplicate-column":
            mask[:, :, 3] = mask[:, :, 1]
        elif case == "mask-inf":
            mask[3, 4, 2] = np.inf
        elif case == "y-nan":
            y[3, 4] = np.nan
        with pytest.raises(error) as ref:
            numeric.lstsq(fusion.assemble_phi_w(mask, w), y.ravel(order="F"))
        with pytest.raises(error) as fast:
            fusion.solve_basis(y, mask, w)
        assert str(fast.value) == str(ref.value)
        assert getattr(fast.value, "column", None) == getattr(ref.value, "column", None)


@pytest.fixture
def per_window_calls(monkeypatch):
    """Mask windows handed to the per-window path, in call order."""
    masks = []
    fuse_block = fusion._fuse_block

    def recording(y, z, mask, rank, response, origin):
        masks.append(np.array(mask))
        return fuse_block(y, z, mask, rank, response, origin)

    monkeypatch.setattr(fusion, "_fuse_block", recording)
    return masks


def origins_of(calls, mask, config):
    """Grid origins of the recorded mask windows (each must match exactly one)."""
    m, n = config.patch_rows, config.patch_cols
    grid = core.make_grid(*mask.shape[:2], m, n, config.stride)
    found = []
    for call in calls:
        (origin,) = [(i0, j0) for i0, j0 in grid.origins
                     if np.array_equal(mask[i0 : i0 + m, j0 : j0 + n], call)]
        found.append(origin)
    return found


def noisy_instance(seed, rows, cols, bands=6, rank=3, channels=3):
    """Noisy coded and multiband measurements of a smooth full-rank scene."""
    cube = smooth_spectra_cube(seed, rows, cols, bands)
    mask = forward.gen_mask(rows, cols, bands, seed + 1, 0.5)
    response = forward.average_response(bands, channels)
    y = forward.add_noise(forward.simulate_cassi(cube, mask), 0.01, seed + 2)
    z = forward.add_noise(forward.simulate_multiband(cube, response), 0.01, seed + 3)
    return y, z, mask


# (name, value, dead pixel, message) of one non-finite input value at pixel (10, 5)
NON_FINITE_INPUTS = {
    "z-nan": ("z", np.nan, False, "matrix contains non-finite entries"),
    "z-inf-dead-pixel": ("z", np.inf, True, "matrix contains non-finite entries"),
    "y-nan": ("y", np.nan, False, "right-hand side contains non-finite entries"),
    "y-inf": ("y", np.inf, False, "right-hand side contains non-finite entries"),
    "y-nan-dead-pixel": ("y", np.nan, True, "right-hand side contains non-finite entries"),
    "mask-nan": ("mask", np.nan, False, "system matrix contains non-finite entries"),
    "mask-inf": ("mask", np.inf, False, "system matrix contains non-finite entries"),
}


class TestCellPath:
    """Base windows solved from cell statistics against the per-window path."""

    @pytest.mark.parametrize(
        "shape,rank,config",
        [
            ((18, 14), 3, FusionConfig(3, 9, 7, 4)),  # rectangular; stride divides neither side
            ((23, 19), 3, FusionConfig(3, 8, 8, 5)),  # clamped border windows on both axes
            ((20, 20), 2, FusionConfig(2, 8, 8, 3)),  # rank 2 of 3 noisy channels
        ],
        ids=["rectangular", "clamped", "rank-below-channels"],
    )
    def test_matches_per_window_reference(self, monkeypatch, per_window_calls, shape, rank,
                                          config):
        y, z, mask = noisy_instance(90, *shape)
        stats = []
        fast = fusion.pfuse(y, z, mask, config, stats=stats)
        assert per_window_calls == []
        ref, ref_stats = per_window_reference(monkeypatch, y, z, mask, config)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
        assert [s.origin for s in stats] == [s.origin for s in ref_stats]
        for s, r in zip(stats, ref_stats):
            assert (s.rank, s.solver) == (rank, "cholesky") == (r.rank, r.solver)
            assert abs(s.residual - r.residual) <= 1e-12 * r.residual
            fit, ref_fit = s.basis @ s.coefficients, r.basis @ r.coefficients
            assert np.abs(fit - ref_fit).max() <= 1e-12 * np.abs(ref_fit).max()

    def test_flat_scene_uses_per_window_path(self, per_window_calls):
        # rank 1 data at rank 3: every window fails the eigenvalue guard
        cube = np.full((16, 16, 6), 0.3)
        mask = forward.gen_mask(16, 16, 6, 92, 0.5)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, forward.average_response(6, 3))
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        stats = []
        fusion.pfuse(y, z, mask, config, stats=stats)
        assert origins_of(per_window_calls, mask, config) == [s.origin for s in stats]
        assert all(s.rank == 1 for s in stats)

    def test_zero_windows_use_per_window_path(self, per_window_calls):
        cube = two_zone_cube(93, 24, 8, 8, 8, 6, rank=2)
        mask = forward.gen_mask(24, 24, 6, 94, 0.5)
        response = forward.average_response(6, 2)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        config = FusionConfig(rank=2, patch_rows=8, patch_cols=8, stride=4)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, stats=stats)
        zero = [s.origin for s in stats if not z[s.origin[0] : s.origin[0] + 8,
                                                s.origin[1] : s.origin[1] + 8].any()]
        assert zero and origins_of(per_window_calls, mask, config) == zero
        assert [s.origin for s in stats if s.rank == 0] == zero
        assert rel_err(xhat, cube) < 1e-8

    @pytest.mark.parametrize(
        "sigmas,rank,per_window",
        [
            ((3.0, 1.0, 1.0), 2, True),  # tied 2nd and 3rd: no gap below the rank
            ((3.0, 1.0 + 1e-7, 1.0), 2, True),  # gap 2e-7 < 1e-6 * 9
            ((1.0, 1.0, 1e-4), 3, True),  # lambda_3 = 1e-8 < 1e-6 * lambda_1
            ((3.0, 1.0, 0.5), 2, False),
            ((1.0, 1.0, 2e-3), 3, False),  # lambda_3 = 4e-6
        ],
    )
    def test_eigenvalue_guards(self, monkeypatch, per_window_calls, sigmas, rank, per_window):
        # one 12x12 window whose multiband unfolding has the given singular values
        rng = np.random.default_rng(99)
        q = np.linalg.qr(rng.standard_normal((144, 3)))[0]
        z = core.fold3((q * np.array(sigmas)).T, 12, 12)
        mask = forward.gen_mask(12, 12, 6, 100, 0.5)
        y = rng.random((12, 12))
        config = FusionConfig(rank, 12, 12, 12)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, stats=stats)
        assert origins_of(per_window_calls, mask, config) == ([(0, 0)] if per_window else [])
        assert stats[0].rank == rank
        ref, _ = per_window_reference(monkeypatch, y, z, mask, config)
        if not per_window:
            assert np.abs(xhat - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_mask_window_raises_as_per_window_path(self, monkeypatch, per_window_calls):
        # the last window sees no mask at all: its system is zero
        y, z, mask = noisy_instance(95, 16, 16)
        mask = mask.copy()
        mask[8:, 8:] = 0.0
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        with pytest.raises(RankDeficiencyError) as fast:
            fusion.pfuse(y, z, mask, config)
        assert origins_of(per_window_calls, mask, config) == [(8, 8)]
        with pytest.raises(RankDeficiencyError) as ref:
            per_window_reference(monkeypatch, y, z, mask, config)
        assert str(fast.value) == str(ref.value)
        assert str(fast.value).startswith("patch at origin (8, 8): ")
        assert fast.value.column == ref.value.column

    def test_near_dependent_mask_uses_per_window_path(self, monkeypatch, per_window_calls):
        # in the last window mask band 3 is band 2 up to 1e-5: rcond(G) fails the bound
        y, z, mask = noisy_instance(96, 16, 16)
        mask = mask.copy()
        rng = np.random.default_rng(97)
        mask[8:, 8:, 3] = mask[8:, 8:, 2] + 1e-5 * rng.standard_normal((8, 8))
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, stats=stats)
        assert origins_of(per_window_calls, mask, config) == [(8, 8)]
        assert [s.origin for s in stats if s.solver == "qr"] == [(8, 8)]
        ref, _ = per_window_reference(monkeypatch, y, z, mask, config)
        assert np.abs(xhat - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "joint,name,value,dead,message",
        [(joint, *case) for joint in (False, True) for case in NON_FINITE_INPUTS.values()],
        ids=[prefix + case for prefix in ("", "joint-") for case in NON_FINITE_INPUTS],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_input_names_first_origin(self, monkeypatch, joint, name, value, dead,
                                                 message, workers):
        # pixel (10, 5) lies in windows (4, 0), (4, 4), (8, 0) and (8, 4); (4, 0) comes first;
        # a dead pixel has an all-zero mask spectrum, so its value is multiplied by zeros.
        # The base and the joint solve name it alike, and warn of nothing on the way.
        data = {key: v.copy() for key, v in zip(("y", "z", "mask"), noisy_instance(98, 16, 16))}
        if dead:
            data["mask"][10, 5] = 0.0
        data[name][10, 5] = value
        config = FusionConfig(rank=3, patch_rows=8, patch_cols=8, stride=4)
        response = forward.average_response(6, 3) if joint else None
        with pytest.raises(ValueError) as fast:
            fusion.pfuse(data["y"], data["z"], data["mask"], config, workers=workers,
                         response=response)
        with pytest.raises(ValueError) as ref:
            per_window_reference(monkeypatch, data["y"], data["z"], data["mask"], config,
                                 response=response)
        assert str(fast.value) == str(ref.value) == f"patch at origin (4, 0): {message}"


def stacked_reference(y, mask, w, z, response):
    """The joint system as assembled rows: coded rows over channels*pixels multiband rows."""
    phi = np.vstack((fusion.assemble_phi_w(mask, w), fusion.assemble_phi_rgb(response, w)))
    return numeric.lstsq(phi, np.concatenate((y.ravel(order="F"), z.ravel(order="F"))))


def sensing_matrix_residual(y, z, mask, basis, w, response=None):
    """Residual of a window's own system through its assembled rows: the coded rows, and with
    ``response`` the multiband rows too; the oracle for a record's residual through F."""
    e = basis.reshape(-1, order="F")
    residual = np.linalg.norm(y.ravel(order="F") - fusion.assemble_phi_w(mask, w) @ e)
    if response is not None:
        fit = fusion.assemble_phi_rgb(response, w) @ e
        residual = np.hypot(residual, np.linalg.norm(z.ravel(order="F") - fit))
    return residual


def noisy_joint_instance(seed, rows=12, cols=10, bands=6, rank=2, channels=3):
    """Noisy coded and multiband measurements of a low-rank cube, with their mask and response."""
    rng = np.random.default_rng(seed)
    cube, _, _ = low_rank_cube(seed, rows, cols, bands, rank)
    mask = forward.gen_mask(rows, cols, bands, seed + 1, 0.5)
    response = rng.random((bands, channels))
    y = forward.add_noise(forward.simulate_cassi(cube, mask), 0.05, seed + 2)
    z = forward.add_noise(forward.simulate_multiband(cube, response), 0.05, seed + 3)
    return y, z, mask, response


class TestJointSolver:
    """The joint solve, by the normal equations with the multiband Gram term, against the
    stacked rows solved by pivoted QR, directly and as its own fallback."""

    def check_against_reference(self, monkeypatch, y, z, mask, response, w):
        ref = stacked_reference(y, mask, w, z, response)
        x = fusion.solve_basis(y, mask, w, z=z, response=response)
        with monkeypatch.context() as patched:
            decline_cholesky(patched)
            x_qr = fusion.solve_basis(y, mask, w, z=z, response=response)
        assert np.abs(x - x_qr).max() <= 1e-12 * np.abs(x_qr).max()
        x = x.reshape(-1, order="F")
        assert np.linalg.norm(x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)
        phi = np.vstack((fusion.assemble_phi_w(mask, w), fusion.assemble_phi_rgb(response, w)))
        rhs = np.concatenate((y.ravel(order="F"), z.ravel(order="F")))
        assert abs(np.linalg.norm(rhs - phi @ x) - ref.residual) <= 1e-12 * ref.residual

    def test_sensing_matrix_is_not_copied(self):
        # the multiband rows enter as a Gram term and are never assembled: the peak beyond the
        # inputs is assemble_phi_w's own, phi_W and its pixel-major mask copy (1.33 sensing
        # matrices here; a copy of phi_W, or the multiband rows stacked under it, would exceed 2)
        y, z, mask, response = noisy_joint_instance(76, rows=64, cols=64, bands=31, rank=3)
        w = fusion.estimate_coefficients(z, 3).coefficients
        tracemalloc.start()
        try:
            fusion.solve_basis(y, mask, w, z=z, response=response)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 64 * 64 * 3 * 31 * 8

    @pytest.mark.parametrize("orthonormal", [True, False], ids=["orthonormal", "general"])
    def test_normal_equations_equal_the_stacked_rows(self, monkeypatch, orthonormal):
        # G = phi.T phi + kron(W W.T, A A.T) and b = phi.T vec(Y) + vec(A Z W.T) are the
        # stacked rows' Gram and right-hand side
        y, z, mask, response = noisy_joint_instance(77, rank=3)
        if orthonormal:
            w = fusion.estimate_coefficients(z, 3).coefficients
        else:
            w = np.random.default_rng(78).standard_normal((3, 120)) * np.array([[5.0], [1.0],
                                                                                  [0.2]])
        systems = []
        solve = fusion.numeric.cholesky_solve
        monkeypatch.setattr(fusion.numeric, "cholesky_solve",
                            lambda gram, rhs: systems.append((gram, rhs)) or solve(gram, rhs))
        fusion.solve_basis(y, mask, w, z=z, response=response)
        phi = np.vstack((fusion.assemble_phi_w(mask, w), fusion.assemble_phi_rgb(response, w)))
        rhs = np.concatenate((y.ravel(order="F"), z.ravel(order="F")))
        ((gram, b),) = systems
        assert np.abs(gram - phi.T @ phi).max() <= 1e-12 * np.abs(phi.T @ phi).max()
        assert np.abs(b - phi.T @ rhs).max() <= 1e-12 * np.abs(phi.T @ rhs).max()

    def test_qr_fallback_solves_the_stacked_rows(self, monkeypatch):
        # a declined joint window is the stacked system itself, solved by pivoted QR
        y, z, mask, response = noisy_joint_instance(79, rows=12, cols=12, rank=3)
        stats = []
        with monkeypatch.context() as patched:
            decline_cholesky(patched)
            fusion.pfuse(y, z, mask, FusionConfig(3, 12, 12, 12), response=response,
                         stats=stats)
        (s,) = stats
        ref = stacked_reference(y, mask, s.coefficients, z, response)
        assert s.solver == "qr"
        assert np.array_equal(s.basis.reshape(-1, order="F"), ref.x)
        assert s.residual == ref.residual

    def test_orthonormal_coefficients(self, monkeypatch):
        y, z, mask, response = noisy_joint_instance(70, rank=3)
        w = fusion.estimate_coefficients(z, 3).coefficients
        self.check_against_reference(monkeypatch, y, z, mask, response, w)

    def test_general_coefficients(self, monkeypatch):
        # rows neither orthonormal nor of equal scale: the Gram term's W W.T carries them
        y, z, mask, response = noisy_joint_instance(71)
        rng = np.random.default_rng(72)
        w = rng.standard_normal((2, 120)) * np.array([[5.0], [0.2]])
        self.check_against_reference(monkeypatch, y, z, mask, response, w)

    def test_rank_shrunk_coefficients(self, monkeypatch):
        rng = np.random.default_rng(73)
        cube, _, _ = low_rank_cube(73, 12, 10, 6, 1)
        mask = forward.gen_mask(12, 10, 6, 74, 0.5)
        response = rng.random((6, 3))
        y = forward.add_noise(forward.simulate_cassi(cube, mask), 0.05, 75)
        z = forward.simulate_multiband(cube, response)
        est = fusion.estimate_coefficients(z, 3)
        assert est.rank == 1
        self.check_against_reference(monkeypatch, y, z, mask, response, est.coefficients)

    def test_one_channel_response(self, monkeypatch):
        y, z, mask, response = noisy_joint_instance(76, rank=1, channels=1)
        w = fusion.estimate_coefficients(z, 1).coefficients
        self.check_against_reference(monkeypatch, y, z, mask, response, w)

    def test_patch_stats_report_stacked_residual(self):
        # rank 2 of 3 noisy channels: part of z lies outside the coefficients' span
        y, z, mask, response = noisy_joint_instance(77, rows=16, cols=16, rank=3)
        config = FusionConfig(rank=2, patch_rows=8, patch_cols=8, stride=4)
        stats = []
        fusion.pfuse(y, z, mask, config, response=response, stats=stats)
        assert len(stats) == 9
        for s in stats:
            i0, j0 = s.origin
            window = (slice(i0, i0 + 8), slice(j0, j0 + 8))
            ref = stacked_reference(y[window], mask[window], s.coefficients, z[window], response)
            assert s.solver == "cholesky"
            assert abs(s.residual - ref.residual) <= 1e-12 * ref.residual
            assert np.linalg.norm(s.basis.reshape(-1, order="F") - ref.x) <= (
                1e-12 * np.linalg.norm(ref.x))

    @pytest.mark.parametrize("case", ["orthonormal", "general", "rank-shrunk", "one-channel"])
    def test_pfuse_matches_qr_reference(self, monkeypatch, case):
        # nine overlapping 8x8 windows of a 16x16 scene, each kept on Cholesky
        if case == "orthonormal":  # noisy exact rank-3 scene at rank 3
            y, z, mask, response = noisy_joint_instance(81, rows=16, cols=16, rank=3)
            rank = 3
        elif case == "general":  # noisy smooth full-rank scene at rank 2 of 3 channels
            y, z, mask = noisy_instance(82, 16, 16)
            response, rank = forward.average_response(6, 3), 2
        elif case == "rank-shrunk":  # rank-1 scene at rank 3: every window shrinks to 1
            rng = np.random.default_rng(83)
            cube, _, _ = low_rank_cube(83, 16, 16, 6, 1)
            mask = forward.gen_mask(16, 16, 6, 84, 0.5)
            response = rng.random((6, 3))
            y = forward.add_noise(forward.simulate_cassi(cube, mask), 0.05, 85)
            z = forward.simulate_multiband(cube, response)
            rank = 3
        else:
            y, z, mask, response = noisy_joint_instance(86, rows=16, cols=16, rank=1,
                                                        channels=1)
            rank = 1
        config = FusionConfig(rank, 8, 8, 4)
        stats = []
        fast = fusion.pfuse(y, z, mask, config, response=response, stats=stats)
        ref, ref_stats = per_window_reference(monkeypatch, y, z, mask, config,
                                              response=response, qr=True)
        assert [s.solver for s in stats] == ["cholesky"] * 9
        assert [s.solver for s in ref_stats] == ["qr"] * 9
        assert [s.rank for s in stats] == [s.rank for s in ref_stats] == (
            [1] * 9 if case == "rank-shrunk" else [rank] * 9)
        assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()
        for s, r in zip(stats, ref_stats):
            assert abs(s.residual - r.residual) <= 1e-12 * r.residual

    def test_ill_conditioned_window_falls_back(self, monkeypatch):
        # mask band 3 is band 2 up to 1e-5 and both bands share one response row, so
        # neither camera separates them: rcond(G) fails the Cholesky bound
        rng = np.random.default_rng(87)
        cube, _, _ = low_rank_cube(87, 12, 12, 6, 2)
        mask = forward.gen_mask(12, 12, 6, 88, 0.5).copy()
        mask[:, :, 3] = mask[:, :, 2] + 1e-5 * rng.standard_normal((12, 12))
        response = rng.random((6, 2))
        y = forward.simulate_cassi(cube, mask)
        config = FusionConfig(rank=2, patch_rows=12, patch_cols=12, stride=12)
        separated = []
        fusion.pfuse(y, forward.simulate_multiband(cube, response), mask, config,
                     response=response, stats=separated)
        assert [s.solver for s in separated] == ["cholesky"]
        response[3] = response[2]
        z = forward.simulate_multiband(cube, response)
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, response=response, stats=stats)
        ref, _ = per_window_reference(monkeypatch, y, z, mask, config, response=response,
                                      qr=True)
        assert [s.solver for s in stats] == ["qr"]
        assert np.array_equal(xhat, ref)

    def test_response_alone_selects_joint_solve(self):
        # a default-built config has no solve switch: passing the response selects the
        # joint solve in every window, and its records carry the stacked system's answer
        y, z, mask, response = noisy_joint_instance(89, rows=100, cols=150, rank=3)
        stats = []
        xhat = fusion.pfuse(y, z, mask, FusionConfig(), response=response, stats=stats)
        assert [s.origin for s in stats] == [(0, 0), (0, 50)]
        for s in stats:
            window = (slice(s.origin[0], s.origin[0] + 100), slice(s.origin[1], s.origin[1] + 100))
            ref = stacked_reference(y[window], mask[window], s.coefficients, z[window], response)
            assert s.solver == "cholesky"
            assert abs(s.residual - ref.residual) <= 1e-12 * ref.residual
            assert np.linalg.norm(s.basis.reshape(-1, order="F") - ref.x) <= (
                1e-12 * np.linalg.norm(ref.x))
        assert not np.array_equal(xhat, fusion.pfuse(y, z, mask, FusionConfig()))

    def test_zero_mask_still_rank_deficient(self, monkeypatch):
        # 3 channels cannot pin 4 bands: k*channels < k*bands rows without the mask
        rng = np.random.default_rng(78)
        z, y = rng.random((8, 8, 3)), rng.random((8, 8))
        mask, response = np.zeros((8, 8, 4)), rng.random((4, 3))
        w = fusion.estimate_coefficients(z, 2).coefficients
        with pytest.raises(RankDeficiencyError):
            stacked_reference(y, mask, w, z, response)
        with pytest.raises(RankDeficiencyError):
            fusion.solve_basis(y, mask, w, z=z, response=response)
        config = FusionConfig(rank=2, patch_rows=8, patch_cols=8, stride=8)
        with pytest.raises(RankDeficiencyError, match="origin \\(0, 0\\)") as fast:
            fusion.pfuse(y, z, mask, config, response=response)
        with pytest.raises(RankDeficiencyError) as ref:
            per_window_reference(monkeypatch, y, z, mask, config, response=response, qr=True)
        assert str(fast.value) == str(ref.value)
        assert fast.value.column == ref.value.column

    def test_multiband_rows_fill_the_mask_gap(self, monkeypatch):
        # with as many channels as bands the multiband rows alone give full rank
        rng = np.random.default_rng(79)
        z, y = rng.random((8, 8, 4)), rng.random((8, 8))
        mask, response = np.zeros((8, 8, 4)), rng.random((4, 4)) + np.eye(4)
        w = fusion.estimate_coefficients(z, 2).coefficients
        self.check_against_reference(monkeypatch, y, z, mask, response, w)

    @pytest.mark.parametrize("stats", [None, []], ids=["plain", "stats"])
    def test_statistics_answer_needs_no_coefficient_svd_or_sensing_matrix(self, monkeypatch,
                                                                          stats):
        # a well-conditioned joint window is solved from its own pixels' statistics alone
        def refused(*_args, **_kwargs):
            raise AssertionError("a joint window took the per-window path")

        y, z, mask, response = noisy_joint_instance(91, rows=16, cols=16, rank=3)
        for name in ("estimate_coefficients", "assemble_phi_w", "assemble_phi_rgb"):
            monkeypatch.setattr(fusion, name, refused)
        fusion.pfuse(y, z, mask, FusionConfig(3, 8, 8, 4), response=response, stats=stats)
        assert stats is None or [s.solver for s in stats] == ["cholesky"] * 9

    @pytest.mark.parametrize("rank,channels", [(3, 3), (2, 3), (1, 2), (2, 4)])
    def test_statistics_answer_equals_the_stacked_rows(self, monkeypatch, rank, channels):
        # nine overlapping 8x8 windows; each record's W = S^-1 U.T Z defines the stacked system
        y, z, mask, response = noisy_joint_instance(92 + channels, rows=16, cols=16,
                                                    rank=rank, channels=channels)
        monkeypatch.setattr(fusion, "estimate_coefficients", None)  # no per-window SVD
        stats = []
        fusion.pfuse(y, z, mask, FusionConfig(rank, 8, 8, 4), response=response, stats=stats)
        assert [(s.solver, s.rank) for s in stats] == [("cholesky", rank)] * 9
        for s in stats:
            window = (slice(s.origin[0], s.origin[0] + 8), slice(s.origin[1], s.origin[1] + 8))
            w = s.coefficients
            assert np.allclose(w @ w.T, np.eye(rank), atol=1e-12)
            ref = stacked_reference(y[window], mask[window], w, z[window], response)
            assert np.linalg.norm(s.basis.reshape(-1, order="F") - ref.x) <= (
                1e-12 * np.linalg.norm(ref.x))
            assert abs(s.residual - ref.residual) <= 1e-12 * ref.residual

    @pytest.mark.parametrize("joint", [False, True], ids=["base", "joint"])
    def test_map_residual_equals_the_sensing_matrix_residual(self, joint):
        # the record's residual through F = E S^-1 U.T against the rows themselves
        y, z, mask = noisy_instance(93, 16, 16)
        response = forward.average_response(6, 3) if joint else None
        stats = []
        fusion.pfuse(y, z, mask, FusionConfig(3, 8, 8, 4), response=response, stats=stats)
        assert [s.solver for s in stats] == ["cholesky"] * 9
        for s in stats:
            window = (slice(s.origin[0], s.origin[0] + 8), slice(s.origin[1], s.origin[1] + 8))
            ref = sensing_matrix_residual(y[window], z[window], mask[window], s.basis,
                                          s.coefficients, response)
            assert abs(s.residual - ref) <= 1e-12 * ref

    @pytest.mark.parametrize(
        "response,message",
        [
            (np.ones((5, 3)), "response has 5 rows, expected 6 bands"),
            (np.ones((6, 2)), "response has 2 channels, the multiband measurement has 3"),
        ],
        ids=["bands", "channels"],
    )
    def test_response_checked_before_any_patch(self, monkeypatch, response, message):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("a patch was solved before the response was checked")

        monkeypatch.setattr(fusion, "_fuse_block", no_solve)
        monkeypatch.setattr(fusion, "_cell_solve", no_solve)
        y, z, mask, _ = noisy_joint_instance(80)
        config = FusionConfig(rank=2, patch_rows=6, patch_cols=5, stride=5)
        with pytest.raises(ValueError) as err:
            fusion.pfuse(y, z, mask, config, response=response)
        assert str(err.value) == message
        with pytest.raises(ValueError, match=message):
            fusion.solve_basis(y, mask, np.ones((1, 120)), z=z,
                               response=response)

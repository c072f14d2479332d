"""Acceptance suite: one test per gate criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines as they complete.
"""

import time

import numpy as np

from helpers import dyadic_low_rank_cube, low_rank_cube, rel_err, two_zone_cube
from hsfuse import cli, core, forward, fusion, metrics
from hsfuse import io as hio
from hsfuse.fusion import FusionConfig

from test_metrics import msa_loop_oracle, psnr_loop_oracle, ssim_window_oracle


def _report(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_exact_recovery():
    """50 randomized trials of conditioned exact reconstruction."""
    rng = np.random.default_rng(100)
    rows, cols, bands, rank = 64, 64, 16, 3
    worst = 0.0
    start = time.perf_counter()
    for trial in range(50):
        basis = rng.standard_normal((bands, rank))
        coeff = np.linalg.qr(rng.standard_normal((rows * cols, rank)))[0].T
        cube = core.fold3(basis @ coeff, rows, cols)
        response = rng.random((bands, 3))  # full column rank a.s.
        mask = forward.gen_mask(rows, cols, bands, 1000 + trial, 0.5)
        y = forward.simulate_cassi(cube, mask)
        z = forward.simulate_multiband(cube, response)
        xhat = fusion.fuse(y, z, mask, rank)
        worst = max(worst, rel_err(xhat, cube))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(1, "exact recovery", ok, f"worst rel err {worst:.2e}, {elapsed:.2f} s for 50 trials")


def test_criterion_2_operator_equivalence():
    """The structured matrix reproduces the coded forward model on 100 instances."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for trial in range(100):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        bands = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        basis = rng.standard_normal((bands, k))
        coeff = rng.standard_normal((k, rows * cols))
        mask = forward.gen_mask(rows, cols, bands, 2000 + trial, 0.5)
        cube = core.fold3(basis @ coeff, rows, cols)
        rhs = forward.simulate_cassi(cube, mask).ravel(order="F")
        lhs = fusion.assemble_phi_w(mask, coeff) @ basis.reshape(-1, order="F")
        denom = np.linalg.norm(rhs)
        err = np.linalg.norm(lhs - rhs) / (denom if denom > 0 else 1.0)
        worst = max(worst, err)
    ok = worst < 1e-12
    _report(2, "operator equivalence", ok, f"worst rel err {worst:.2e} over 100 instances")


def test_criterion_3_least_squares_optimality():
    """Normal equations hold for every solved patch; the joint solve never loses."""
    # standard run: default config on a 200x200x31 piecewise scene
    cube = two_zone_cube(300, 200, 100, 0, 100, 31, rank=3)
    mask = forward.gen_mask(200, 200, 31, 301, 0.5)
    response = forward.average_response(31, 3)
    y = forward.simulate_cassi(cube, mask)
    z = forward.simulate_multiband(cube, response)
    stats = []
    fusion.pfuse(y, z, mask, FusionConfig(), workers=4, stats=stats)
    worst_ratio = 0.0
    solved = 0
    for s in stats:
        if s.rank == 0:
            continue
        solved += 1
        i0, j0 = s.origin
        phi = fusion.assemble_phi_w(mask[i0 : i0 + 100, j0 : j0 + 100, :], s.coefficients)
        rhs = y[i0 : i0 + 100, j0 : j0 + 100].ravel(order="F")
        gap = np.linalg.norm(phi.T @ (rhs - phi @ s.basis.reshape(-1, order="F")))
        worst_ratio = max(worst_ratio, gap / np.linalg.norm(phi.T @ rhs))
    normal_ok = solved > 0 and worst_ratio <= 1e-8

    # joint residual never exceeds the base residual on 20 noisy trials
    rng = np.random.default_rng(302)
    joint_ok = True
    margin = 0.0
    for trial in range(20):
        rows, cols, bands, k = 12, 12, 6, 2
        basis = rng.standard_normal((bands, k))
        coeff = np.linalg.qr(rng.standard_normal((rows * cols, k)))[0].T
        scene = core.fold3(basis @ coeff, rows, cols)
        mask_t = forward.gen_mask(rows, cols, bands, 3000 + trial, 0.5)
        resp_t = rng.random((bands, 3))
        y_t = forward.add_noise(forward.simulate_cassi(scene, mask_t), 0.02, 2 * trial)
        z_t = forward.add_noise(forward.simulate_multiband(scene, resp_t), 0.02, 2 * trial + 1)
        w_t = fusion.estimate_coefficients(z_t, k).coefficients
        base = fusion.solve_basis(y_t, mask_t, w_t)
        joint = fusion.solve_basis(y_t, mask_t, w_t, z=z_t, response=resp_t)
        phi = np.vstack(
            [fusion.assemble_phi_w(mask_t, w_t), fusion.assemble_phi_rgb(resp_t, w_t)]
        )
        stacked = np.concatenate([y_t.ravel(order="F"), z_t.ravel(order="F")])
        res_base = np.linalg.norm(stacked - phi @ base.reshape(-1, order="F"))
        res_joint = np.linalg.norm(stacked - phi @ joint.reshape(-1, order="F"))
        joint_ok = joint_ok and res_joint <= res_base * (1.0 + 1e-12)
        margin = max(margin, res_joint - res_base)
    ok = normal_ok and joint_ok
    _report(
        3,
        "least-squares optimality",
        ok,
        f"worst normal-eq ratio {worst_ratio:.2e} over {solved} patches; "
        f"joint-minus-base residual <= {margin:.2e} on 20 noisy trials",
    )


def test_criterion_4_patch_beats_global():
    """Two disjoint rank-3 halves: patch fusion wins by at least 3 dB."""
    cube = two_zone_cube(400, 200, 100, 0, 100, 31, rank=3)
    mask = forward.gen_mask(200, 200, 31, 401, 0.5)
    response = forward.average_response(31, 3)
    y = forward.simulate_cassi(cube, mask)
    z = forward.simulate_multiband(cube, response)
    psnr_global = metrics.m_psnr(cube, fusion.fuse(y, z, mask, 3))
    config = FusionConfig(rank=3, patch_rows=50, patch_cols=50, stride=25)
    psnr_patch = metrics.m_psnr(cube, fusion.pfuse(y, z, mask, config, workers=4))
    ok = psnr_patch >= psnr_global + 3.0
    _report(
        4,
        "patch beats global",
        ok,
        f"pfusion {psnr_patch:.2f} dB vs fusion {psnr_global:.2f} dB "
        f"(margin {psnr_patch - psnr_global:.2f} dB)",
    )


def test_criterion_5_rank_sweep():
    """PSNR is nondecreasing in the rank, and k=3 beats k=1 by >= 5 dB."""
    rows, cols, bands = 64, 64, 16
    scales = [1.0, 0.7, 0.5, 0.08, 0.05]
    cube, _, _ = low_rank_cube(55, rows, cols, bands, 5, scales=scales)
    mask = forward.gen_mask(rows, cols, bands, 7, 0.5)
    y = forward.simulate_cassi(cube, mask)
    psnrs = []
    for k in range(1, 6):
        response = forward.average_response(bands, k)
        z = forward.simulate_multiband(cube, response)
        psnrs.append(metrics.m_psnr(cube, fusion.fuse(y, z, mask, k)))
    nondecreasing = all(b >= a for a, b in zip(psnrs, psnrs[1:]))
    gap = psnrs[2] - psnrs[0]
    ok = nondecreasing and gap >= 5.0
    _report(
        5,
        "rank sweep",
        ok,
        "psnr[k=1..5] = " + ", ".join(f"{p:.2f}" for p in psnrs) + f"; k3-k1 = {gap:.2f} dB",
    )


def test_criterion_6_patch_size_robustness():
    """M-PSNR varies by < 2 dB across patch sizes 40/60/100."""
    # the zero band between the two subspaces is as wide as the largest
    # patch, so every window sees at most one subspace (patch-compatible)
    cube = two_zone_cube(600, 300, 100, 100, 100, 31, rank=3)
    mask = forward.gen_mask(300, 300, 31, 601, 0.5)
    response = forward.average_response(31, 3)
    y = forward.simulate_cassi(cube, mask)
    z = forward.simulate_multiband(cube, response)
    psnrs = []
    for m in (40, 60, 100):
        config = FusionConfig(rank=3, patch_rows=m, patch_cols=m, stride=m // 2)
        psnrs.append(metrics.m_psnr(cube, fusion.pfuse(y, z, mask, config, workers=4)))
    spread = max(psnrs) - min(psnrs)
    ok = spread < 2.0
    _report(
        6,
        "patch-size robustness",
        ok,
        "psnr[m=40,60,100] = " + ", ".join(f"{p:.2f}" for p in psnrs) + f"; spread {spread:.3f} dB",
    )


def test_criterion_7_runtime_envelope():
    """512x512x31 reconstructs in < 30 s single-threaded; joint solve costs >= 2x."""
    rng = np.random.default_rng(700)
    rows, cols, bands = 512, 512, 31
    basis = np.linalg.qr(rng.standard_normal((bands, 3)))[0]
    coeff = rng.random((3, rows * cols))
    cube = core.fold3(basis @ coeff, rows, cols)
    response = forward.average_response(bands, 3)
    mask = forward.gen_mask(rows, cols, bands, 701, 0.5)
    y = forward.simulate_cassi(cube, mask)
    z = forward.simulate_multiband(cube, response)
    config = FusionConfig(rank=3, patch_rows=100, patch_cols=100, stride=50)
    start = time.perf_counter()
    xhat = fusion.pfuse(y, z, mask, config, workers=1)
    t_base = time.perf_counter() - start
    # stats only on the joint call: on the base call they add per-window residuals
    stats = []
    start = time.perf_counter()
    fusion.pfuse(y, z, mask, config, workers=1, response=response, stats=stats)
    t_joint = time.perf_counter() - start
    kept = sum(s.solver == "cholesky" for s in stats)
    fell_back = sum(s.solver == "qr" for s in stats)
    err = rel_err(xhat, cube)
    ok = t_base < 30.0 and t_joint >= 2.0 * t_base and err < 1e-8
    _report(
        7,
        "runtime envelope",
        ok,
        f"base {t_base:.2f} s, joint {t_joint:.2f} s (ratio {t_joint / t_base:.2f}), "
        f"joint windows {kept} cholesky / {fell_back} qr, rel err {err:.1e}",
    )


def test_criterion_8_metric_oracles():
    """Metrics match their independent oracles on 20 random pairs."""
    rng = np.random.default_rng(800)
    worst_psnr = worst_msa = worst_ssim = 0.0
    for trial in range(20):
        ref = rng.random((7, 6, 4))
        est = rng.random((7, 6, 4))
        worst_psnr = max(
            worst_psnr, abs(metrics.m_psnr(ref, est) - psnr_loop_oracle(ref, est))
        )
        worst_msa = max(worst_msa, abs(metrics.msa(ref, est) - msa_loop_oracle(ref, est)))
        ref_s = rng.random((16, 16, 1))
        est_s = np.clip(ref_s + 0.1 * rng.standard_normal(ref_s.shape), 0, 1)
        got = metrics.m_ssim(ref_s, est_s)
        worst_ssim = max(
            worst_ssim, abs(got - ssim_window_oracle(ref_s[:, :, 0], est_s[:, :, 0]))
        )
    ref = rng.random((8, 9, 3))
    offset_gap = abs(metrics.m_psnr(ref, ref + 0.1) - 20.0)
    ok = (
        worst_psnr < 1e-10
        and worst_ssim < 1e-8
        and worst_msa < 1e-9
        and offset_gap < 1e-10
    )
    _report(
        8,
        "metric oracles",
        ok,
        f"max |psnr gap| {worst_psnr:.1e} dB, |ssim gap| {worst_ssim:.1e}, "
        f"|msa gap| {worst_msa:.1e} deg, 20 dB case off by {offset_gap:.1e} dB",
    )


def test_criterion_9_manifest_determinism(tmp_path):
    """Rerunning manifests reproduces every output cube bit-exactly at 1/2/8 threads."""
    cube, _, _ = dyadic_low_rank_cube(900, 24, 24, 8, 2)
    truth = tmp_path / "truth.hsc"
    hio.write_cube(cube, truth)
    sim_dir = tmp_path / "sim"
    assert cli.main(
        ["simulate", "--in", str(truth), "--mask-seed", "9", "--response", "average:2",
         "--out-dir", str(sim_dir)]
    ) == 0

    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"x{threads}.hsc"
        code = cli.main(
            ["reconstruct", "--y", str(sim_dir / "y.hsc"), "--z", str(sim_dir / "z.hsc"),
             "--mask", str(sim_dir / "mask.hsc"), "--rank", "2", "--patch", "12",
             "--stride", "6", "--threads", str(threads), "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    threads_ok = blobs[0] == blobs[1] == blobs[2]

    sim_rerun = tmp_path / "sim2"
    assert cli.main(
        ["simulate", "--config", str(sim_dir / "manifest.txt"), "--out-dir", str(sim_rerun)]
    ) == 0
    sim_ok = all(
        (sim_dir / name).read_bytes() == (sim_rerun / name).read_bytes()
        for name in ("y.hsc", "z.hsc", "mask.hsc")
    )

    rec_rerun = tmp_path / "rerun.hsc"
    assert cli.main(
        ["reconstruct", "--config", str(tmp_path / "x1.hsc.manifest.txt"),
         "--threads", "8", "--out", str(rec_rerun)]
    ) == 0
    rerun_ok = rec_rerun.read_bytes() == blobs[0]

    ok = threads_ok and sim_ok and rerun_ok
    _report(
        9,
        "manifest determinism",
        ok,
        f"threads 1/2/8 identical: {threads_ok}; simulate rerun identical: {sim_ok}; "
        f"reconstruct rerun identical: {rerun_ok}",
    )

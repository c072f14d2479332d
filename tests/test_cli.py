"""End-to-end CLI tests (run in-process through cli.main)."""

import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hsfuse
from helpers import dyadic_low_rank_cube, rel_err, smooth_spectra_cube, two_zone_cube
from hsfuse import cli, core, forward, fusion, metrics
from hsfuse import io as hio


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


@pytest.fixture
def scene(tmp_path):
    """Dyadic rank-3 truth cube on disk plus a simulated measurement set."""
    cube, _, _ = dyadic_low_rank_cube(101, 24, 24, 12, 3)
    truth = tmp_path / "truth.hsc"
    hio.write_cube(cube, truth)
    out_dir = tmp_path / "sim"
    assert run("simulate", "--in", truth, "--mask-seed", 5, "--out-dir", out_dir) == 0
    return cube, truth, out_dir


class TestSimulate:
    def test_outputs_and_determinism(self, scene, tmp_path):
        cube, truth, out_dir = scene
        for name in ("y.hsc", "z.hsc", "mask.hsc", "response.txt", "manifest.txt"):
            assert (out_dir / name).exists()
        rerun = tmp_path / "sim2"
        assert run("simulate", "--in", truth, "--mask-seed", 5, "--out-dir", rerun) == 0
        for name in ("y.hsc", "z.hsc", "mask.hsc", "response.txt"):
            assert (out_dir / name).read_bytes() == (rerun / name).read_bytes()

    def test_constant_cube_full_density(self, tmp_path):
        cube = np.full((16, 16, 4), 0.25)
        truth = tmp_path / "const.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sim"
        assert run("simulate", "--in", truth, "--density", 1, "--response", "average:2",
                   "--out-dir", out) == 0
        y = hio.read_cube(out / "y.hsc")[:, :, 0]
        z = hio.read_cube(out / "z.hsc")
        assert np.array_equal(y, np.full((16, 16), 1.0))
        assert np.array_equal(z, np.full((16, 16, 2), 0.25))

    def test_measurements_match_library(self, scene):
        cube, _, out_dir = scene
        mask = hio.read_cube(out_dir / "mask.hsc")
        assert np.array_equal(mask, forward.gen_mask(24, 24, 12, 5, 0.5))
        y = hio.read_cube(out_dir / "y.hsc")[:, :, 0]
        expected = forward.simulate_cassi(cube, mask).astype(np.float32).astype(np.float64)
        assert np.array_equal(y, expected)

    def test_file_response_kind(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(102, 16, 16, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        resp_path = tmp_path / "custom.txt"
        hio.save_response(forward.single_band_response(8, [2, 5]), resp_path)
        out = tmp_path / "sim"
        assert run("simulate", "--in", truth, "--response", f"file:{resp_path}",
                   "--out-dir", out) == 0
        z = hio.read_cube(out / "z.hsc")
        np.testing.assert_array_equal(z[:, :, 0], cube[:, :, 2].astype(np.float32))
        np.testing.assert_array_equal(z[:, :, 1], cube[:, :, 5].astype(np.float32))

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("simulate", "--in", tmp_path / "nope.hsc", "--out-dir", tmp_path / "o") == 3

    @pytest.mark.parametrize("sigma", ["-0.5", "inf", "nan"])
    def test_bad_noise_rejected(self, scene, tmp_path, sigma):
        cube, truth, out_dir = scene
        out = tmp_path / "noisy"
        assert run("simulate", "--in", truth, "--noise-sigma", sigma, "--out-dir", out) == 2
        assert not out.exists()

    def test_manifest_records_every_flag(self, scene):
        cube, truth, out_dir = scene
        entries = hio.read_manifest(out_dir / "manifest.txt")
        assert entries == {
            "command": "simulate", "version": cli.__version__, "in_path": str(truth),
            "mask_seed": "5", "density": "0.5", "response": "average",
            "noise_sigma": "0.0", "noise_seed": "1", "out_dir": str(out_dir),
        }


class TestReconstruct:
    def test_roundtrip_recovers_rank3_scene(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "xhat.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--stride", 6, "--out", out)
        assert code == 0
        assert rel_err(hio.read_cube(out), cube) < 1e-8

    def test_full_patch_equals_global_fuse(self, scene, tmp_path, capsys):
        cube, truth, out_dir = scene
        out = tmp_path / "xg.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 24, "--stride", 24, "--out", out)
        assert code == 0
        assert "s)" in capsys.readouterr().out  # wall time is printed
        y = hio.read_cube(out_dir / "y.hsc")[:, :, 0]
        z = hio.read_cube(out_dir / "z.hsc")
        mask = hio.read_cube(out_dir / "mask.hsc")
        expected = fusion.fuse(y, z, mask, 3)
        got = hio.read_cube(out)
        assert np.array_equal(got, expected.astype(np.float32).astype(np.float64))

    def test_improved_matches_base_on_noiseless_data(self, scene, tmp_path):
        cube, truth, out_dir = scene
        base = tmp_path / "base.hsc"
        joint = tmp_path / "joint.hsc"
        common = ("--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                  "--mask", out_dir / "mask.hsc", "--patch", 12, "--stride", 6)
        assert run("reconstruct", *common, "--out", base) == 0
        assert run("reconstruct", *common, "--improved",
                   "--response", out_dir / "response.txt", "--out", joint) == 0
        a = hio.read_cube(base)
        b = hio.read_cube(joint)
        assert np.abs(a - b).max() < 1e-6

    def test_rectangular_patch_flag(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "rect.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", "12,8", "--stride", 4,
                   "--out", out)
        assert code == 0
        assert rel_err(hio.read_cube(out), cube) < 1e-8

    @pytest.mark.parametrize("patch,resolved,stride", [("24,6", "24,6", "3"), ("12", "12,12", "6")],
                             ids=["rectangular", "square"])
    def test_default_stride(self, scene, tmp_path, patch, resolved, stride):
        # half the shorter side; m//2 = 12 used to exceed a 24x6 patch's 6-pixel side
        cube, truth, out_dir = scene
        out = tmp_path / "x.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", patch, "--out", out)
        assert code == 0
        entries = hio.read_manifest(f"{out}.manifest.txt")
        assert (entries["patch"], entries["stride"]) == (resolved, stride)
        assert rel_err(hio.read_cube(out), cube) < 1e-8
        rerun = tmp_path / "rerun.hsc"
        assert run("reconstruct", "--config", f"{out}.manifest.txt", "--out", rerun) == 0
        assert out.read_bytes() == rerun.read_bytes()

    @pytest.mark.parametrize(
        "shape,message",
        [((5, 3), "response has 5 rows, expected 12 bands"),
         ((12, 2), "response has 2 channels, the multiband measurement has 3")],
        ids=["bands", "channels"],
    )
    def test_improved_response_checked_before_solving(self, scene, tmp_path, monkeypatch,
                                                      capsys, shape, message):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("a patch was solved before the response was checked")

        monkeypatch.setattr(fusion, "_fuse_block", no_solve)
        cube, truth, out_dir = scene
        resp = tmp_path / "resp.txt"
        hio.save_response(np.ones(shape), resp)
        out = tmp_path / "x.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--improved",
                   "--response", resp, "--out", out)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert message in err and "patch" not in err
        assert not out.exists()

    def test_threads_do_not_change_bytes(self, scene, tmp_path):
        cube, truth, out_dir = scene
        blobs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"x{threads}.hsc"
            assert run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                       "--mask", out_dir / "mask.hsc", "--patch", 12, "--stride", 6,
                       "--threads", threads, "--out", out) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_improved_threads_and_manifest_rerun_reproduce_bytes(self, scene, tmp_path):
        # the joint path solves its windows on the worker pool; noise keeps each solve inexact
        cube, truth, _ = scene
        sim = tmp_path / "noisy"
        assert run("simulate", "--in", truth, "--mask-seed", 5, "--noise-sigma", 0.01,
                   "--out-dir", sim) == 0
        blobs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"x{threads}.hsc"
            assert run("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                       "--mask", sim / "mask.hsc", "--patch", 12, "--stride", 6, "--improved",
                       "--response", sim / "response.txt", "--threads", threads,
                       "--out", out) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        entries = hio.read_manifest(tmp_path / "x1.hsc.manifest.txt")
        assert (entries["improved"], entries["response"]) == ("true", str(sim / "response.txt"))
        rerun = tmp_path / "rerun.hsc"
        assert run("reconstruct", "--config", tmp_path / "x1.hsc.manifest.txt", "--threads", 8,
                   "--out", rerun) == 0
        assert rerun.read_bytes() == blobs[0]

    @pytest.mark.parametrize("improved", [False, True], ids=["base", "improved"])
    def test_m_psnr_non_increasing_in_noise_sigma(self, tmp_path, improved):
        # one mask seed and one noise seed: each sigma scales the same noise draw
        truth = tmp_path / "truth.hsc"
        hio.write_cube(smooth_spectra_cube(5, 24, 24, 12), truth)
        psnrs = []
        for sigma in (0, 0.005, 0.01, 0.02):
            sim = tmp_path / f"sim{sigma}"
            assert run("simulate", "--in", truth, "--mask-seed", 3, "--noise-seed", 4,
                       "--noise-sigma", sigma, "--out-dir", sim) == 0
            joint = ("--improved", "--response", sim / "response.txt") if improved else ()
            assert run("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                       "--mask", sim / "mask.hsc", "--patch", 12, "--stride", 6, *joint,
                       "--out", sim / "xhat.hsc") == 0
            assert run("eval", "--ref", truth, "--est", sim / "xhat.hsc",
                       "--out", sim / "eval.csv") == 0
            psnrs.append(float(read_csv(sim / "eval.csv")[0]["m_psnr"]))
        assert psnrs == sorted(psnrs, reverse=True)
        assert psnrs[0] > psnrs[-1] + 5.0

    def test_manifest_rerun_reproduces_bytes(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "xhat.hsc"
        assert run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--stride", 6,
                   "--out", out) == 0
        rerun = tmp_path / "rerun.hsc"
        assert run("reconstruct", "--config", f"{out}.manifest.txt", "--out", rerun) == 0
        assert out.read_bytes() == rerun.read_bytes()

    def test_patch_constraint_exit_code(self, scene, tmp_path):
        cube, truth, out_dir = scene
        # 6*6 = 36 <= rank*bands = 36
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 6, "--out", tmp_path / "x.hsc")
        assert code == cli.EXIT_USAGE

    def test_improved_requires_response(self, scene, tmp_path):
        cube, truth, out_dir = scene
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--improved", "--out", tmp_path / "x.hsc")
        assert code == cli.EXIT_USAGE

    def test_response_without_improved_refused_before_reading(self, scene, tmp_path,
                                                              monkeypatch, capsys):
        # the base solve never reads a response, so the manifest must not name one
        reads = []
        read_cube = hio.read_cube
        monkeypatch.setattr(hio, "read_cube", lambda path: reads.append(path) or read_cube(path))
        cube, truth, out_dir = scene
        out = tmp_path / "x.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--response", out_dir / "response.txt",
                   "--out", out)
        assert code == cli.EXIT_USAGE
        assert "--response is used only by --improved" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_missing_measurement_is_io_error(self, tmp_path):
        code = run("reconstruct", "--y", tmp_path / "nope.hsc", "--z", tmp_path / "z.hsc",
                   "--mask", tmp_path / "m.hsc", "--out", tmp_path / "x.hsc")
        assert code == cli.EXIT_IO

    def test_zero_mask_is_numerical_failure(self, tmp_path):
        rng = np.random.default_rng(0)
        hio.write_cube(rng.random((8, 8, 1)), tmp_path / "y.hsc")
        hio.write_cube(rng.random((8, 8, 3)), tmp_path / "z.hsc")
        hio.write_cube(np.zeros((8, 8, 4)), tmp_path / "mask.hsc")
        code = run("reconstruct", "--y", tmp_path / "y.hsc", "--z", tmp_path / "z.hsc",
                   "--mask", tmp_path / "mask.hsc", "--rank", 2, "--patch", 8,
                   "--out", tmp_path / "x.hsc")
        assert code == cli.EXIT_NUMERIC

    @pytest.mark.parametrize(
        "y_shape,flags,message",
        [
            (None, ("--patch", "1,2,3"), "--patch takes m or m,n, got '1,2,3'"),
            ((24, 24, 2), (), "coded measurement must have 1 band, got 2"),
            ((24, 20, 1), ("--patch", 12), "inconsistent spatial shapes"),
        ],
        ids=["three-part-patch", "two-band-y", "spatial-shapes"],
    )
    def test_bad_input_rejected(self, scene, tmp_path, capsys, y_shape, flags, message):
        _, _, out_dir = scene
        y = out_dir / "y.hsc"
        if y_shape is not None:
            y = tmp_path / "bad_y.hsc"
            hio.write_cube(np.ones(y_shape), y)
        out = tmp_path / "x.hsc"
        code = run("reconstruct", "--y", y, "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", *flags, "--out", out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_self_evaluation(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "eval.csv"
        assert run("eval", "--ref", truth, "--est", truth, "--out", out) == 0
        (row,) = read_csv(out)
        assert float(row["m_psnr"]) == 99.0
        assert float(row["m_ssim"]) == 1.0
        assert float(row["msa"]) == 0.0
        assert row["scene"] == "truth"
        assert (tmp_path / "eval.csv.manifest.txt").exists()

    def test_refmax_peak(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "eval.csv"
        assert run("eval", "--ref", truth, "--est", truth, "--peak", "refmax",
                   "--out", out) == 0
        (row,) = read_csv(out)
        assert float(row["m_psnr"]) == 99.0

    def test_labels_recorded(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "eval.csv"
        assert run("eval", "--ref", truth, "--est", truth, "--out", out,
                   "--scene", "toy", "--method", "pfusion", "--rank", 3,
                   "--patch", 100, "--stride", 50) == 0
        (row,) = read_csv(out)
        assert (row["scene"], row["method"], row["k"], row["m"], row["s"]) == (
            "toy", "pfusion", "3", "100", "50")


    @pytest.mark.parametrize(
        "flag,value",
        [("--patch", "x"), ("--peak", "nan"), ("--peak", "inf"), ("--peak", "1e-300"),
         ("--peak", "-1")],
    )
    def test_bad_flag_rejected_before_reading(self, scene, tmp_path, monkeypatch, capsys,
                                              flag, value):
        calls = {"read_cube": 0, "evaluate": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(hio, "read_cube")
        counted(metrics, "evaluate")
        cube, truth, out_dir = scene
        out = tmp_path / "eval.csv"
        code = run("eval", "--ref", truth, "--est", truth, "--out", out, flag, value)
        assert code == cli.EXIT_USAGE
        assert f"{flag} value {value!r}" in capsys.readouterr().err
        assert calls == {"read_cube": 0, "evaluate": 0}
        assert not out.exists()

    def test_peak_beyond_ssim_range(self, scene, tmp_path, capsys):
        cube, truth, out_dir = scene
        out = tmp_path / "eval.csv"
        code = run("eval", "--ref", truth, "--est", truth, "--out", out, "--peak", "1e-100")
        assert code == cli.EXIT_USAGE
        assert "peak 1e-100" in capsys.readouterr().err
        assert not out.exists()


class TestStartup:
    def test_imports_only_what_runs(self):
        # scipy.signal and scipy.linalg take ~1 s to import; every command
        # would pay it before doing any work
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import hsfuse.cli\n"
            "from hsfuse import numeric\n"
            "heavy = ('scipy.signal', 'scipy.linalg')\n"
            "before = [m for m in heavy if m in sys.modules]\n"
            "rng = np.random.default_rng(0)\n"
            "numeric.normal_lstsq(rng.random((8, 3)), rng.random(8))\n"
            "print(json.dumps([before, 'scipy.linalg' in sys.modules]))\n"
        )
        src = str(Path(hsfuse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        before, linalg_after_solve = json.loads(done.stdout)
        assert before == []
        assert linalg_after_solve


class TestSweep:
    def test_rank_sweep_monotone(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(777, 36, 36, 12, 3)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2,3",
                   "--patch", 36, "--stride", 36, "--out", out)
        assert code == 0
        rows = read_csv(out)
        assert [r["k"] for r in rows] == ["1", "2", "3"]
        psnrs = [float(r["m_psnr"]) for r in rows]
        assert psnrs == sorted(psnrs)
        assert psnrs[2] > psnrs[0]
        assert (tmp_path / "sweep.csv.manifest.txt").exists()

    def test_patch_sweep_runs(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(778, 32, 32, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--in", truth, "--vary", "patch", "--values", "16,32",
                   "--rank", 2, "--response", "average:2", "--out", out)
        assert code == 0
        rows = read_csv(out)
        assert [r["m"] for r in rows] == ["16", "32"]
        assert all(float(r["m_psnr"]) > 90.0 for r in rows)

    def test_response_sweep_average_beats_single_band(self, tmp_path):
        # needs an approximately (not exactly) low-rank scene: on exact
        # rank-3 data every full-column-rank response recovers perfectly
        cube = smooth_spectra_cube(779, 32, 32, 12)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--in", truth, "--vary", "response",
                   "--values", "average:3;single:0,1,2", "--patch", 32, "--stride", 32,
                   "--out", out)
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["m_psnr"]) > float(rows[1]["m_psnr"]) + 3.0

    def test_rectangular_patch_default_stride(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(785, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2",
                   "--response", "average:2", "--patch", "24,6", "--out", out)
        assert code == 0
        assert [r["s"] for r in read_csv(out)] == ["3", "3"]

    def test_negative_noise_rejected(self, tmp_path, capsys):
        cube, _, _ = dyadic_low_rank_cube(781, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "s.csv"
        code = run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2",
                   "--response", "average:2", "--noise-sigma", -0.5, "--patch", 24,
                   "--out", out)
        assert code == cli.EXIT_USAGE
        assert "noise-sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_measurements_made_once(self, tmp_path, monkeypatch):
        calls = {"gen_mask": 0, "simulate_multiband": 0}

        def counted(name):
            original = getattr(forward, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(forward, name, wrapper)

        counted("gen_mask")
        counted("simulate_multiband")
        cube, _, _ = dyadic_low_rank_cube(782, 24, 24, 8, 3)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        assert run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2,3",
                   "--patch", 12, "--out", tmp_path / "rank.csv") == 0
        # one mask for the sweep; the multiband response follows the rank
        assert calls == {"gen_mask": 1, "simulate_multiband": 3}
        assert run("sweep", "--in", truth, "--vary", "patch", "--values", "8,12,24",
                   "--out", tmp_path / "patch.csv") == 0
        assert calls == {"gen_mask": 2, "simulate_multiband": 4}

    def test_rows_match_per_value_measurements(self, tmp_path):
        cube = smooth_spectra_cube(783, 24, 24, 8)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2,3",
                   "--noise-sigma", 0.01, "--mask-seed", 4, "--noise-seed", 6,
                   "--patch", 12, "--out", out) == 0
        truth_cube = hio.read_cube(truth)
        expected = []
        for rank in (1, 2, 3):
            # every value measured from scratch, as each were its own simulate
            mask = forward.gen_mask(24, 24, 8, 4, 0.5)
            y = forward.add_noise(forward.simulate_cassi(truth_cube, mask), 0.01, 6)
            response = forward.response_from_spec(f"average:{rank}", 8)
            z = forward.add_noise(forward.simulate_multiband(truth_cube, response), 0.01, 7)
            xhat = fusion.pfuse(y, z, mask, fusion.FusionConfig(rank, 12, 12, 6), workers=2)
            report = metrics.evaluate(truth_cube, xhat)
            expected.append(hio.ReportRow("truth", "pfusion", rank, 12, 6, report.m_psnr,
                                          report.m_ssim, report.msa, 0.0))
        hio.write_report(expected, tmp_path / "expected.csv")
        got, want = read_csv(out), read_csv(tmp_path / "expected.csv")
        for row in got + want:
            del row["wall_seconds"]
        assert got == want

    @pytest.mark.parametrize(
        "vary,values,message",
        [
            ("rank", "2,x", "rank value 'x'"),
            ("patch", "12,0", "patch value '0'"),
            ("patch", "12,48", "patch 48x48 exceeds image 24x24"),
            ("response", "average:2;single:0", "rank 2 exceeds the channel count 1"),
            ("rank", ",", "--values is empty"),
        ],
    )
    def test_bad_value_rejected_before_simulating(self, tmp_path, monkeypatch, capsys,
                                                  vary, values, message):
        def no_mask(*_args, **_kwargs):
            raise AssertionError("simulated before validating --values")

        monkeypatch.setattr(forward, "gen_mask", no_mask)
        cube, _, _ = dyadic_low_rank_cube(784, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "s.csv"
        code = run("sweep", "--in", truth, "--vary", vary, "--values", values,
                   "--rank", 2, "--patch", 12, "--out", out)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert message in captured.err
        assert "m_psnr" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["truth.hsc"]

    def test_rank_beyond_channels_rejected(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(780, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        code = run("sweep", "--in", truth, "--vary", "rank", "--values", "4",
                   "--response", "single:0,1", "--patch", 24, "--stride", 24,
                   "--out", tmp_path / "s.csv")
        assert code == cli.EXIT_USAGE


class TestAnalyze:
    def test_patch_spectrum_drops_faster(self, tmp_path):
        cube = two_zone_cube(881, 40, 20, 0, 20, 10, rank=3)
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        out = tmp_path / "analyze.csv"
        assert run("analyze", "--in", path, "--patch", 10, "--samples", 30,
                   "--seed", 1, "--out", out) == 0
        rows = read_csv(out)
        assert len(rows) == 10
        row4 = rows[3]
        assert int(row4["index"]) == 4
        assert float(row4["patch_mean_log10_sigma"]) < float(row4["global_log10_sigma"])
        assert (tmp_path / "analyze.csv.manifest.txt").exists()

    def test_deterministic(self, tmp_path):
        cube = two_zone_cube(882, 30, 15, 0, 15, 6, rank=2)
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("analyze", "--in", path, "--patch", 8, "--samples", 10, "--out", a) == 0
        assert run("analyze", "--in", path, "--patch", 8, "--samples", 10, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_holds_one_sampled_patch_at_a_time(self, tmp_path, monkeypatch):
        cube = two_zone_cube(885, 30, 15, 0, 15, 6, rank=2)
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        patches, held = [], []
        extract_patch, singular_spectrum = core.extract_patch, metrics.singular_spectrum

        def tracked_extract(*args):
            patch = extract_patch(*args)
            patches.append(weakref.ref(patch))
            return patch

        def counting_spectrum(matrix):
            held.append(sum(ref() is not None for ref in patches))
            return singular_spectrum(matrix)

        monkeypatch.setattr(core, "extract_patch", tracked_extract)
        monkeypatch.setattr(metrics, "singular_spectrum", counting_spectrum)
        assert run("analyze", "--in", path, "--patch", 8, "--samples", 12,
                   "--out", tmp_path / "a.csv") == 0
        # one patch alive per patch spectrum, none left for the global one
        assert held == [1] * 12 + [0]

    def test_patch_too_large(self, tmp_path):
        cube = two_zone_cube(883, 20, 10, 0, 10, 4, rank=2)
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        assert run("analyze", "--in", path, "--patch", 30, "--out", tmp_path / "a.csv") == 2


class TestFlags:
    MEASUREMENT = {"--mask-seed", "--density", "--response", "--noise-sigma", "--noise-seed"}
    FUSION = {"--rank", "--patch", "--stride", "--improved", "--threads"}

    @staticmethod
    def flags(command):
        _, commands = cli._build_parser()
        return {a.option_strings[-1]: a for a in commands[command]._actions if a.option_strings}

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "eval", "sweep", "analyze"])
    def test_every_flag_has_help(self, command):
        assert [f for f, a in self.flags(command).items() if not a.help] == []

    @pytest.mark.parametrize("command,shared", [("simulate", MEASUREMENT), ("reconstruct", FUSION)],
                             ids=["simulate", "reconstruct"])
    def test_shared_flags_defined_once(self, command, shared):
        # reconstruct's --response names a file and its --out a cube; sweep's
        # are a response spec and a CSV
        own = {"--response", "--out"} if command == "reconstruct" else set()
        mine, sweep = self.flags(command), self.flags("sweep")
        common = (mine.keys() & sweep.keys()) - own
        assert shared | {"--config", "--help"} <= common
        for flag in common:
            a, b = mine[flag], sweep[flag]
            assert (a.type, a.default, a.help) == (b.type, b.default, b.help), flag


class TestMalformedCubes:
    @pytest.mark.parametrize(
        "payload,message",
        [
            (hio.MAGIC + bytes(5), "truncated header"),
            (hio.MAGIC + struct.pack("<III", 24, 24, 13) + bytes(4 * 24 * 24 * 12),
             "expected 29968 bytes, found 27664"),
            (hio.MAGIC + struct.pack("<III", 24, 0, 12), "invalid dimensions 24x0x12"),
        ],
        ids=["short-header", "dimensions-mismatch-payload", "zero-dimension"],
    )
    @pytest.mark.parametrize("command", ["reconstruct", "eval"])
    def test_exit_3_names_the_file(self, scene, tmp_path, capsys, payload, message, command):
        cube, truth, out_dir = scene
        bad = tmp_path / "bad.hsc"
        bad.write_bytes(payload)
        out = tmp_path / "out"
        if command == "reconstruct":
            code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                       "--mask", bad, "--out", out)
        else:
            code = run("eval", "--ref", truth, "--est", bad, "--out", out)
        assert code == cli.EXIT_IO
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestEarlyRejection:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sweep", "--vary", "rank", "--values", "1", "--threads", 0), "--threads must be >= 1"),
            (("simulate", "--noise-sigma", -1), "--noise-sigma must be finite"),
            (("analyze", "--samples", 0), "--samples must be >= 1"),
        ],
        ids=["sweep-threads", "simulate-noise", "analyze-samples"],
    )
    def test_cube_independent_flag_rejected_before_reading(self, scene, tmp_path, monkeypatch,
                                                          capsys, argv, message):
        reads = []
        read_cube = hio.read_cube
        monkeypatch.setattr(hio, "read_cube", lambda path: reads.append(path) or read_cube(path))
        _, truth, _ = scene
        out = tmp_path / "out"
        command, *flags = argv
        code = run(command, "--in", truth, *flags, "--out-dir" if command == "simulate" else "--out",
                   out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("payload", [None, "31 3\n0.1 0.2 0.3\n"],
                             ids=["missing", "malformed"])
    def test_bad_response_file_rejected_before_reading(self, scene, tmp_path, monkeypatch,
                                                       capsys, payload):
        reads = []
        read_cube = hio.read_cube
        monkeypatch.setattr(hio, "read_cube", lambda path: reads.append(path) or read_cube(path))
        _, _, out_dir = scene
        resp = tmp_path / "resp.txt"
        if payload is not None:
            resp.write_text(payload)
        out = tmp_path / "out.hsc"
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--improved",
                   "--response", resp, "--out", out)
        assert code == cli.EXIT_IO
        assert str(resp) in capsys.readouterr().err
        assert reads == []
        assert not out.exists()


class TestConfigHandling:
    def test_config_command_mismatch(self, scene, tmp_path):
        cube, truth, out_dir = scene
        code = run("reconstruct", "--config", out_dir / "manifest.txt",
                   "--out", tmp_path / "x.hsc")
        assert code == cli.EXIT_USAGE

    def test_simulate_rerun_from_manifest(self, scene, tmp_path):
        cube, truth, out_dir = scene
        rerun = tmp_path / "again"
        assert run("simulate", "--config", out_dir / "manifest.txt", "--out-dir", rerun) == 0
        for name in ("y.hsc", "z.hsc", "mask.hsc"):
            assert (out_dir / name).read_bytes() == (rerun / name).read_bytes()

    def test_reconstruct_manifest_records_resolved_values(self, scene, tmp_path):
        cube, truth, out_dir = scene
        out = tmp_path / "xhat.hsc"
        assert run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--threads", 2,
                   "--out", out) == 0
        entries = hio.read_manifest(f"{out}.manifest.txt")
        assert (entries["patch"], entries["stride"], entries["threads"]) == ("12,12", "6", "2")
        assert (entries["improved"], entries["response"]) == ("false", "")

    def test_eval_rerun_from_manifest(self, scene, tmp_path):
        cube, truth, out_dir = scene
        first, again = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("eval", "--ref", truth, "--est", truth, "--out", first, "--peak", "2.5",
                   "--method", "m", "--rank", 2, "--patch", "9,7", "--stride", 3) == 0
        assert hio.read_manifest(f"{first}.manifest.txt")["scene"] == "truth"
        assert run("eval", "--config", f"{first}.manifest.txt", "--out", again) == 0
        (row_first,), (row_again,) = read_csv(first), read_csv(again)
        row_first.pop("wall_seconds")
        row_again.pop("wall_seconds")
        assert row_first == row_again
        assert (row_first["method"], row_first["k"], row_first["m"]) == ("m", "2", "9")

    def test_sweep_rerun_from_manifest(self, tmp_path):
        cube, _, _ = dyadic_low_rank_cube(782, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        first, again = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sweep", "--in", truth, "--vary", "patch", "--values", "12,24",
                   "--rank", 2, "--response", "average:2", "--noise-sigma", 0.01,
                   "--improved", "--threads", 2, "--out", first) == 0
        assert run("sweep", "--config", f"{first}.manifest.txt", "--out", again) == 0
        rows_first, rows_again = read_csv(first), read_csv(again)
        assert len(rows_first) == 2
        for a, b in zip(rows_first, rows_again):
            a.pop("wall_seconds")
            b.pop("wall_seconds")
            assert a == b
        assert rows_first[0]["method"] == "pfusion-improved"

    def test_analyze_rerun_from_manifest(self, tmp_path):
        cube = two_zone_cube(884, 30, 15, 0, 15, 6, rank=2)
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        first, again = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("analyze", "--in", path, "--patch", 8, "--samples", 7, "--seed", 3,
                   "--out", first) == 0
        assert run("analyze", "--config", f"{first}.manifest.txt", "--out", again) == 0
        assert first.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize(
        "line,message",
        [
            ("bogus = 1", "unknown key 'bogus' for reconstruct"),
            ("rank = x", "bad value for 'rank': invalid literal for int()"),
            ("improved = maybe", "bad value for 'improved': expected a boolean word, got 'maybe'"),
        ],
        ids=["unknown-key", "rank", "improved"],
    )
    def test_bad_config_entry_rejected(self, scene, tmp_path, capsys, line, message):
        _, _, out_dir = scene
        config = tmp_path / "config.txt"
        config.write_text(f"command = reconstruct\n{line}\n")
        out = tmp_path / "x.hsc"
        code = run("reconstruct", "--config", config, "--y", out_dir / "y.hsc",
                   "--z", out_dir / "z.hsc", "--mask", out_dir / "mask.hsc", "--out", out)
        assert code == cli.EXIT_USAGE
        assert f"config {config}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_command_is_usage_error(self):
        assert run() == cli.EXIT_USAGE

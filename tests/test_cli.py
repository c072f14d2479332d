"""End-to-end CLI tests (run in-process through cli.main)."""

import json
import os
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hsfuse
from helpers import dyadic_low_rank_cube, rel_err, smooth_spectra_cube, two_zone_cube
from hsfuse import _blas, cli, core, forward, fusion, metrics
from hsfuse import io as hio


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def count_cube_reads(monkeypatch):
    """The paths of every cube read from here on, whole (read_cube) or by rows (CubeReader)."""
    reads = []
    read_cube, reader = hio.read_cube, hio.CubeReader
    monkeypatch.setattr(hio, "read_cube", lambda path: reads.append(path) or read_cube(path))
    monkeypatch.setattr(hio, "CubeReader", lambda path: reads.append(path) or reader(path))
    return reads


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

    @pytest.mark.parametrize("spec", ["average:x", "single:a,1", "single:1,,2"])
    def test_unparsable_response_spec_named(self, scene, tmp_path, capsys, spec):
        cube, truth, out_dir = scene
        out = tmp_path / "bad"
        assert run("simulate", "--in", truth, "--response", spec, "--out-dir", out) == 2
        assert f"bad response spec '{spec}': invalid literal for int()" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-0.5", "inf", "nan"])
    def test_bad_noise_rejected(self, scene, tmp_path, sigma):
        cube, truth, out_dir = scene
        out = tmp_path / "noisy"
        assert run("simulate", "--in", truth, "--noise-sigma", sigma, "--out-dir", out) == 2
        assert not out.exists()

    def test_overflowing_noise_refused(self, scene, tmp_path, capsys):
        # noise of sigma 1e308 overflows float64: a bad flag value, refused before anything is
        # written and without a RuntimeWarning (it used to fail writing y.hsc, exit 3)
        cube, truth, out_dir = scene
        out = tmp_path / "noisy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--in", truth, "--noise-sigma", 1e308, "--out-dir", out) == 2
        assert "noise of sigma 1e+308 overflows float64" in capsys.readouterr().err
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
        monkeypatch.setattr(fusion, "_cell_solve", no_solve)
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

    def test_omitted_threads_recorded_empty(self, scene, tmp_path):
        # pfuse, not the CLI, resolves an omitted --threads to one worker per CPU
        cube, truth, out_dir = scene
        out = tmp_path / "xhat.hsc"
        assert run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--out", out) == 0
        assert hio.read_manifest(f"{out}.manifest.txt")["threads"] == ""
        rerun = tmp_path / "rerun.hsc"
        assert run("reconstruct", "--config", f"{out}.manifest.txt", "--out", rerun) == 0
        assert out.read_bytes() == rerun.read_bytes()
        assert hio.read_manifest(f"{rerun}.manifest.txt")["threads"] == ""
        assert not hasattr(cli, "os") and not hasattr(cli, "_threads")

    def test_large_patch_stride_is_fusion_config_default(self, tmp_path):
        # the manifest records the stride that FusionConfig derives, 100 for 200x200
        truth = tmp_path / "truth.hsc"
        hio.write_cube(smooth_spectra_cube(9, 200, 200, 4), truth)
        sim = tmp_path / "sim"
        assert run("simulate", "--in", truth, "--response", "average:2", "--out-dir", sim) == 0
        out = tmp_path / "xhat.hsc"
        assert run("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                   "--mask", sim / "mask.hsc", "--rank", 2, "--patch", 200, "--out", out) == 0
        stride = hio.read_manifest(f"{out}.manifest.txt")["stride"]
        assert int(stride) == fusion.FusionConfig(patch_rows=200, patch_cols=200).stride == 100
        assert not hasattr(cli, "_fusion_config")

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
        reads = count_cube_reads(monkeypatch)
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
        err = capsys.readouterr().err
        assert message in err
        if y_shape is not None:  # a shape refusal names the file at fault
            assert f"--y {y}: {message}" in err
        assert not out.exists()


    def test_out_directory_refused_before_the_payload(self, scene, tmp_path, monkeypatch,
                                                      capsys):
        def no_payload(*_args):
            raise AssertionError("read a payload row before opening --out")

        monkeypatch.setattr(hio.CubeReader, "__getitem__", no_payload)
        _, _, out_dir = scene
        out = tmp_path / "xhat"
        out.mkdir()
        code = run("reconstruct", "--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                   "--mask", out_dir / "mask.hsc", "--patch", 12, "--out", out)
        assert code == cli.EXIT_IO
        assert f"Is a directory: '{out}'" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


class TestStreamedReconstruct:
    """reconstruct streams its cubes by rows: the bytes of the in-memory library, inputs
    read a row of cells at a time, and nothing left behind by a failed run."""

    CASES = {
        # name: (scene, simulate flags, reconstruct flags, patch rows)
        "base": ("smooth", ("--noise-sigma", 0.01), ("--patch", 12, "--stride", 4), 12),
        "fallback": ("two-zone", (), ("--rank", 2, "--patch", 8, "--stride", 4), 8),
        "improved-threads-1": ("smooth", ("--noise-sigma", 0.01),
                               ("--patch", 12, "--stride", 6, "--improved", "--threads", 1), 12),
        "improved-threads-2": ("smooth", ("--noise-sigma", 0.01),
                               ("--patch", 12, "--stride", 6, "--improved", "--threads", 2), 12),
        "improved-threads-omitted": ("smooth", ("--noise-sigma", 0.01),
                                     ("--patch", 12, "--stride", 6, "--improved"), 12),
        "clamped": ("smooth", ("--noise-sigma", 0.01), ("--patch", "11,9", "--stride", 5), 11),
    }

    @staticmethod
    def simulate(tmp_path, kind, flags):
        if kind == "smooth":  # 29 rows: no stride of these cases divides them
            cube, response = smooth_spectra_cube(31, 29, 26, 8), "average"
        else:  # windows inside the zero gap have no signal: the cell guard declines them
            cube, response = two_zone_cube(32, 29, 12, 12, 12, 6, rank=2), "average:2"
        hio.write_cube(cube, tmp_path / "truth.hsc")
        sim = tmp_path / "sim"
        assert run("simulate", "--in", tmp_path / "truth.hsc", "--mask-seed", 33,
                   "--response", response, *flags, "--out-dir", sim) == 0
        return sim

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_equal_pfuse_and_rows_read_once(self, tmp_path, monkeypatch, case):
        kind, sim_flags, flags, patch_rows = self.CASES[case]
        sim = self.simulate(tmp_path, kind, sim_flags)
        improved = "--improved" in flags
        joint = ("--response", sim / "response.txt") if improved else ()
        reads, reader = [], hio.CubeReader

        class Recording(reader):
            def __getitem__(self, span):
                reads.append((Path(self.path).name, span.start, span.stop))
                return super().__getitem__(span)

        monkeypatch.setattr(hio, "CubeReader", Recording)
        out = tmp_path / "xhat.hsc"
        assert run("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                   "--mask", sim / "mask.hsc", *flags, *joint, "--out", out) == 0
        for name in ("y.hsc", "z.hsc", "mask.hsc"):
            spans = sorted((r0, r1) for file, r0, r1 in reads if file == name)
            assert max(r1 - r0 for r0, r1 in spans) <= patch_rows
            # each row once, and the file's rows in order
            assert [r for r0, r1 in spans for r in range(r0, r1)] == list(range(29))
        monkeypatch.undo()

        y = hio.read_cube(sim / "y.hsc")[:, :, 0]
        z, mask = hio.read_cube(sim / "z.hsc"), hio.read_cube(sim / "mask.hsc")
        entries = hio.read_manifest(f"{out}.manifest.txt")
        m, n = map(int, entries["patch"].split(","))
        config = fusion.FusionConfig(int(entries["rank"]), m, n, int(entries["stride"]))
        stats = []
        xhat = fusion.pfuse(y, z, mask, config, workers=int(entries["threads"] or 1),
                            response=hio.load_response(sim / "response.txt") if improved else None,
                            stats=stats)
        hio.write_cube(xhat, tmp_path / "library.hsc")
        assert out.read_bytes() == (tmp_path / "library.hsc").read_bytes()
        solvers = {s.solver for s in stats}
        assert solvers == ({"cholesky", None} if case == "fallback" else {"cholesky"})

    @pytest.mark.parametrize("case", ["non-finite-mask", "non-finite-z", "zero-mask",
                                      "float32-overflow"])
    def test_failed_run_leaves_nothing(self, tmp_path, capsys, case):
        cube, _, _ = dyadic_low_rank_cube(34, 24, 20, 6, 3)
        mask = forward.gen_mask(24, 20, 6, 35, 0.5)
        scale = 1.0
        if case == "zero-mask":
            mask = np.zeros_like(mask)
        elif case == "float32-overflow":
            # a mask of 1e-10 asks for a scene 1e10 times the coded image: 1e40, past float32
            mask, scale = mask * 1e-10, 1e40
        sim = tmp_path / "sim"
        sim.mkdir()
        hio.write_cube(forward.simulate_cassi(cube * scale, mask)[:, :, None], sim / "y.hsc")
        hio.write_cube(forward.simulate_multiband(cube, forward.average_response(6, 3)),
                       sim / "z.hsc")
        hio.write_cube(mask, sim / "mask.hsc")
        if case.startswith("non-finite"):
            bad = sim / f"{case.rpartition('-')[2]}.hsc"
            data = bytearray(bad.read_bytes())
            data[-4 * 20 - 4 : -4 * 20] = struct.pack("<f", float("nan"))  # last band, row 22
            bad.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run("reconstruct", "--y", sim / "y.hsc", "--z", sim / "z.hsc",
                   "--mask", sim / "mask.hsc", "--patch", 8, "--stride", 4,
                   "--out", out_dir / "xhat.hsc")
        err = capsys.readouterr().err
        if case == "zero-mask":
            assert code == cli.EXIT_NUMERIC
        else:
            assert code == cli.EXIT_IO
            assert (f"{bad}: payload contains non-finite values" if case.startswith("non-finite")
                    else f"{out_dir / 'xhat.hsc'}: cube values overflow float32") in err
        assert list(out_dir.iterdir()) == []


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
         ("--peak", "-1"), ("--method", "a,b"), ("--scene", "a,b"), ("--ref", "a,b.hsc")],
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

    def test_shape_mismatch_rejected_before_reading_payloads(self, tmp_path, monkeypatch,
                                                             capsys):
        rng = np.random.default_rng(26)
        hio.write_cube(rng.random((20, 20, 4)), tmp_path / "ref.hsc")
        hio.write_cube(rng.random((20, 21, 4)), tmp_path / "est.hsc")
        payload_reads, reader = [], hio.CubeReader

        class Recording(reader):
            def __getitem__(self, span):
                payload_reads.append(Path(self.path).name)
                return super().__getitem__(span)

        monkeypatch.setattr(hio, "CubeReader", Recording)
        out = tmp_path / "eval.csv"
        code = run("eval", "--ref", tmp_path / "ref.hsc", "--est", tmp_path / "est.hsc",
                   "--out", out)
        assert code == cli.EXIT_USAGE
        assert (f"--ref {tmp_path / 'ref.hsc'}, --est {tmp_path / 'est.hsc'}: shape mismatch: "
                "reference (20, 20, 4) vs estimate (20, 21, 4)" in capsys.readouterr().err)
        assert payload_reads == []
        assert not out.exists()

    def test_opens_each_input_once(self, scene, tmp_path, monkeypatch):
        # the readers that check the headers also read the payloads
        cube, truth, out_dir = scene
        est = tmp_path / "est.hsc"
        hio.write_cube(cube * 0.9, est)
        expected = metrics.evaluate(hio.read_cube(truth), hio.read_cube(est))
        opened, reader = [], hio.CubeReader
        monkeypatch.setattr(hio, "CubeReader", lambda path: opened.append(path) or reader(path))
        monkeypatch.setattr(hio, "read_cube", lambda path: pytest.fail(f"read_cube({path})"))
        out = tmp_path / "eval.csv"
        assert run("eval", "--ref", truth, "--est", est, "--out", out) == 0
        assert opened == [str(truth), str(est)]
        (row,) = read_csv(out)
        assert [row[key] for key in ("m_psnr", "m_ssim", "msa")] == [
            f"{value:.6g}" for value in (expected.m_psnr, expected.m_ssim, expected.msa)]

    def test_peak_beyond_ssim_range(self, scene, tmp_path, monkeypatch, capsys):
        # check_peak accepts 1e-100, whose square is normal, but SSIM's constants underflow;
        # refused with --peak's other checks, before any cube is opened
        cube, truth, out_dir = scene
        reads = count_cube_reads(monkeypatch)
        out = tmp_path / "eval.csv"
        code = run("eval", "--ref", truth, "--est", truth, "--out", out, "--peak", "1e-100")
        assert code == cli.EXIT_USAGE
        assert ("bad --peak value '1e-100': peak 1e-100 is out of range for SSIM's stability "
                "constants" in capsys.readouterr().err)
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim", "truth.hsc"]


def loaded_by(argv, cwd):
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and the modules it loaded."""
    code = (
        "import json, sys\n"
        "from hsfuse import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = str(Path(hsfuse.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    exit_code, modules = json.loads(done.stdout.splitlines()[-1])
    return exit_code, set(modules)


class TestStartup:
    @pytest.mark.parametrize("argv, exit_code", [
        (["--version"], 0),
        (["--help"], 0),
        (["eval", "--help"], 0),
        (["eval", "--no-such-flag"], cli.EXIT_USAGE),
    ], ids=["version", "help", "eval-help", "unknown-flag"])
    def test_usage_loads_no_numpy(self, tmp_path, argv, exit_code):
        code, modules = loaded_by(argv, tmp_path)
        assert code == exit_code
        assert "numpy" not in modules
        assert {m for m in modules if m.startswith("hsfuse")} == {"hsfuse", "hsfuse.cli"}

    @pytest.mark.parametrize("command, loads, skips", [
        ("simulate", "hsfuse.forward", {"hsfuse.fusion", "hsfuse.metrics", "hsfuse.numeric"}),
        ("eval", "hsfuse.metrics", {"hsfuse.fusion", "hsfuse.forward", "hsfuse.numeric"}),
        ("reconstruct", "hsfuse.fusion",
         {"hsfuse.forward", "hsfuse.metrics", "concurrent.futures", "scipy.linalg"}),
    ], ids=["simulate", "eval", "reconstruct"])
    def test_command_loads_only_what_it_runs(self, scene, tmp_path, command, loads, skips):
        _, truth, sim = scene
        argv = {
            "simulate": ["--in", truth, "--out-dir", tmp_path / "sim2"],
            "eval": ["--ref", truth, "--est", truth, "--out", tmp_path / "eval.csv"],
            # one worker and the base solve: no pool, and every window keeps its Cholesky answer
            "reconstruct": ["--y", sim / "y.hsc", "--z", sim / "z.hsc", "--mask", sim / "mask.hsc",
                            "--patch", 12, "--threads", 1, "--out", tmp_path / "xhat.hsc"],
        }[command]
        if _blas.openblas() is None:
            skips = skips - {"scipy.linalg"}  # every Cholesky solve goes through scipy.linalg
        code, modules = loaded_by([command, *argv], tmp_path)
        assert code == 0
        assert loads in modules
        assert modules & skips == set()

    def test_imports_only_what_runs(self):
        # scipy.signal and scipy.linalg take ~1 s to import: no command pays it before
        # working, and a solve loads scipy.linalg only when it falls back to pivoted QR
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import hsfuse.cli\n"
            "from hsfuse import _blas, core, forward, fusion, numeric\n"
            "heavy = ('scipy.signal', 'scipy.linalg')\n"
            "before = [m for m in heavy if m in sys.modules]\n"
            "def solve(phi, rhs):  # fusion's per-window solve: Cholesky, else pivoted QR\n"
            "    x = numeric.cholesky_solve(phi.T @ phi, phi.T @ rhs)\n"
            "    return 'cholesky' if x is not None else numeric.lstsq(phi, rhs).solver\n"
            "rng = np.random.default_rng(0)\n"
            "solvers = [solve(rng.random((8, 3)), rng.random(8))]\n"
            "cube = core.fold3(rng.random((12, 3)) @ rng.random((3, 24 * 24)), 24, 24)\n"
            "mask = forward.gen_mask(24, 24, 12, 5, 0.5)\n"
            "response = forward.average_response(12, 3)\n"
            "y, z = forward.simulate_cassi(cube, mask), forward.simulate_multiband(cube, response)\n"
            "config = fusion.FusionConfig(rank=3, patch_rows=12, patch_cols=12, stride=6)\n"
            "for joint in (None, response):\n"
            "    stats = []\n"
            "    fusion.pfuse(y, z, mask, config, workers=2, response=joint, stats=stats)\n"
            "    solvers += [s.solver for s in stats]\n"
            "y[5, 5] = np.inf  # refused by lstsq's checks, before it loads scipy.linalg\n"
            "try:\n"
            "    fusion.pfuse(y, z, mask, config)\n"
            "    refused = None\n"
            "except ValueError as err:\n"
            "    refused = str(err)\n"
            "after_cholesky = 'scipy.linalg' in sys.modules\n"
            "a = rng.random((40, 2))\n"
            "declined = np.column_stack((a, a[:, 1] + 1e-6 * rng.random(40)))\n"
            "solvers.append(solve(declined, rng.random(40)))\n"
            "print(json.dumps([before, solvers, refused, after_cholesky,\n"
            "                  'scipy.linalg' in sys.modules, _blas.openblas() is not None]))\n"
        )
        src = str(Path(hsfuse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        before, solvers, refused, after_cholesky, after_qr, bound = json.loads(done.stdout)
        assert before == []
        assert solvers == ["cholesky"] * (len(solvers) - 1) + ["qr"]
        assert refused.endswith("right-hand side contains non-finite entries")
        assert after_qr
        if not bound:
            pytest.skip("numpy bundles no scipy-openblas LAPACK symbols (numpy 1.x, MKL or "
                        "Accelerate build), so every Cholesky solve goes through scipy.linalg")
        assert not after_cholesky


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

    def test_overflowing_noise_refused(self, tmp_path, capsys):
        cube, _, _ = dyadic_low_rank_cube(781, 24, 24, 8, 2)
        truth = tmp_path / "truth.hsc"
        hio.write_cube(cube, truth)
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("sweep", "--in", truth, "--vary", "rank", "--values", "1,2",
                       "--response", "average:2", "--noise-sigma", 1e308, "--patch", 24,
                       "--out", out)
        assert code == cli.EXIT_USAGE
        assert "noise of sigma 1e+308 overflows float64" in capsys.readouterr().err
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
            ("response", "average:2;average:x", "bad response spec 'average:x': invalid literal"),
            ("response", "average:2;single:0,,1", "bad response spec 'single:0,,1': invalid"),
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

    @pytest.mark.parametrize("filled", [2, 0], ids=["two-bands-filled", "all-zero"])
    def test_global_column_is_the_cube_log_spectrum(self, tmp_path, filled):
        # bands left zero give exact zero singular values, written as -inf
        cube = np.zeros((12, 12, 6))
        cube[:, :, :filled] = np.random.default_rng(886).random((12, 12, filled))
        path = tmp_path / "scene.hsc"
        hio.write_cube(cube, path)
        out = tmp_path / "a.csv"
        assert run("analyze", "--in", path, "--patch", 6, "--samples", 3, "--out", out) == 0
        with np.errstate(divide="ignore"):
            expected = np.log10(metrics.singular_spectrum(hio.read_cube(path)))
        assert "-inf" in [f"{v:.6g}" for v in expected]
        assert [r["global_log10_sigma"] for r in read_csv(out)] == [f"{v:.6g}" for v in expected]

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


SIMULATE_OUTPUTS = ("y.hsc", "z.hsc", "mask.hsc", "response.txt", "manifest.txt")


class TestEarlyRejection:
    @pytest.mark.parametrize(
        "argv,message",
        [
            # a flag's range is its argparse type's, refused as the command line is parsed
            (("sweep", "--vary", "rank", "--values", "1", "--threads", 0),
             "argument --threads: must be an integer >= 1, got '0'"),
            (("simulate", "--noise-sigma", -1), "argument --noise-sigma: must be finite and >= 0"),
            (("analyze", "--samples", 0), "argument --samples: must be an integer >= 1, got '0'"),
            (("simulate", "--density", 5), "density must be in (0, 1], got 5.0"),
            (("sweep", "--vary", "rank", "--values", "1", "--density", 5),
             "density must be in (0, 1], got 5.0"),
            (("analyze", "--patch", 0), "argument --patch: must be an integer >= 1, got '0'"),
            (("sweep", "--vary", "patch", "--values", "8", "--stride", 0),
             "stride must satisfy 1 <= stride <= min(patch dims)"),
            (("sweep", "--vary", "rank", "--values", "x"), "rank value 'x'"),
            # the --in stem is the CSV's scene field (the last --in wins)
            (("sweep", "--vary", "rank", "--values", "1", "--in", "a,b.hsc"),
             "stem 'a,b' must not contain commas"),
            # every flag is recorded in the manifest, whose lines end at a line break and
            # whose values are stripped
            (("simulate", "--response", "average "),
             "--response value 'average ' must not contain line breaks or surrounding whitespace"),
            (("sweep", "--vary", "rank", "--values", "1\n2"),
             "--values value '1\\n2' must not contain line breaks"),
            (("analyze", "--seed", 1, "--in", ""), "--in value must not be empty"),
        ],
        ids=["sweep-threads", "simulate-noise", "analyze-samples", "simulate-density",
             "sweep-density", "analyze-patch", "sweep-stride", "sweep-rank-value",
             "sweep-scene-label", "simulate-response-space", "sweep-values-newline",
             "analyze-in-empty"],
    )
    def test_cube_independent_flag_rejected_before_reading(self, scene, tmp_path, monkeypatch,
                                                          capsys, argv, message):
        reads = count_cube_reads(monkeypatch)
        _, truth, _ = scene
        out = tmp_path / "out"
        command, *flags = argv
        code = run(command, "--in", truth, *flags, "--out-dir" if command == "simulate" else "--out",
                   out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("simulate", "--response", "average:x"), "bad response spec 'average:x'"),
            (("sweep", "--vary", "response", "--values", "average:2;single:0,,1", "--rank", 2),
             "bad response spec 'single:0,,1'"),
            (("analyze", "--patch", 9999), "--patch 9999 must be in [1, 24]"),
            # a 3 x 3 patch has 9 singular values: 3 of the 12 bands' rows would be dropped
            (("analyze", "--patch", 3), "with m*m at least its 12 bands"),
        ],
        ids=["simulate-response", "sweep-response", "analyze-patch", "analyze-patch-below-bands"],
    )
    def test_cube_dependent_flag_rejected_before_the_payload(self, scene, tmp_path,
                                                             monkeypatch, capsys, argv, message):
        # the band count and image size come from the header; the payload is never read
        def no_payload(*_args):
            raise AssertionError("read the payload before checking the flags")

        monkeypatch.setattr(hio, "read_cube", no_payload)
        monkeypatch.setattr(hio.CubeReader, "__getitem__", no_payload)
        _, truth, _ = scene
        out = tmp_path / "out"
        command, *flags = argv
        code = run(command, "--in", truth, *flags, "--out-dir" if command == "simulate" else "--out",
                   out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_image_below_ssim_window_refused_from_the_header(self, tmp_path, monkeypatch,
                                                             capsys, command):
        # used to be found only by SSIM: eval after reading both cubes and scoring PSNR,
        # sweep after simulating and reconstructing its first value
        def no_payload(*_args):
            raise AssertionError("read the payload before checking SSIM's window")

        small = tmp_path / "small.hsc"
        hio.write_cube(np.random.default_rng(33).random((10, 10, 4)), small)
        monkeypatch.setattr(hio.CubeReader, "__getitem__", no_payload)
        out = tmp_path / "out.csv"
        argv = {"eval": ("--ref", small, "--est", small),
                "sweep": ("--in", small, "--vary", "rank", "--values", "1", "--patch", 5)}[command]
        assert run(command, *argv, "--out", out) == cli.EXIT_USAGE
        assert "image (10, 10) is smaller than the 11x11 SSIM window" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.hsc"]

    @pytest.mark.parametrize(
        "label,message",
        [
            # a line break is refused first by the manifest check, which runs before any command
            ("a\rb", "--method value 'a\\rb' must not contain line breaks or surrounding"),
            ('"x"', "must not contain commas, quotes or line breaks"),
        ],
        ids=["carriage-return", "quote"],
    )
    def test_eval_csv_label_rejected_before_reading(self, scene, tmp_path, monkeypatch, capsys,
                                                    label, message):
        reads = count_cube_reads(monkeypatch)
        _, truth, _ = scene
        out = tmp_path / "eval.csv"
        code = run("eval", "--ref", truth, "--est", truth, "--method", label, "--out", out)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # a path with a line break would add a manifest line of its own, such as a second y
            (("reconstruct", "--out", "x.hsc\ny = other.hsc"),
             "--out value 'x.hsc\\ny = other.hsc' must not contain line breaks"),
            (("reconstruct", "--patch", " 12"), "--patch value ' 12' must not contain"),
            (("eval", "--scene", " lab "), "--scene value ' lab ' must not contain"),
            (("eval", "--scene", ""), "--scene value must not be empty"),
            (("eval", "--ref", "dir/ lab.hsc"), "--ref value 'dir/ lab.hsc': stem ' lab' must not"),
            # refused before the command's own checks, which would refuse the other flag
            (("simulate", "--response", "single:0\n", "--density", 5),
             "--response value 'single:0\\n' must not contain line breaks"),
            (("sweep", "--vary", "rank", "--values", " 1,2", "--stride", 0),
             "--values value ' 1,2' must not contain"),
            (("analyze", "--in", "truth.hsc\npatch = 8", "--patch", 999),
             "--in value 'truth.hsc\\npatch = 8' must not contain line breaks"),
        ],
        ids=["reconstruct-out-newline", "reconstruct-patch-space", "eval-scene-spaces",
             "eval-scene-empty", "eval-ref-stem-space", "simulate-response-newline",
             "sweep-values-space", "analyze-in-newline"],
    )
    def test_value_the_manifest_would_change_rejected_before_reading(
            self, scene, tmp_path, monkeypatch, capsys, argv, message):
        reads = count_cube_reads(monkeypatch)
        _, truth, out_dir = scene
        command, *flags = argv
        inputs = {"reconstruct": ("--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                                  "--mask", out_dir / "mask.hsc", "--out", tmp_path / "x.hsc"),
                  "eval": ("--ref", truth, "--est", truth, "--out", tmp_path / "e.csv"),
                  "simulate": ("--in", truth, "--out-dir", tmp_path / "out"),
                  "sweep": ("--in", truth, "--out", tmp_path / "out" / "s.csv"),
                  "analyze": ("--in", truth, "--out", tmp_path / "out" / "a.csv")}[command]
        assert run(command, *inputs, *flags) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim", "truth.hsc"]

    @pytest.mark.parametrize("command,made", [
        ("eval", "out"), ("analyze", "out"), ("sweep", "out"), ("simulate", "out-dir"),
        ("eval", "manifest"), ("eval", "below"), ("analyze", "below"), ("sweep", "below"),
        ("reconstruct", "below"), ("simulate", "below"), ("eval", "two-below"),
        *(("simulate", name) for name in SIMULATE_OUTPUTS),
        ("eval", "--ref"), ("eval", "--est"), ("reconstruct", "--y"), ("reconstruct", "--mask"),
        ("simulate", "--in"), ("sweep", "--in"), ("analyze", "--in"), ("eval", "link"),
    ], ids=["eval-out-dir", "analyze-out-dir", "sweep-out-dir", "simulate-out-dir-file",
            "eval-manifest-dir", "eval-below-a-file", "analyze-below-a-file",
            "sweep-below-a-file", "reconstruct-below-a-file", "simulate-out-dir-below-a-file",
            "eval-two-below-a-file", *(f"simulate-{name}-dir" for name in SIMULATE_OUTPUTS),
            "eval-out-is-ref", "eval-out-is-est", "reconstruct-out-is-y",
            "reconstruct-out-is-mask", "simulate-writes-its-in", "sweep-out-is-in",
            "analyze-out-is-in", "eval-out-links-to-ref"])
    def test_unusable_output_refused_before_reading(self, scene, tmp_path, monkeypatch, capsys,
                                                    command, made):
        # an --out or manifest path that is a directory, an --out-dir that is a file, or any
        # of them below a file, used to fail only once the command had done its work (eval,
        # with its CSV written), and so did a directory at one of simulate's file names in
        # --out-dir, leaving the files written before it; the path in the way is named. An
        # output that is one of the command's inputs, under any spelling, was written over it
        _, truth, sim = scene
        blocker = tmp_path / "out"
        out = {"below": blocker / "x", "two-below": blocker / "a" / "x.csv"}.get(made, blocker)
        bad = {"manifest": tmp_path / "out.manifest.txt", **{
            name: blocker / name for name in SIMULATE_OUTPUTS}}.get(made, blocker)
        if command == "simulate" and made == "--in":
            bad = blocker / "z.hsc"
        argv = {"eval": ["--ref", truth, "--est", truth, "--out", out],
                "analyze": ["--in", truth, "--patch", 8, "--out", out],
                "sweep": ["--in", truth, "--vary", "rank", "--values", "1,2", "--patch", 12,
                          "--out", out],
                "reconstruct": ["--y", sim / "y.hsc", "--z", sim / "z.hsc", "--mask",
                                sim / "mask.hsc", "--patch", 12, "--out", out],
                "simulate": ["--in", truth, "--out-dir", out]}[command]
        if made in ("out", "manifest", *SIMULATE_OUTPUTS):
            bad.mkdir(parents=True)
        elif made == "link":  # --out spells --ref through a symbolic link
            bad.symlink_to(truth)
        elif made.startswith("--"):  # a copy of the flag's input at the output, read from there
            at = argv.index(made) + 1
            bad.parent.mkdir(exist_ok=True)
            bad.write_bytes(Path(argv[at]).read_bytes())
            argv[at] = bad
        else:
            bad.write_text("a file\n", encoding="utf-8")
        before = None if bad.is_dir() else bad.read_bytes()
        sim_files = sorted(sim.iterdir())
        reads = count_cube_reads(monkeypatch)
        assert run(command, *argv) == cli.EXIT_IO
        captured = capsys.readouterr()
        refused = {"link": "--ref"}.get(made, made)
        if refused.startswith("--"):
            out_flag = "--out-dir" if command == "simulate" else "--out"
            assert f"{out_flag} {bad} is the {refused} input" in captured.err
        else:
            kind = "Is a" if bad.is_dir() else "Not a"
            assert f"{kind} directory: '{bad}'" in captured.err
        assert captured.out == ""
        assert reads == []
        top = bad.relative_to(tmp_path).parts[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sim", "truth.hsc", top])
        if bad.parent == blocker:
            assert list(blocker.iterdir()) == [bad]
        assert sorted(sim.iterdir()) == sim_files
        assert not list(tmp_path.rglob("*.tmp"))
        assert list(bad.iterdir()) == [] if before is None else bad.read_bytes() == before
        assert bad.is_symlink() == (made == "link")

    @pytest.mark.parametrize("command,flags", [
        ("simulate", ("--out-dir", "sim2")),
        ("sweep", ("--vary", "rank", "--values", "1,2", "--patch", 12, "--out", "s.csv")),
        ("analyze", ("--patch", 8, "--samples", 3, "--out", "a.csv")),
    ], ids=["simulate", "sweep", "analyze"])
    def test_opens_its_input_once(self, scene, tmp_path, monkeypatch, command, flags):
        # the reader that checks the header also reads the payload
        _, truth, _ = scene
        reads = count_cube_reads(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert run(command, "--in", truth, *flags) == 0
        assert reads == [str(truth)]

    @pytest.mark.parametrize("payload", [None, "31 3\n0.1 0.2 0.3\n", b"31 3\n\xae\x00\n"],
                             ids=["missing", "malformed", "binary"])
    def test_bad_response_file_rejected_before_reading(self, scene, tmp_path, monkeypatch,
                                                       capsys, payload):
        reads = count_cube_reads(monkeypatch)
        _, _, out_dir = scene
        resp = tmp_path / "resp.txt"
        if isinstance(payload, bytes):
            resp.write_bytes(payload)
        elif payload is not None:
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

    def test_text_files_are_utf8_in_an_ascii_locale(self, scene, tmp_path):
        # manifests, reports and responses are UTF-8 whatever the locale: a rerun in the
        # POSIX locale, whose default encoding is ASCII, reads and writes the scene "café"
        cube, truth, out_dir = scene
        first, again = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("eval", "--ref", truth, "--est", truth, "--out", first, "--scene", "café") == 0
        env = dict(os.environ, PYTHONPATH=str(Path(hsfuse.__file__).resolve().parents[1]),
                   LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-m", "hsfuse.cli", "eval", "--config",
                               f"{first}.manifest.txt", "--out", again], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert read_csv(again)[0]["scene"] == "café"
        assert hio.read_manifest(f"{again}.manifest.txt")["scene"] == "café"

    @pytest.mark.parametrize("marked", ["config", "response"])
    def test_byte_order_marked_text_parses(self, scene, tmp_path, marked):
        # an editor may save UTF-8 with a byte-order mark: a config or a response file so saved
        # reads as without it (the mark once made the config's first key unknown, exit 2, and
        # the response's band count not a number, exit 3)
        _, _, out_dir = scene
        response, first = out_dir / "response.txt", tmp_path / "x.hsc"
        inputs = ("--y", out_dir / "y.hsc", "--z", out_dir / "z.hsc",
                  "--mask", out_dir / "mask.hsc", "--patch", 12, "--improved", "--threads", 1)
        assert run("reconstruct", *inputs, "--response", response, "--out", first) == 0
        source = {"config": Path(f"{first}.manifest.txt"), "response": response}[marked]
        copy = tmp_path / source.name
        copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        again = tmp_path / "again.hsc"
        if marked == "config":
            assert run("reconstruct", "--config", copy, "--out", again) == 0
        else:
            assert run("reconstruct", *inputs, "--response", copy, "--out", again) == 0
        assert first.read_bytes() == again.read_bytes()

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
        "command,line,message",
        [
            ("reconstruct", "bogus = 1", "unknown key 'bogus' for reconstruct"),
            ("reconstruct", "rank = x",
             "bad value for 'rank': argument --rank: invalid int value: 'x'"),
            ("reconstruct", "improved = maybe",
             "bad value for 'improved': expected a boolean word, got 'maybe'"),
            ("sweep", "vary = bogus",
             "bad value for 'vary': argument --vary: invalid choice: 'bogus'"),
            # a flag's range is its type's, so a config is refused as the command line is
            ("reconstruct", "threads = 0",
             "bad value for 'threads': argument --threads: must be an integer >= 1, got '0'"),
            ("simulate", "noise_sigma = -1",
             "bad value for 'noise_sigma': argument --noise-sigma: must be finite and >= 0"),
        ],
        ids=["unknown-key", "rank", "improved", "vary", "threads", "noise-sigma"],
    )
    def test_bad_config_entry_rejected(self, scene, tmp_path, monkeypatch, capsys, command, line,
                                       message):
        # a config value is parsed as its flag is on the command line, before any cube is read
        _, truth, sim = scene
        config = tmp_path / "config.txt"
        config.write_text(f"command = {command}\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "reconstruct": ("--y", sim / "y.hsc", "--z", sim / "z.hsc", "--mask", sim / "mask.hsc"),
            # a response sweep accepts this value, so a 'vary' read as any word would run
            "sweep": ("--in", truth, "--values", "single:0", "--rank", 1, "--patch", 12),
            "simulate": ("--in", truth),
        }[command]
        reads = count_cube_reads(monkeypatch)
        out_flag = "--out-dir" if command == "simulate" else "--out"
        assert run(command, "--config", config, *argv, out_flag, out) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config {config}: {message}" in err
        if command == "sweep":  # argparse's own wording names the choices
            choices = err.partition("choose from")[2]
            assert all(choice in choices for choice in ("rank", "patch", "response"))
        assert reads == []
        assert not out.exists() and not Path(f"{out}.manifest.txt").exists()

    def test_no_command_is_usage_error(self):
        assert run() == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "eval", "sweep", "analyze"])
    def test_manifest_write_failure_prints_no_summary(self, scene, tmp_path, monkeypatch, capsys,
                                                      command):
        _, truth, sim = scene
        argv = {
            "simulate": ("--in", truth, "--mask-seed", 5, "--out-dir", tmp_path / "out"),
            "reconstruct": ("--y", sim / "y.hsc", "--z", sim / "z.hsc", "--mask", sim / "mask.hsc",
                            "--patch", 12, "--threads", 1, "--out", tmp_path / "x.hsc"),
            "eval": ("--ref", truth, "--est", truth, "--out", tmp_path / "e.csv"),
            "sweep": ("--in", truth, "--vary", "rank", "--values", 1, "--patch", 12,
                      "--threads", 1, "--out", tmp_path / "s.csv"),
            "analyze": ("--in", truth, "--patch", 8, "--samples", 3, "--out", tmp_path / "a.csv"),
        }[command]

        def full_disk(path, entries):
            raise OSError(f"{path}: no space left on device")

        monkeypatch.setattr(hio, "write_manifest", full_disk)
        capsys.readouterr()
        assert run(command, *argv) == cli.EXIT_IO
        out, err = capsys.readouterr()
        assert err.startswith("hsfuse: i/o error: ") and "manifest.txt: no space left" in err
        # the summary follows the manifest; only a sweep's per-value lines come before it
        assert [line.partition(":")[0] for line in out.splitlines()] == (
            ["rank = 1"] if command == "sweep" else [])

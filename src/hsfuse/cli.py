"""Command-line interface wiring the library into an experiment workflow.

Commands: ``simulate`` (measure a ground-truth cube), ``reconstruct``
(patch-based fusion of the measurements), ``eval`` (metrics CSV),
``sweep`` (simulate+reconstruct+eval over a varied parameter) and
``analyze`` (patch vs. global singular spectra).

Each flag is defined once: ``sweep`` takes the measurement flags of
``simulate`` and the fusion flags of ``reconstruct`` from the same helpers,
and one command table gives every command ``--config``. Every command
writes a manifest of its configuration; rerunning with
``--config <manifest>`` reproduces the outputs bit-exactly (explicit flags
win over config values). Exit codes: 0 success, 2 usage or constraint
error (any ``ValueError``), 3 I/O or file-format error, 4 numerical failure.
"""

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, core, forward, fusion, metrics
from . import io as hio
from .numeric import RankDeficiencyError

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _bool_word(text):
    word = str(text).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean word, got {text!r}")


def _add_measurement_flags(p):
    """The simulated-measurement flags, shared by ``simulate`` and ``sweep``."""
    p.add_argument("--mask-seed", type=int, default=0, help="seed for the coded mask")
    p.add_argument("--density", type=float, default=0.5, help="mask ones density in (0, 1]")
    p.add_argument(
        "--response",
        default="average",
        help="spectral response: average[:C] | single:i,j,... | file:PATH",
    )
    p.add_argument("--noise-sigma", type=float, default=0.0, help="additive Gaussian noise std")
    p.add_argument("--noise-seed", type=int, default=1, help="seed for the noise stream")


def _add_fusion_flags(p, response_file=False):
    """The fusion flags, shared by ``reconstruct`` and ``sweep``; ``reconstruct``'s
    response file comes before --threads, so its manifests keep their key order."""
    p.add_argument("--rank", type=int, default=3, help="spectral subspace rank")
    p.add_argument("--patch", default="100", help="patch size m or m,n")
    p.add_argument("--stride", type=int, default=None,
                   help="patch stride (default min(m,n)//2, at least 1)")
    p.add_argument("--improved", action="store_true", help="joint coded+multiband basis solve")
    if response_file:
        p.add_argument("--response", help="response file (--improved only, and required there)")
    p.add_argument("--threads", type=int, default=None,
                   help="workers for per-window solves: --improved windows, and base windows "
                   "the cell-statistics guards decline (default and cap: cpu count)")


def _simulate_flags(p):
    p.add_argument("--in", dest="in_path", required=True, help="ground-truth cube (HSC1)")
    _add_measurement_flags(p)
    p.add_argument("--out-dir", required=True, help="output directory")


def _reconstruct_flags(p):
    p.add_argument("--y", required=True, help="coded measurement (1-band HSC1)")
    p.add_argument("--z", required=True, help="multiband measurement (HSC1)")
    p.add_argument("--mask", required=True, help="mask cube (HSC1)")
    _add_fusion_flags(p, response_file=True)
    p.add_argument("--out", required=True, help="output cube path")


def _eval_flags(p):
    p.add_argument("--ref", required=True, help="reference cube (HSC1)")
    p.add_argument("--est", required=True, help="estimated cube (HSC1)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--peak", default="1.0", help="PSNR/SSIM peak value, or 'refmax'")
    p.add_argument("--scene", default=None, help="scene label (default: reference stem)")
    p.add_argument("--method", default="eval", help="method label")
    p.add_argument("--rank", type=int, default=0, help="rank label for the CSV row")
    p.add_argument("--patch", default="0", help="patch label for the CSV row")
    p.add_argument("--stride", type=int, default=0, help="stride label for the CSV row")


def _sweep_flags(p):
    p.add_argument("--in", dest="in_path", required=True, help="ground-truth cube (HSC1)")
    p.add_argument("--vary", required=True, choices=("rank", "patch", "response"),
                   help="flag that --values varies")
    p.add_argument("--values", required=True,
                   help="comma-separated values (';'-separated for --vary response)")
    _add_measurement_flags(p)
    _add_fusion_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")


def _analyze_flags(p):
    p.add_argument("--in", dest="in_path", required=True, help="cube to analyse (HSC1)")
    p.add_argument("--patch", type=int, default=100, help="square patch size")
    p.add_argument("--samples", type=int, default=100, help="number of random patches")
    p.add_argument("--seed", type=int, default=0, help="seed for patch placement")
    p.add_argument("--out", required=True, help="output CSV path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hsfuse",
        description="Dual-camera compressive hyperspectral simulation and fusion reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"hsfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text, add_flags, run in (
        ("simulate", "simulate coded + multiband measurements of a cube",
         _simulate_flags, _run_simulate),
        ("reconstruct", "reconstruct a cube from measurements",
         _reconstruct_flags, _run_reconstruct),
        ("eval", "metrics of an estimate against a reference", _eval_flags, _run_eval),
        ("sweep", "simulate+reconstruct+eval over a varied parameter",
         _sweep_flags, _run_sweep),
        ("analyze", "patch vs. global singular spectra of a cube",
         _analyze_flags, _run_analyze),
    ):
        commands[name] = p = sub.add_parser(name, help=text)
        add_flags(p)
        p.add_argument("--config", help="key = value file providing flag defaults")
        p.set_defaults(func=run)
    return parser, commands


def _coercers(subparser):
    """Flag dest -> function turning a manifest/config string into its value."""
    return {
        a.dest: _bool_word if isinstance(a, argparse._StoreTrueAction) else a.type or str
        for a in subparser._actions
        if a.dest not in ("help", "config")
    }


def _config_defaults(config_path, command, subparser):
    entries = hio.read_manifest(config_path)
    coercers = _coercers(subparser)
    declared = entries.pop("command", None)
    if declared is not None and declared != command:
        raise ValueError(f"config {config_path} was written for '{declared}', not '{command}'")
    defaults = {}
    for key, value in entries.items():
        if key == "version":  # recorded in every manifest, but not a flag
            continue
        if key not in coercers:
            raise ValueError(f"config {config_path}: unknown key {key!r} for {command}")
        if value == "":
            continue
        try:
            defaults[key] = coercers[key](value)
        except ValueError as err:
            raise ValueError(f"config {config_path}: bad value for {key!r}: {err}") from err
    return defaults


def _parse_args(argv):
    # lenient pre-parse: find the command and --config before enforcing
    # required flags, so a config file can stand in for them
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    parser, commands = _build_parser()
    if known.config and known.command in commands:
        subparser = commands[known.command]
        defaults = _config_defaults(known.config, known.command, subparser)
        for action in subparser._actions:
            if action.dest in defaults:
                action.required = False
        subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _parse_patch(text):
    parts = str(text).split(",")
    try:
        dims = [int(p) for p in parts]
    except ValueError as err:
        raise ValueError(f"bad --patch value {text!r}: {err}") from err
    if len(dims) == 1:
        return dims[0], dims[0]
    if len(dims) == 2:
        return dims[0], dims[1]
    raise ValueError(f"--patch takes m or m,n, got {text!r}")


def _fusion_config(args, rank, m, n):
    """FusionConfig of the fusion flags, at this rank and patch size."""
    stride = args.stride if args.stride is not None else core.default_stride(m, n)
    return fusion.FusionConfig(rank, m, n, stride)


def _threads(args):
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


def _manifest_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return value


def _write_manifest(path, args, **resolved):
    """Record every flag of ``args``, with the values the command resolved."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    entries = {"command": args.command, "version": __version__, **flags, **resolved}
    hio.write_manifest(path, {k: _manifest_value(v) for k, v in entries.items()})


def _check_noise(args):
    if not 0 <= args.noise_sigma < float("inf"):
        raise ValueError(f"--noise-sigma must be finite and nonnegative, got {args.noise_sigma}")


def _coded(truth, args):
    """Mask and coded measurement of ``truth``, with the flags' noise."""
    rows, cols, bands = truth.shape
    mask = forward.gen_mask(rows, cols, bands, args.mask_seed, args.density)
    y = forward.simulate_cassi(truth, mask)
    if args.noise_sigma > 0:
        y = forward.add_noise(y, args.noise_sigma, args.noise_seed)
    return y, mask


def _multiband(truth, response, args):
    """Multiband measurement of ``truth``, with the flags' noise."""
    z = forward.simulate_multiband(truth, response)
    if args.noise_sigma > 0:
        z = forward.add_noise(z, args.noise_sigma, args.noise_seed + 1)
    return z


def _run_simulate(args):
    _check_noise(args)
    truth = hio.read_cube(args.in_path)
    response = forward.response_from_spec(args.response, truth.shape[2])
    y, mask = _coded(truth, args)
    z = _multiband(truth, response, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hio.write_cube(y[:, :, None], out_dir / "y.hsc")
    hio.write_cube(z, out_dir / "z.hsc")
    hio.write_cube(mask, out_dir / "mask.hsc")
    hio.save_response(response, out_dir / "response.txt")
    _write_manifest(out_dir / "manifest.txt", args)
    dead = forward.zero_spectrum_pixels(mask)
    if dead:
        plural = "pixel has" if dead == 1 else "pixels have"
        print(f"note: {dead} mask {plural} an all-zero spectrum (no coded signal there)")
    print(f"wrote y.hsc, z.hsc, mask.hsc, response.txt, manifest.txt to {out_dir}")


def _load_measurements(args):
    y3 = hio.read_cube(args.y)
    if y3.shape[2] != 1:
        raise ValueError(f"coded measurement must have 1 band, got {y3.shape[2]}")
    z = hio.read_cube(args.z)
    mask = hio.read_cube(args.mask)
    return y3[:, :, 0], z, mask


def _run_reconstruct(args):
    if args.improved and not args.response:
        raise ValueError("--improved requires --response (the base solve does not)")
    if args.response and not args.improved:
        raise ValueError("--response is used only by --improved (the base solve ignores it)")
    m, n = _parse_patch(args.patch)
    config = _fusion_config(args, args.rank, m, n)
    threads = _threads(args)
    # a bad response file fails before the cubes are read; pfuse checks its bands
    response = hio.load_response(args.response) if args.response else None
    y, z, mask = _load_measurements(args)
    start = time.perf_counter()
    xhat = fusion.pfuse(y, z, mask, config, workers=threads, response=response)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hio.write_cube(xhat, out)
    _write_manifest(f"{out}.manifest.txt", args, patch=f"{m},{n}", stride=config.stride,
                    threads=threads)
    print(f"wrote {out} ({wall:.2f} s)")


def _peak_value(text):
    if str(text).strip().lower() == "refmax":
        return None
    try:
        return metrics.check_peak(text)
    except ValueError as err:
        raise ValueError(f"bad --peak value {text!r}: {err}") from err


def _run_eval(args):
    peak = _peak_value(args.peak)
    m_label, _ = _parse_patch(args.patch)
    ref = hio.read_cube(args.ref)
    est = hio.read_cube(args.est)
    start = time.perf_counter()
    report = metrics.evaluate(
        ref, est, peak=1.0 if peak is None else peak, per_band_peak=peak is None
    )
    wall = time.perf_counter() - start
    scene = args.scene if args.scene is not None else Path(args.ref).stem
    row = hio.ReportRow(scene, args.method, args.rank, m_label, args.stride,
                        report.m_psnr, report.m_ssim, report.msa, wall)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hio.write_report([row], out)
    _write_manifest(f"{out}.manifest.txt", args, scene=scene)
    print(
        f"m_psnr = {report.m_psnr:.6g} dB, m_ssim = {report.m_ssim:.6g}, "
        f"msa = {report.msa:.6g} deg"
    )


def _positive_int(flag, text):
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise ValueError(f"bad {flag} value {text!r} in --values: expected an integer >= 1")


def _sweep_plan(args, shape):
    """(value, FusionConfig, response spec, response) per swept value, all validated
    against a truth cube of ``shape`` before anything is simulated."""
    sep = ";" if args.vary == "response" else ","
    values = [v.strip() for v in args.values.split(sep) if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    base_m, base_n = _parse_patch(args.patch)
    plan = []
    for value in values:
        rank, (m, n), resp_spec = args.rank, (base_m, base_n), args.response
        if args.vary == "rank":
            rank = _positive_int("rank", value)
            if resp_spec.partition(":")[0] == "average":
                # the multiband channel count tracks the requested rank
                resp_spec = f"average:{rank}"
        elif args.vary == "patch":
            m = n = _positive_int("patch", value)
        else:
            resp_spec = value
        config = _fusion_config(args, rank, m, n)
        response = forward.response_from_spec(resp_spec, shape[2])
        config.grid(shape, response.shape[1])
        plan.append((value, config, resp_spec, response))
    return plan


def _run_sweep(args):
    threads = _threads(args)
    _check_noise(args)
    truth = hio.read_cube(args.in_path)
    plan = _sweep_plan(args, truth.shape)
    scene = Path(args.in_path).stem
    # the mask and coded image do not depend on any swept value
    y, mask = _coded(truth, args)
    method = "pfusion-improved" if args.improved else "pfusion"
    report_rows = []
    z_spec = None
    for value, config, resp_spec, response in plan:
        if resp_spec != z_spec:
            z, z_spec = _multiband(truth, response, args), resp_spec
        start = time.perf_counter()
        xhat = fusion.pfuse(y, z, mask, config, workers=threads,
                            response=response if args.improved else None)
        wall = time.perf_counter() - start
        report = metrics.evaluate(truth, xhat)
        report_rows.append(hio.ReportRow(scene, method, config.rank, config.patch_rows,
                                         config.stride, report.m_psnr, report.m_ssim,
                                         report.msa, wall))
        print(f"{args.vary} = {value}: m_psnr = {report.m_psnr:.6g} dB")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hio.write_report(report_rows, out)
    _write_manifest(f"{out}.manifest.txt", args, threads=threads)


def _run_analyze(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    cube = hio.read_cube(args.in_path)
    rows, cols, _ = cube.shape
    m = args.patch
    if m < 1 or m > min(rows, cols):
        raise ValueError(f"--patch must be in [1, {min(rows, cols)}]")
    rng = forward.Pcg32(args.seed)

    def patches():
        # one placement at a time from the stream, so no two patches are held
        for _ in range(args.samples):
            u = rng.uniform(2)
            origin = int(u[0] * (rows - m + 1)), int(u[1] * (cols - m + 1))
            yield core.extract_patch(cube, origin, m, m)

    patch_log = metrics.mean_log_singular_spectrum(patches())
    with np.errstate(divide="ignore"):
        global_log = np.log10(metrics.singular_spectrum(cube))
    length = min(patch_log.shape[0], global_log.shape[0])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hio.write_table(
        out,
        ("index", "patch_mean_log10_sigma", "global_log10_sigma"),
        [(t + 1, float(patch_log[t]), float(global_log[t])) for t in range(length)],
    )
    _write_manifest(f"{out}.manifest.txt", args)
    print(f"wrote {length} singular-value rows to {out}")


def main(argv=None):
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse usage errors and --help/--version
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except RankDeficiencyError as exc:
        print(f"hsfuse: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (hio.FormatError, OSError) as exc:
        print(f"hsfuse: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hsfuse: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

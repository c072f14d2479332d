"""Command-line interface wiring the library into an experiment workflow.

Commands: ``simulate`` (measure a ground-truth cube), ``reconstruct``
(patch-based fusion of the measurements), ``eval`` (metrics CSV),
``sweep`` (simulate+reconstruct+eval over a varied parameter) and
``analyze`` (patch vs. global singular spectra).

Each flag is defined once: ``sweep`` takes the measurement flags of
``simulate`` and the fusion flags of ``reconstruct`` from the same helpers,
and one command table gives every command ``--config``. A command's flags are
its manifest's keys and its config's; ``_outputs`` lists the files it writes,
the manifest last. A bad value is refused in one of three places: a flag's own
range at parse time, by its argparse ``type`` and ``choices``, from the command
line and a config alike; a value the manifest would not keep, and any output
that cannot be written, in ``main`` before any input is read; ``--density``,
``--peak`` and a rule that needs another flag or a file's header, in the
command, which opens each input once and checks its header before its payload.
``main`` writes the manifest last; ``--config <manifest>`` reruns bit-exactly.
Exit codes: 0 success, 2 usage or constraint error (any ``ValueError``), 3 I/O
or file-format error, 4 numerical failure.

Each function imports the package modules it uses, so ``--version``,
``--help`` and usage errors load none of them (nor numpy), and each command
loads only the modules it runs.
"""

import argparse
import contextlib
import errno
import sys
import time
from pathlib import Path

from . import FormatError, RankDeficiencyError, __version__

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _bool_word(text):
    word = str(text).strip().lower()
    if word not in _TRUE_WORDS | _FALSE_WORDS:
        raise ValueError(f"expected a boolean word, got {text!r}")
    return word in _TRUE_WORDS


def _ranged(kind, text, ok, rule):
    """``kind(text)`` if ``ok`` holds for it; else argparse's refusal, in its own words for a
    value that is not a ``kind`` at all."""
    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


def _count(text):
    """argparse type of --threads, --samples and analyze's --patch."""
    return _ranged(int, text, lambda value: value >= 1, "an integer >= 1")


def _sigma(text):
    """argparse type of --noise-sigma."""
    return _ranged(float, text, lambda value: 0 <= value < float("inf"), "finite and >= 0")


def _add_measurement_flags(p):
    """The simulated-measurement flags, shared by ``simulate`` and ``sweep``."""
    p.add_argument("--mask-seed", type=int, default=0, help="seed for the coded mask")
    p.add_argument("--density", type=float, default=0.5, help="mask ones density in (0, 1]")
    p.add_argument("--response", default="average",
                   help="spectral response: average[:C] | single:i,j,... | file:PATH")
    p.add_argument("--noise-sigma", type=_sigma, default=0.0, help="additive Gaussian noise std")
    p.add_argument("--noise-seed", type=int, default=1, help="seed for the noise stream")


def _add_fusion_flags(p):
    """The fusion flags, shared by ``reconstruct`` and ``sweep``."""
    p.add_argument("--rank", type=int, default=3, help="spectral subspace rank")
    p.add_argument("--patch", default="100", help="patch size m or m,n")
    p.add_argument("--stride", type=int, default=None,
                   help="patch stride (default min(m,n)//2, at least 1)")
    p.add_argument("--improved", action="store_true", help="joint coded+multiband basis solve")
    p.add_argument("--threads", type=_count, default=None,
                   help="workers that make --improved windows' statistics (default and cap: "
                   "cpu count)")


def _simulate_flags(p):
    p.add_argument("--in", dest="in_path", required=True, help="ground-truth cube (HSC1)")
    _add_measurement_flags(p)
    p.add_argument("--out-dir", required=True, help="output directory")


def _reconstruct_flags(p):
    p.add_argument("--y", required=True, help="coded measurement (1-band HSC1)")
    p.add_argument("--z", required=True, help="multiband measurement (HSC1)")
    p.add_argument("--mask", required=True, help="mask cube (HSC1)")
    _add_fusion_flags(p)
    p.add_argument("--response", help="response file (--improved only, and required there)")
    p.add_argument("--out", required=True, help="output cube path")


def _eval_flags(p):
    p.add_argument("--ref", required=True, help="reference cube (HSC1)")
    p.add_argument("--est", required=True, help="estimated cube (HSC1)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--peak", default="1.0",
                   help="PSNR/SSIM peak value, or 'refmax': each band's reference maximum "
                        "as PSNR peak, and an SSIM range of 1")
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
    p.add_argument("--patch", type=_count, default=100, help="square patch size")
    p.add_argument("--samples", type=_count, default=100, help="number of random patches")
    p.add_argument("--seed", type=int, default=0, help="seed for patch placement")
    p.add_argument("--out", required=True, help="output CSV path")


def _build_parser():
    parser = argparse.ArgumentParser(prog="hsfuse", description="Dual-camera compressive "
                                     "hyperspectral simulation and fusion reconstruction.")
    parser.add_argument("--version", action="version", version=f"hsfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text, add_flags, run in (
        ("simulate", "simulate coded + multiband measurements of a cube",
         _simulate_flags, _run_simulate),
        ("reconstruct", "reconstruct a cube from measurements",
         _reconstruct_flags, _run_reconstruct),
        ("eval", "metrics of an estimate against a reference", _eval_flags, _run_eval),
        ("sweep", "simulate+reconstruct+eval over a varied parameter; holds whole cubes, "
         "as a library-scale experiment", _sweep_flags, _run_sweep),
        ("analyze", "patch vs. global singular spectra of a cube",
         _analyze_flags, _run_analyze),
    ):
        commands[name] = p = sub.add_parser(name, help=text)
        add_flags(p)
        p.add_argument("--config", help="key = value file providing flag defaults")
        p.set_defaults(func=run, parser=p)
    return parser, commands


def _flag_actions(subparser):
    """dest -> action of every flag a command's manifest records and its config accepts."""
    return {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}


def _config_defaults(config_path, command, subparser):
    from . import io as hio

    entries = hio.read_manifest(config_path)
    flags = _flag_actions(subparser)
    declared = entries.pop("command", None)
    if declared is not None and declared != command:
        raise ValueError(f"config {config_path} was written for '{declared}', not '{command}'")
    entries.pop("version", None)  # recorded in every manifest, but not a flag
    defaults = {}
    for key, text in entries.items():
        action = flags.get(key)
        if action is None:
            raise ValueError(f"config {config_path}: unknown key {key!r} for {command}")
        if text == "":
            continue
        # a value is parsed as its flag's is on the command line: its type and choices
        try:
            if isinstance(action, argparse._StoreTrueAction):
                defaults[key] = _bool_word(text)
            else:
                defaults[key] = subparser._get_value(action, text)
                subparser._check_value(action, defaults[key])
        except (ValueError, argparse.ArgumentError) as err:
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
    try:
        dims = [int(p) for p in str(text).split(",")]
    except ValueError as err:
        raise ValueError(f"bad --patch value {text!r}: {err}") from err
    if len(dims) not in (1, 2):
        raise ValueError(f"--patch takes m or m,n, got {text!r}")
    return dims[0], dims[-1]


def _shape_fault(args, y, z, mask):
    """'--flag path' of a reconstruct input whose shape is refused, or '': a coded measurement
    of more than one band, else each file whose size neither other file shares."""
    if y.shape[2] != 1:
        return f"--y {args.y}"
    sizes = [reader.shape[:2] for reader in (y, z, mask)]
    return ", ".join(f"--{flag} {getattr(args, flag)}"
                     for flag, size in zip(("y", "z", "mask"), sizes) if sizes.count(size) == 1)


def _outputs(args):
    """Every path the command writes, its manifest last."""
    if args.command == "simulate":
        return [Path(args.out_dir, name) for name in
                ("y.hsc", "z.hsc", "mask.hsc", "response.txt", "manifest.txt")]
    return [Path(args.out), Path(f"{Path(args.out)}.manifest.txt")]


def _check_run(args, outputs):
    """Refuse, before any input is read, a flag value that the command's manifest would not
    give a rerun unchanged (an empty value there means the flag's default), then any output
    that is a directory or lies below a file, naming it or else its nearest existing parent,
    and any that is a file the command reads as data (a --config file it may rewrite)."""
    from . import io as hio

    reads = []  # (flag, path) of every data file: the cubes, and a response file
    for dest, action in _flag_actions(args.parser).items():
        value, flag = getattr(args, dest), action.option_strings[0]
        if isinstance(value, str):
            if not value:
                raise ValueError(f"{flag} value must not be empty")
            hio.check_manifest_value(value, f"{flag} value")
        if dest in ("in_path", "y", "z", "mask", "ref", "est") or (
                dest == "response" and args.command == "reconstruct"):
            reads.append((flag, value))
        elif dest == "response" or (dest == "values" and args.vary == "response"):
            specs = [value] if dest == "response" else [v.strip() for v in value.split(";")]
            reads += [(flag, s.removeprefix("file:")) for s in specs if s.startswith("file:")]
    out_flag = "--out-dir" if args.command == "simulate" else "--out"
    for path in outputs:
        first = next((p for p in (path, *path.parents) if p.exists()), path)  # what a write meets
        if first == path and first.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(first))
        if first != path and not first.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(first))
        for flag, source in reads if path.is_file() else ():
            if source and Path(source).exists() and path.samefile(source):
                raise OSError(f"{out_flag} {path} is the {flag} input")


def _write_manifest(args, resolved, path):
    """Record every flag of ``args``, with the values the command resolved, at ``path``."""
    from . import io as hio

    flags = {dest: getattr(args, dest) for dest in _flag_actions(args.parser)}
    hio.write_manifest(path, {"command": args.command, "version": __version__, **flags,
                              **resolved})


def _coded(truth, args):
    """Mask and coded measurement of ``truth``, with the flags' noise."""
    from . import forward

    rows, cols, bands = truth.shape
    mask = forward.gen_mask(rows, cols, bands, args.mask_seed, args.density)
    y = forward.simulate_cassi(truth, mask)
    if args.noise_sigma > 0:
        y = forward.add_noise(y, args.noise_sigma, args.noise_seed)
    return y, mask


def _multiband(truth, response, args):
    """Multiband measurement of ``truth``, with the flags' noise."""
    from . import forward

    z = forward.simulate_multiband(truth, response)
    if args.noise_sigma > 0:
        z = forward.add_noise(z, args.noise_sigma, args.noise_seed + 1)
    return z


def _run_simulate(args, outputs):
    from . import forward
    from . import io as hio

    forward.check_density(args.density)
    # the band count from the header alone: a bad spec is refused before the payload is read
    with hio.CubeReader(args.in_path) as reader:
        response = forward.response_from_spec(args.response, reader.shape[2])
        truth = reader[:]
    y, mask = _coded(truth, args)
    z = _multiband(truth, response, args)
    for cube, path in zip((y[:, :, None], z, mask), outputs):
        hio.write_cube(cube, path)
    hio.save_response(response, outputs[3])
    dead = forward.zero_spectrum_pixels(mask)
    if dead:
        plural = "pixel has" if dead == 1 else "pixels have"
        print(f"note: {dead} mask {plural} an all-zero spectrum (no coded signal there)")
    return {}, f"wrote {', '.join(p.name for p in outputs)} to {outputs[0].parent}"


def _run_reconstruct(args, outputs):
    from . import fusion
    from . import io as hio

    if args.improved and not args.response:
        raise ValueError("--improved requires --response (the base solve does not)")
    if args.response and not args.improved:
        raise ValueError("--response is used only by --improved (the base solve ignores it)")
    m, n = _parse_patch(args.patch)
    config = fusion.FusionConfig(args.rank, m, n, args.stride)
    # a bad response file fails before the cubes are read; pfuse_rows checks its bands
    response = hio.load_response(args.response) if args.response else None
    with hio.CubeReader(args.y) as y, hio.CubeReader(args.z) as z, \
            hio.CubeReader(args.mask) as mask:
        start = time.perf_counter()
        try:
            rows = fusion.pfuse_rows(y, z, mask, config, workers=args.threads, response=response)
        except ValueError as err:  # a shape refusal, from the headers alone, names its file
            fault = _shape_fault(args, y, z, mask)
            if fault:
                raise ValueError(f"{fault}: {err}") from err
            raise
        # closing the rows first stops the pool and restores BLAS threads if a write fails
        with hio.CubeWriter(outputs[0], mask.shape) as writer, contextlib.closing(rows):
            for r0, block in rows:
                writer.write(r0, block)
        wall = time.perf_counter() - start
    return {"patch": f"{m},{n}", "stride": config.stride}, f"wrote {outputs[0]} ({wall:.2f} s)"


def _peak_value(text):
    from . import metrics

    if str(text).strip().lower() == "refmax":
        return None
    try:
        metrics._ssim_constants(text)  # check_peak's rule, and SSIM's
    except ValueError as err:
        raise ValueError(f"bad --peak value {text!r}: {err}") from err
    return float(text)


def _run_eval(args, outputs):
    from . import io as hio
    from . import metrics

    peak = _peak_value(args.peak)
    m_label, _ = _parse_patch(args.patch)
    hio.check_identifier(args.method, "--method value")
    scene = args.scene if args.scene is not None else Path(args.ref).stem
    label = "--scene value" if args.scene is not None else f"--ref value {args.ref!r}: stem"
    hio.check_manifest_value(hio.check_identifier(scene, label), label)
    with hio.CubeReader(args.ref) as ref, hio.CubeReader(args.est) as est:
        if ref.shape != est.shape:  # evaluate's own check, from the headers alone
            raise ValueError(f"--ref {args.ref}, --est {args.est}: shape mismatch: "
                             f"reference {ref.shape} vs estimate {est.shape}")
        metrics._ssim_constants(peak, ref.shape)  # SSIM's window against the header
        ref, est = ref[:], est[:]
    start = time.perf_counter()
    report = metrics.evaluate(ref, est, peak)
    wall = time.perf_counter() - start
    row = hio.ReportRow(scene, args.method, args.rank, m_label, args.stride,
                        report.m_psnr, report.m_ssim, report.msa, wall)
    hio.write_report([row], outputs[0])
    return ({"scene": scene},
            f"m_psnr = {report.m_psnr:.6g} dB, m_ssim = {report.m_ssim:.6g}, "
            f"msa = {report.msa:.6g} deg")


def _positive_int(flag, text):
    try:
        return _count(text)
    except argparse.ArgumentTypeError:
        raise ValueError(f"bad {flag} value {text!r} in --values: expected an integer >= 1")


def _sweep_plan(args):
    """(value, FusionConfig, response spec) per swept value, checked before any cube is read."""
    from . import fusion

    sep = ";" if args.vary == "response" else ","
    values = [v.strip() for v in args.values.split(sep) if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    plan = []
    for value in values:
        rank, (m, n), resp_spec = args.rank, _parse_patch(args.patch), args.response
        if args.vary == "rank":
            rank = _positive_int("rank", value)
            if resp_spec.partition(":")[0] == "average":
                # the multiband channel count tracks the requested rank
                resp_spec = f"average:{rank}"
        elif args.vary == "patch":
            m = n = _positive_int("patch", value)
        else:
            resp_spec = value
        plan.append((value, fusion.FusionConfig(rank, m, n, args.stride), resp_spec))
    return plan


def _run_sweep(args, outputs):
    from . import forward, fusion, metrics
    from . import io as hio

    forward.check_density(args.density)
    plan = _sweep_plan(args)
    scene = hio.check_identifier(Path(args.in_path).stem, f"--in value {args.in_path!r}: stem")
    with hio.CubeReader(args.in_path) as reader:  # every check of the shape, then the payload
        responses = [forward.response_from_spec(spec, reader.shape[2]) for _, _, spec in plan]
        for (_, config, _), response in zip(plan, responses):
            config.grid(reader.shape, response.shape[1])
        metrics._ssim_constants(1.0, reader.shape)  # evaluate's, at its default peak
        truth = reader[:]
    # the mask and coded image do not depend on any swept value
    y, mask = _coded(truth, args)
    method = "pfusion-improved" if args.improved else "pfusion"
    report_rows = []
    z_spec = None
    for (value, config, resp_spec), response in zip(plan, responses):
        if resp_spec != z_spec:
            z, z_spec = _multiband(truth, response, args), resp_spec
        start = time.perf_counter()
        xhat = fusion.pfuse(y, z, mask, config, workers=args.threads,
                            response=response if args.improved else None)
        wall = time.perf_counter() - start
        report = metrics.evaluate(truth, xhat)
        report_rows.append(hio.ReportRow(scene, method, config.rank, config.patch_rows,
                                         config.stride, report.m_psnr, report.m_ssim,
                                         report.msa, wall))
        print(f"{args.vary} = {value}: m_psnr = {report.m_psnr:.6g} dB")
    hio.write_report(report_rows, outputs[0])
    return {}, None  # each value's line is printed as it is done


def _run_analyze(args, outputs):
    from . import core, forward, metrics
    from . import io as hio

    m = args.patch
    with hio.CubeReader(args.in_path) as reader:  # the header checked before the payload
        rows, cols, bands = reader.shape
        if m > min(rows, cols) or m * m < bands:  # else fewer singular values than bands
            raise ValueError(f"--patch {m} must be in [1, {min(rows, cols)}] for "
                             f"{args.in_path}, with m*m at least its {bands} bands")
        cube = reader[:]
    rng = forward.Pcg32(args.seed)

    def patches():
        # one placement at a time from the stream, so no two patches are held
        for _ in range(args.samples):
            u = rng.uniform(2)
            origin = int(u[0] * (rows - m + 1)), int(u[1] * (cols - m + 1))
            yield core.extract_patch(cube, origin, m, m)

    patch_log = metrics.mean_log_singular_spectrum(patches())
    global_log = metrics.mean_log_singular_spectrum([cube])  # one spectrum's mean is itself
    table = [(t, float(p), float(g)) for t, (p, g) in enumerate(zip(patch_log, global_log), 1)]
    hio.write_table(outputs[0], ("index", "patch_mean_log10_sigma", "global_log10_sigma"), table)
    return {}, f"wrote {len(table)} singular-value rows to {outputs[0]}"


def main(argv=None):
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        outputs = _outputs(args)
        _check_run(args, outputs)
        # a command writes each output but the manifest, and returns what it resolved and a summary
        resolved, summary = args.func(args, outputs)
        _write_manifest(args, resolved, outputs[-1])
        if summary is not None:
            print(summary)
        return 0
    except SystemExit as exc:  # argparse usage errors and --help/--version
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except RankDeficiencyError as exc:
        print(f"hsfuse: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        print(f"hsfuse: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hsfuse: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

"""hsfuse benchmark: the CLI pipeline simulate -> reconstruct -> eval.

Run from the repository root::

    python3 perfbench/run.py --workload dense256 --seed 700 --seconds 58 --trace 0

The benchmark writes a ground-truth cube made from ``--seed``, then runs
the real CLI (``python -m hsfuse.cli`` with ``PYTHONPATH=src``) as child
processes, one command after another, for ``--seconds`` (at least one
pipeline; no cycle or round is started that would end after the time is
up). Every output is checked. It prints each metric with its unit, median
and range, then a last line of JSON with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and exits non-zero if any check
failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced pipelines with pipelines run through ``perfbench/spans.py`` and
reports the per-layer metrics. ``--record PATH`` also writes every sample,
check and the machine description to a JSON file. Workload choices are
explained in ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# The children get their thread settings from the workload; this process
# runs BLAS on one thread so that it adds no threads of its own.
BASE_ENV = dict(os.environ)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
NPROC = os.cpu_count() or 1
BANDS = 31
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # the run stops, killing its child, once it is this old


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # rows = cols
    exact_rank: bool  # exact rank-3 scene, else 8 decaying cosine terms
    noise_sigma: float
    reconstruct: tuple  # flags after --y/--z/--mask; "{sim}" is the simulate directory
    workers: object  # --threads value; None omits the flag
    blas_threads: object  # OPENBLAS_NUM_THREADS for the children; None leaves it unset
    patches: int
    psnr_min: float  # recorded tolerance: m_psnr_db >= psnr_min
    msa_max: float  # recorded tolerance: msa_deg <= msa_max


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scene512", 512, True, 0.0, ("--rank", "3", "--patch", "100", "--stride", "50"),
                 None, None, 100, 98.0, 1e-4),
        Workload("dense256", 256, False, 0.01, ("--rank", "3", "--patch", "40", "--stride", "10"),
                 1, "1", 529, 37.0, 8.5),
        Workload("joint256", 256, False, 0.01,
                 ("--improved", "--response", "{sim}/response.txt", "--patch", "64", "--stride", "32"),
                 NPROC, "1", 49, 37.5, 8.0),
    )
}

# (name, unit); every one is the median over the samples of a run
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("reconstruct_s", "s"),
    ("reconstruct_peak_rss_mb", "MB"),
    ("m_psnr_db", "dB"),
    ("msa_deg", "deg"),
)
# Printed and recorded with the end-to-end metrics but left out of the JSON
# line and BENCHMARK.json: these 2 s commands are mostly interpreter
# start-up, and on a shared 2-vCPU host their run medians spread by more
# than the largest bound allowed. Their time is part of pipeline_s.
UNGATED = (
    ("simulate_s", "s"),
    ("eval_s", "s"),
)
PER_LAYER = (
    ("numeric.lstsq_s", "s"),
    ("numeric.lstsq_calls", "count"),
    ("numeric.lstsq_ms_per_call", "ms"),
    ("numeric.lstsq_gflop", "GFLOP"),
    ("numeric.truncated_svd_s", "s"),
    ("fusion.estimate_coefficients_s", "s"),
    ("fusion.assemble_s", "s"),
    ("fusion.phi_mb", "MB"),
    ("fusion.pfuse_s", "s"),
    ("fusion.pfuse_self_s", "s"),
    ("fusion.workers", "count"),
    ("fusion.shrunk_patches", "count"),
    ("core.aggregate_s", "s"),
    ("core.patches", "count"),
    ("core.overlap", "ratio"),
    ("metrics.ssim_s", "s"),
    ("metrics.psnr_s", "s"),
    ("metrics.evaluate_self_s", "s"),
    ("io.read_cube_s", "s"),
    ("io.write_cube_s", "s"),
    ("io.mb_read", "MB"),
    ("io.mb_written", "MB"),
    ("forward.gen_mask_s", "s"),
    ("forward.simulate_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Abort(Exception):
    """The run outlived RUN_LIMIT_S or was asked to terminate."""


def _abort(signum, _frame):
    reason = f"run exceeded {RUN_LIMIT_S} s" if signum == signal.SIGALRM else "terminated"
    raise Abort(reason)


def write_cube(cube, path):
    """HSC1 container: magic, (rows, cols, bands) as <u4, band-sequential <f4."""
    rows, cols, bands = cube.shape
    with open(path, "wb") as fh:
        fh.write(b"HSC1" + struct.pack("<III", rows, cols, bands))
        fh.write(np.ascontiguousarray(cube.transpose(2, 0, 1), dtype="<f4").tobytes())


def read_cube_header(data):
    if data[:4] != b"HSC1" or len(data) < 16:
        return None
    return struct.unpack("<III", data[4:16])


def make_scene(workload, seed):
    """Ground truth for a workload; pixel p = i + j*rows, as in hsfuse.core.fold3."""
    rng = np.random.default_rng(seed)
    n = workload.size
    if workload.exact_rank:
        # Acceptance criterion 7: orthonormal rank-3 basis, uniform
        # coefficients. The basis is criterion 7's own (seed 700) for every
        # seed: it sets the conditioning of the multiband system and so the
        # float32-limited msa_deg, which would otherwise vary 3x between
        # seeds. The seed's own basis draw is consumed so that seed 700
        # gives criterion 7's cube exactly.
        rng.standard_normal((BANDS, 3))
        basis = np.linalg.qr(np.random.default_rng(700).standard_normal((BANDS, 3)))[0]
        coeff = rng.random((3, n * n))
    else:
        # natural-like: smooth spectra whose energy decays by 0.45 per term
        t = np.linspace(0.0, 1.0, BANDS)
        basis = np.stack([np.cos(np.pi * r * t) for r in range(8)], axis=1)
        basis = basis / np.linalg.norm(basis, axis=0) * 0.45 ** np.arange(8)
        coeff = rng.random((8, n * n))
    return (basis @ coeff).T.reshape(n, n, BANDS, order="F")


class Runner:
    """Runs CLI children one at a time, checks their outputs, counts failures.

    Outputs live in ``work``, one set per tag (``plain`` or ``traced``).
    Every output cube must match, byte for byte, the first cube of the same
    name in the run: repeats and traced runs must not change the bytes.
    """

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.truth = work / "truth.hsc"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        env = {k: v for k, v in BASE_ENV.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(ROOT / "src")
        if workload.blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = workload.blas_threads
        self.env = env

    def fail(self, message):
        """Count a command as failed: it exited non-zero or its output is wrong."""
        self.failed += 1
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def child(self, argv, span_file=None):
        """Run one CLI command; returns (wall seconds, peak RSS in MB, exit code)."""
        if span_file is None:
            cmd = [sys.executable, "-m", "hsfuse.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "spans.py"), "--spans", str(span_file), "--", *argv]
        self.attempted += 1
        proc = None
        with open(self.work / "child.log", "wb") as log:
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
            except Abort:
                if proc is not None:
                    proc.kill()
                    proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.work / "child.log").read_text(errors="replace")[-400:]
            self.fail(f"{argv[0]} exited {code}: {tail.strip()}")
        return wall, usage.ru_maxrss / 1024.0, code

    def command(self, name, tag, span_file=None):
        """Run one pipeline command and check what it wrote; None if it failed."""
        w = self.workload
        sim, xhat, report = self.work / f"sim-{tag}", self.work / f"xhat-{tag}.hsc", self.work / f"report-{tag}.csv"
        argv = {
            "simulate": ["simulate", "--in", str(self.truth), "--mask-seed", str(self.seed + 1),
                         "--density", "0.5", "--response", "average",
                         "--noise-sigma", repr(w.noise_sigma), "--noise-seed", str(self.seed + 2),
                         "--out-dir", str(sim)],
            "reconstruct": ["reconstruct", "--y", str(sim / "y.hsc"), "--z", str(sim / "z.hsc"),
                            "--mask", str(sim / "mask.hsc"),
                            *(a.format(sim=sim) for a in w.reconstruct),
                            *([] if w.workers is None else ["--threads", str(w.workers)]),
                            "--out", str(xhat)],
            "eval": ["eval", "--ref", str(self.truth), "--est", str(xhat), "--out", str(report)],
        }[name]
        outputs = {
            "simulate": {"y.hsc": sim / "y.hsc", "z.hsc": sim / "z.hsc", "mask.hsc": sim / "mask.hsc"},
            "reconstruct": {"xhat.hsc": xhat},
            "eval": {"report.csv": report},
        }[name]
        for stale in outputs.values():
            stale.unlink(missing_ok=True)
        wall, rss, code = self.child(argv, span_file)
        if code != 0:
            return None
        sample = {f"{name}_s": wall}
        if name == "reconstruct":
            sample["reconstruct_peak_rss_mb"] = rss
            self.check_cube(xhat)
        if name == "eval":
            sample.update(self.check_scores(report))
        else:
            for output, path in outputs.items():
                self.same_bytes(output, path)
        return sample

    def pipeline(self, tag="plain", traced=False):
        """simulate -> reconstruct -> eval; returns the samples, None if one failed."""
        samples = {}
        for name in ("simulate", "reconstruct", "eval"):
            sample = self.command(name, tag, self.work / f"spans-{name}.json" if traced else None)
            if sample is None:
                return None
            samples.update(sample)
        samples["pipeline_s"] = samples["simulate_s"] + samples["reconstruct_s"] + samples["eval_s"]
        if traced:
            samples.update(spans.layer_metrics(
                self.work / f"spans-{name}.json" for name in ("simulate", "reconstruct", "eval")))
        return samples

    def same_bytes(self, output, path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.digests.setdefault(output, digest) != digest:
            self.fail(f"{path.name} differs from the first {output} of the run")

    def check_cube(self, xhat):
        """xhat.hsc has the truth cube's shape and finite values."""
        data = xhat.read_bytes()
        shape = read_cube_header(data)
        with open(self.truth, "rb") as fh:
            want = read_cube_header(fh.read(16))
        if shape != want or len(data) != 16 + 4 * int(np.prod(want)):
            self.fail(f"xhat.hsc has shape {shape} and {len(data)} bytes, truth is {want}")
        elif not np.isfinite(np.frombuffer(data, dtype="<f4", offset=16)).all():
            self.fail("xhat.hsc holds non-finite values")

    def check_scores(self, report):
        """The eval CSV's scores, checked against the workload's recorded tolerance."""
        w = self.workload
        header, row = report.read_text().splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        psnr, msa = float(fields["m_psnr"]), float(fields["msa"])
        if not (psnr >= w.psnr_min and msa <= w.msa_max):
            self.fail(f"m_psnr {psnr} dB / msa {msa} deg outside the tolerance "
                      f"(>= {w.psnr_min} dB, <= {w.msa_max} deg)")
        return {"m_psnr_db": psnr, "msa_deg": msa}


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(workload, seed, threads_chosen):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = workload.blas_threads
    return {
        "nproc": NPROC,
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": "unset" if blas_threads is None else blas_threads,
        "openblas_threads": int(blas_threads) if blas_threads is not None else NPROC,
        "patch_workers": threads_chosen,
        "bench_threads": _own_threads(),
        "seed": seed,
        "pixels": workload.size * workload.size,
        "bands": BANDS,
        "patches": workload.patches,
    }


def _own_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _manifest_threads(path):
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "threads":
            return int(value)
    return None


def summarize(samples, names, extra):
    """Median and range of each metric over the run's samples."""
    out = {}
    for name, unit in names:
        values = [s[name] for s in samples if name in s] + extra.get(name, [])
        if values:
            out[name] = {"unit": unit, "median": statistics.median(values),
                         "min": min(values), "max": max(values), "n": len(values)}
    return out


def _time_left(deadline, last_took):
    """Whether a step that takes as long as the last one still ends in time."""
    return time.perf_counter() + last_took <= deadline


def short_round(runner, extra):
    """One --version, simulate and eval child on the current inputs.

    These are the short commands, mostly interpreter start-up, whose
    per-process noise is the largest; their samples join the medians.
    Returns the seconds the round took, or None if a command failed.
    """
    began = time.perf_counter()
    wall, _, code = runner.child(["--version"])
    if code != 0:
        return None
    extra["setup_s"].append(wall)
    for name in ("simulate", "eval"):
        sample = runner.command(name, "plain")
        if sample is None:
            return None
        extra[f"{name}_s"].append(sample[f"{name}_s"])
    return time.perf_counter() - began


def measure(runner, seconds, trace):
    """Returns (untraced pipelines, traced pipelines, extra samples by metric).

    Untraced, each cycle is one pipeline and one short round, so the
    samples of every command are spread over the whole run; rounds then
    fill the time no further cycle fits in. Traced, each cycle is an
    untraced and a traced pipeline. At least one cycle runs.
    """
    write_cube(make_scene(runner.workload, runner.seed), runner.truth)
    # untimed warm-up: on a fresh checkout the first child also compiles
    # the package's bytecode and fills the file cache
    if runner.child(["--version"])[2] != 0:
        return [], [], {}
    deadline = time.perf_counter() + seconds
    plain, traced, extra = [], [], defaultdict(list)
    while True:
        began = time.perf_counter()
        samples = runner.pipeline()
        if samples is None:
            return plain, traced, extra
        plain.append(samples)
        if trace:
            samples = runner.pipeline("traced", traced=True)
            if samples is None:
                return plain, traced, extra
            traced.append(samples)
        else:
            round_took = short_round(runner, extra)
            if round_took is None:
                return plain, traced, extra
        if not _time_left(deadline, time.perf_counter() - began):
            break
    if trace:
        untraced = statistics.median(s["pipeline_s"] for s in plain)
        for s in traced:
            s["trace.overhead_s"] = s["pipeline_s"] - untraced
        return plain, traced, extra

    while len(extra["setup_s"]) < SETUP_PROBES or _time_left(deadline, round_took):
        round_took = short_round(runner, extra)
        if round_took is None:
            break
    return plain, traced, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=700)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write samples, checks and environment as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hsfuse" / "cli.py").is_file():
        print(f"perfbench: no hsfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(RUN_LIMIT_S)
    runner = Runner(workload, args.seed, work)
    try:
        plain, traced, extra = measure(runner, args.seconds, bool(args.trace))
        manifest = work / "xhat-plain.hsc.manifest.txt"
        threads = _manifest_threads(manifest) if manifest.exists() else None
    except Abort as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    env = environment(workload, args.seed, threads)
    table = summarize(traced, PER_LAYER, {}) if args.trace else summarize(plain, END_TO_END + UNGATED, extra)
    ungated = {name for name, _ in UNGATED}
    correct = not runner.problems and bool(plain) and (bool(traced) or not args.trace)
    print(f"workload {workload.name}: seed {args.seed}, {env['pixels']} pixels x {BANDS} bands, "
          f"{workload.patches} patches, {len(plain)} pipelines"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f"; patch workers {threads}, OPENBLAS_NUM_THREADS {env['OPENBLAS_NUM_THREADS']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, row in table.items():
        print(f"  {name:32s} {row['median']:12.6g} {row['unit']:6s} "
              f"(median of {row['n']}, min {row['min']:.6g}, max {row['max']:.6g})"
              + (", not in BENCHMARK.json" if name in ungated else ""))
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"  {'error_rate':32s} {error_rate:12.6g} ratio  "
          f"({runner.failed} failed of {runner.attempted} commands)")
    if args.record:
        record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
                  "environment": env, "correct": correct, "attempted": runner.attempted,
                  "failed": runner.failed, "problems": runner.problems, "pipelines": plain,
                  "traced_pipelines": traced, "extra_samples": extra, "digests": runner.digests,
                  "summary": table}
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    metrics = {name: {"value": row["median"], "unit": row["unit"]}
               for name, row in table.items() if name not in ungated}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the hsfuse layers, recorded from outside the library.

Run as a script, this file stands in for ``python -m hsfuse.cli``: it wraps
the public module functions that the CLI and ``pfuse`` call through, runs
``hsfuse.cli.main`` in-process, and writes the spans to a JSON file when
the command ends::

    PYTHONPATH=src python3 perfbench/spans.py --spans OUT.json -- reconstruct ...

Imported, it turns the spans of one pipeline into the per-layer metrics
(``layer_metrics``). The library itself is not changed: every wrapped name
is looked up on its module at call time, so replacing the module attribute
is enough, and the output bytes stay those of the untraced CLI.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

MIB = float(1 << 20)


def _file_bytes(arguments, _result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _system_shape(arguments, _result):
    rows, cols = arguments["phi"].shape
    return {"rows": rows, "cols": cols}


def _result_bytes(_arguments, result):
    return {"bytes": result.nbytes}


def _coefficient_rank(arguments, result):
    return {"k": arguments["k"], "rank": result.rank}


def _patch_grid(arguments, result):
    # The grid is rebuilt from pfuse's own arguments rather than read off
    # core.aggregate, so the counts do not depend on how patches reach it.
    from hsfuse import core

    config = arguments["config"]
    rows, cols = result.shape[:2]
    grid = core.make_grid(rows, cols, config.patch_rows, config.patch_cols, config.stride)
    area = len(grid.origins) * config.patch_rows * config.patch_cols
    return {
        "workers": arguments["workers"] or 1,
        "patches": len(grid.origins),
        "overlap": area / (rows * cols),
    }


# (module, function, what to record besides the span itself)
WRAPPED = (
    ("io", "read_cube", _file_bytes),
    ("io", "write_cube", _file_bytes),
    ("forward", "gen_mask", None),
    ("forward", "simulate_cassi", None),
    ("forward", "simulate_multiband", None),
    ("forward", "add_noise", None),
    ("fusion", "pfuse", _patch_grid),
    ("fusion", "estimate_coefficients", _coefficient_rank),
    ("fusion", "assemble_phi_w", _result_bytes),
    ("fusion", "assemble_phi_rgb", _result_bytes),
    ("numeric", "lstsq", _system_shape),
    ("numeric", "truncated_svd", None),
    ("core", "aggregate", None),
    ("metrics", "evaluate", None),
    ("metrics", "band_psnr", None),
    ("metrics", "band_ssim", None),
)


class Tracer:
    """Collects spans in memory; each span knows its thread and parent.

    A span opened on a worker thread with nothing open on that thread takes
    as parent the innermost span open on the main thread, which is the
    ``pfuse`` call that owns the thread pool.
    """

    def __init__(self):
        self.spans = []
        self._stacks = defaultdict(list)
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name):
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks[thread]
            owner = stack or (self._stacks[self._main] if thread != self._main else [])
            parent = owner[-1] if owner else None
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        record = {"id": span_id, "name": name, "thread": thread, "parent": parent}
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, module, attr, measure):
        func = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if measure is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record.update(measure(bound.arguments, result))
                return result

        setattr(module, attr, traced)


def _covered(span, children):
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span["start"]
    for start, end in sorted((c["start"], c["end"]) for c in children):
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            total += end - start
            reach = end
    return total


def _qr_flop(rows, cols):
    # Householder QR with the economic Q formed explicitly (2 x (2mn^2 - 2n^3/3))
    # plus Q^T y and the residual product; pivoting and the n^2 triangular
    # solve are left out.
    return 4.0 * rows * cols * cols - 4.0 * cols**3 / 3.0 + 4.0 * rows * cols


def _command_metrics(spans):
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def self_s(name):
        return sum(s["end"] - s["start"] - _covered(s, children[s["id"]]) for s in by_name[name])

    def total(name, key):
        return sum(s[key] for s in by_name[name])

    return {
        "numeric.lstsq_s": busy("numeric.lstsq"),
        "numeric.lstsq_calls": len(by_name["numeric.lstsq"]),
        "numeric.lstsq_gflop": sum(_qr_flop(s["rows"], s["cols"]) for s in by_name["numeric.lstsq"])
        / 1e9,
        "numeric.truncated_svd_s": busy("numeric.truncated_svd"),
        "fusion.estimate_coefficients_s": busy("fusion.estimate_coefficients"),
        "fusion.assemble_s": busy("fusion.assemble_phi_w", "fusion.assemble_phi_rgb"),
        "fusion.phi_mb": (total("fusion.assemble_phi_w", "bytes") + total("fusion.assemble_phi_rgb", "bytes"))
        / MIB,
        "fusion.pfuse_s": busy("fusion.pfuse"),
        "fusion.pfuse_self_s": self_s("fusion.pfuse"),
        "fusion.workers": total("fusion.pfuse", "workers"),
        "fusion.shrunk_patches": sum(
            1 for s in by_name["fusion.estimate_coefficients"] if s["rank"] < s["k"]
        ),
        "core.aggregate_s": busy("core.aggregate"),
        "core.patches": total("fusion.pfuse", "patches"),
        "core.overlap": total("fusion.pfuse", "overlap"),
        "metrics.ssim_s": busy("metrics.band_ssim"),
        "metrics.psnr_s": busy("metrics.band_psnr"),
        "metrics.evaluate_self_s": self_s("metrics.evaluate"),
        "io.read_cube_s": busy("io.read_cube"),
        "io.write_cube_s": busy("io.write_cube"),
        "io.mb_read": total("io.read_cube", "bytes") / MIB,
        "io.mb_written": total("io.write_cube", "bytes") / MIB,
        "forward.gen_mask_s": busy("forward.gen_mask"),
        "forward.simulate_s": busy(
            "forward.simulate_cassi", "forward.simulate_multiband", "forward.add_noise"
        ),
        "cli.self_s": self_s("cli.main"),
    }


def layer_metrics(span_files):
    """Per-layer metrics of one pipeline from the span files of its commands.

    Times are busy time summed over threads; self times subtract the
    interval that child spans cover, so overlapping worker spans count once.
    """
    totals = defaultdict(float)
    for path in span_files:
        with open(path) as fh:
            for key, value in _command_metrics(json.load(fh)).items():
                totals[key] += value
    calls = totals["numeric.lstsq_calls"]
    totals["numeric.lstsq_ms_per_call"] = 1e3 * totals["numeric.lstsq_s"] / calls if calls else 0.0
    return dict(totals)


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: spans.py --spans OUT.json -- <hsfuse command> [flags]", file=sys.stderr)
        return 2
    out, cli_argv = argv[1], argv[3:]
    from hsfuse import cli

    tracer = Tracer()
    for module, attr, measure in WRAPPED:
        tracer.wrap(importlib.import_module(f"hsfuse.{module}"), attr, measure)
    try:
        with tracer.span("cli.main"):
            code = cli.main(cli_argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

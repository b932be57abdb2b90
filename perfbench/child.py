"""One staghunt CLI run in a fresh interpreter, started by perfbench/run.py.

    python3 perfbench/child.py MODE OUT_DIR CLI_ARGS...

MODE is one of:

    run    run the CLI; report wall and CPU time from the moment the spec
           reaches the experiment entry point to the moment the CLI returns,
           after its last CSV and manifest.json are written, and peak RSS.
           Also report that moment on the system-wide monotonic clock
           (spec_built_at), so the parent can time the set-up: interpreter
           start, imports, config and spec
    trace  as run, with every layer wrapped by tracing.instrument; also
           report per-layer metrics and exact counts, and save the spans
           to OUT_DIR/spans.npz

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from staghunt import cli  # noqa: E402

from tracing import Patcher, Tracer, exact_counts, instrument, layer_metrics  # noqa: E402

# Where the CLI hands the built spec to an experiment: the clock starts here.
ENTRY_POINTS = ("run_sweep", "run_tournament", "run_gridworld_comparison", "equilibrium_grid_rows")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    mode, out_dir, *cli_args = argv
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"staghunt imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2

    patcher = Patcher()
    mark: dict[str, float] = {}

    def hook(entry):
        def at_spec_built(*args, **kwargs):
            mark.setdefault("spec_built_at", time.monotonic())
            mark.setdefault("wall", time.perf_counter())
            mark.setdefault("cpu", _cpu_s())
            return entry(*args, **kwargs)

        return at_spec_built

    if not any([patcher.patch(cli, name, hook) for name in ENTRY_POINTS]):
        print("no experiment entry point found in staghunt.cli", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        instrument(tracer, patcher)

    argv = ["--out", out_dir, *cli_args]
    report: dict = {"python": platform.python_version(), "numpy": np.__version__}
    main_fn = tracer.span("cli.main", cli.main) if tracer else cli.main
    rc = main_fn(argv)
    wall = time.perf_counter() - mark["wall"]
    cpu = _cpu_s() - mark["cpu"]
    unrestored = patcher.restore()
    if rc != 0 or unrestored:
        print(f"exit code {rc}; not restored: {unrestored}", file=sys.stderr)
        return 1
    report.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_mb(), spec_built_at=mark["spec_built_at"])
    if tracer is not None:
        stats = tracer.span_stats()
        counts = exact_counts(tracer, stats)
        report.update(counts=counts, layers=layer_metrics(tracer, stats, counts), spans=len(tracer.start))
        tracer.save(Path(out_dir) / "spans.npz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

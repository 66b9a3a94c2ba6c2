"""Benchmark of the bicausal package.

Run from the repository root:

    python3 bench/run.py --workload mc_large_n --seed 1 --seconds 15 --trace 0

The workloads are defined in ``bench/workloads.py``. With ``--trace 0`` the
run repeats untraced passes of the workload for ``--seconds`` seconds and
reports the end-to-end metrics: the median pass time ``wall_s``, the median
set-up time ``setup_s`` (this process's set-up plus fresh-process set-up
probes) and the peak resident memory ``peak_rss_mb``. With ``--trace 1`` it
alternates untraced and traced passes for ``--seconds`` seconds and reports
the per-layer metrics of ``bench/tracing.py``, plus the tracing overhead.
The metrics printed, and their units, are the ones ``BENCHMARK.json``
declares for the mode.

Every pass's outputs are checked. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a fuller report (sample counts, cells or
rows per second, checks, output digest, machine facts), which is also
written to ``.bench_out/<workload>/result.json``. The package is imported
from ``src/`` of the current directory, and every file the benchmark writes
is under ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = Path(".bench_out")
SETUP_PROBES = 4
NOTES = [
    "no wait metric: the program is single-threaded and has no queues",
    "sem.bytes_out is computed from the sampled arrays' sizes, not measured memory traffic",
]


def import_package():
    src = Path("src").resolve()
    if not (src / "bicausal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bicausal sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    bc = importlib.import_module("bicausal")
    if Path(bc.__file__).resolve().parent != src / "bicausal":
        raise SystemExit(f"bench: imported bicausal from {bc.__file__}, not from {src}")
    return bc


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_caps": {v: os.environ.get(v) for v in BLAS_CAPS},
        "git_commit": git_commit(),
    }


def spread(values) -> dict:
    vals = sorted(values)
    out = {"median": statistics.median(vals), "samples": len(vals), "min": vals[0], "max": vals[-1]}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out["iqr_over_median"] = (q3 - q1) / out["median"]
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: start of run.py to its first timed pass."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """Operations, failures and checks over all passes of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.counts = None
        self.failed_checks: list[tuple[str, str]] = []
        self.digests: set[str] = set()
        self.last = None

    def add(self, outcome) -> None:
        self.attempted += outcome.ops + len(outcome.checks)
        self.failed += outcome.failed + sum(not ok for _, ok, _ in outcome.checks)
        self.failed_checks += [(name, detail) for name, ok, detail in outcome.checks if not ok]
        self.digests.add(outcome.digest)
        if self.counts is not None and outcome.counts != self.counts:
            self.extra_failure("counts_repeat", f"{outcome.counts} != {self.counts}")
        self.counts = outcome.counts
        self.last = outcome

    def extra_failure(self, name: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failed_checks.append((name, detail))


def timed_pass(wl) -> tuple[float, object]:
    gc.collect()
    t0 = time.perf_counter()
    res = wl.run()
    return time.perf_counter() - t0, res


def run_untraced(wl, seconds: float, tally: Tally) -> list[float]:
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        wall, res = timed_pass(wl)
        walls.append(wall)
        tally.add(wl.evaluate(res))
    return walls


def run_traced(bc, wl, seconds: float, tally: Tally):
    walls, traced_walls, layers, tracers = [], [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        wall, res = timed_pass(wl)
        walls.append(wall)
        tally.add(wl.evaluate(res))
        tracer = Tracer(bc.BicausalError)
        with tracer:
            wall, res = timed_pass(wl)
        if not all(getattr(mod, attr) is fn for mod, attr, fn in tracer.patched):
            tally.extra_failure("trace_restored", "a wrapped function was not restored")
        tally.add(wl.evaluate(res))
        traced_walls.append(wall)
        layers.append(layer_metrics(tracer, wall))
        tracers.append(tracer)
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                tally.extra_failure("trace_counts_repeat", f"{key}: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return metrics, walls, traced_walls, tracers


def save_spans(path: Path, workload: str, tracers) -> None:
    """One set of span arrays per traced pass; parents index within the pass."""
    arrays = {f"pass{i}_{k}": v for i, t in enumerate(tracers) for k, v in t.arrays().items()}
    np.savez(path, workload=np.array(workload), names=np.array(tracers[0].names), **arrays)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    bc = import_package()
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](bc, args.seed, outdir)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        metrics, walls, traced_walls, tracers = run_traced(bc, wl, args.seconds, tally)
        save_spans(outdir / "spans.npz", args.workload, tracers)
        report["traced_wall_s"] = spread(traced_walls)
        report["counters"] = tracers[-1].counters
        report["notes"] = NOTES
    else:
        walls = run_untraced(wl, args.seconds, tally)
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        report["setup_s"] = spread(setups)
        metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)}
    # Set-up probes are child processes, which RUSAGE_SELF leaves out.
    metrics["peak_rss_mb"] = report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls)
    last = tally.last
    report["wall_s"] = spread(walls)
    if last.cells:
        report["cells_per_pass"] = last.cells
        report["cells_per_s"] = last.cells / wall
    if last.rows:
        report["rows_per_pass"] = last.rows
        report["rows_per_s"] = last.rows / wall
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ops_frac=tally.failed / tally.attempted,
        failed_checks=tally.failed_checks,
        checks=[name for name, _, _ in last.checks],
        output_digest=sorted(tally.digests),
        machine=machine(),
        metrics=metrics,
    )
    (outdir / "result.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    declared = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""solvdeg benchmark: one workload, timed passes, checked answers.

Run from the root of a solvdeg checkout:

    python3 perfbench/run.py --workload presets-solve --seed 0 --seconds 30 --trace 0

A run starts WORKERS fresh processes, one after the other.  Each
imports solvdeg from the checkout's ``src`` directory and builds the
workload's inputs from the seed (the timed set-up).  The first
``workload.processes`` of them then share ``--seconds`` and run cold
passes (every ``functools.lru_cache`` in solvdeg cleared first), checking
every answer; the others only set up.  Each hands its raw data to this
process as one JSON line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
describe the machine and print each metric by name with its unit.  In a
traced run, untraced and traced passes alternate (worker 0 starts with
an untraced one, worker 1 with a traced one, ...), and the difference
of their median walls is the tracing overhead.  See perfbench/README.md
for the workloads and for which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from here, before numpy

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 8          # processes per run; each times one set-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("macaulay.solve_s", "s"),
    ("macaulay.self_s", "s"),
    ("macaulay.rows_fed", "count"),
    ("macaulay.rank", "count"),
    ("macaulay.degree_falls", "count"),
    ("macaulay.degrees_tried", "count"),
    ("macaulay.useful_row_ratio", "ratio"),
    ("linalg.add_rows_s", "s"),
    ("linalg.add_rows_calls", "count"),
    ("linalg.rows_in", "count"),
    ("linalg.pivot_yield", "ratio"),
    ("linalg.mod_p_s", "s"),
    ("linalg.mod_p_calls", "count"),
    ("linalg.mod_p_mb", "MB-computed"),
    ("linalg.other_s", "s"),
    ("linalg.reducers_built", "count"),
    ("groebner.certify_s", "s"),
    ("groebner.certify_calls", "count"),
    ("groebner.normal_form_s", "s"),
    ("groebner.normal_form_calls", "count"),
    ("groebner.reduce_basis_s", "s"),
    ("groebner.oracle_s", "s"),
    ("analyze.hilbert_calls", "count"),
    ("analyze.hilbert_s", "s"),
    ("analyze.rank_blocks", "count"),
    ("analyze.semiregular_s", "s"),
    ("analyze.regularity_s", "s"),
    ("bounds.series_s", "s"),
    ("bounds.series_calls", "count"),
    ("bounds.closed_form_s", "s"),
    ("bounds.closed_form_calls", "count"),
    ("tabledata.reference_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 gives the acceptance tests' inputs")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget for the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare_process() -> None:
    """Run BLAS on one thread and import solvdeg from this checkout.

    One thread, not nproc: OpenBLAS threads spin while they wait for
    each other, so on a small shared machine two threads made whole runs
    10-25% slower or faster at random, while one thread repeats within a
    few percent.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "solvdeg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no solvdeg package under {src}")
    sys.path.insert(0, str(src))
    import solvdeg

    if Path(solvdeg.__file__).resolve().parent != src / "solvdeg":
        sys.exit(f"perfbench: imported solvdeg from {solvdeg.__file__}, "
                 f"not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _lru_caches() -> list:
    """Every functools cache at module level in the solvdeg package."""
    caches = set()
    for name, mod in list(sys.modules.items()):
        if name == "solvdeg" or name.startswith("solvdeg."):
            caches.update(obj for obj in vars(mod).values()
                          if callable(getattr(obj, "cache_clear", None)))
    return sorted(caches, key=lambda c: c.__qualname__)


def _layer_values(totals) -> dict:
    """The declared per-layer metrics of one pass, ratios derived."""
    rows_in = totals["linalg.rows_in"]
    final = totals["macaulay.final_rows"]
    totals["linalg.pivot_yield"] = (totals["linalg.pivots"] / rows_in
                                    if rows_in else 0.0)
    totals["macaulay.useful_row_ratio"] = (totals["macaulay.rank"] / final
                                           if final else 0.0)
    totals["linalg.mod_p_mb"] = totals["linalg.mod_p_bytes"] / 1e6
    return {name: totals[name] for name, _ in PER_LAYER
            if not name.startswith("trace.")}


class Worker:
    """Runs the cold passes of one workload in this process."""

    def __init__(self, workload):
        import layers

        self.workload = workload
        self.probe = layers.LayerProbe()
        self.new_totals = layers.new_totals
        self.caches = _lru_caches()
        self.passes: list[dict] = []
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []
        self.problems: list[str] = []

    def one_pass(self, traced: bool) -> float:
        """Run, check and record one cold pass; returns its wall time."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        if not self.probe.is_clean():
            self.problems.append("a layer wrapper was installed before a pass")
        totals = self.new_totals()
        if traced:
            self.probe.install(totals)
            if self.probe.is_clean():
                self.problems.append("tracing installed no wrapper")
        try:
            res = self.workload.run_pass(totals)
        finally:
            self.probe.restore()
        misses = [c.cache_info().misses for c in self.caches]
        failed, notes = self.workload.check(res.answers, totals)
        self.failed += failed
        self.attempted += len(res.item_s)
        if not self.passes:
            self.notes = notes
        self.passes.append({"traced": traced, "wall_s": res.wall_s,
                            "item_s": res.item_s, "misses": misses,
                            "layers": _layer_values(totals)})
        return res.wall_s

    def run(self, seconds: float, trace: bool, index: int) -> None:
        """Passes until the next one would overrun `seconds`.

        When `seconds` > 0, at least one pass, or two with tracing.  With
        tracing, pass j of worker `index` is traced when index + j is odd,
        so untraced and traced passes alternate within and across workers.
        """
        begin = time.perf_counter()
        least = 2 if trace else 1
        last = 0.0
        while seconds > 0 and (len(self.passes) < least or
                               time.perf_counter() - begin + last <= seconds):
            last = self.one_pass(trace and (index + len(self.passes)) % 2 == 1)

    def report(self, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "passes": self.passes,
            "failed": self.failed,
            "attempted": self.attempted,
            "notes": self.notes,
            "problems": self.problems,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def _spawn(args, extra: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--seed", str(args.seed), "--trace", str(args.trace), *extra],
        capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    return proc


def _run_workers(args, processes: int) -> list[dict]:
    reports = []
    for index in range(WORKERS):
        share = args.seconds / processes if index < processes else 0.0
        proc = _spawn(args, ["--workload", args.workload, "--worker", str(index),
                             "--seconds", str(share)])
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker {index} exited with {proc.returncode}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    return reports


def _end_to_end(reports: list[dict]) -> dict:
    """Medians over passes; item percentiles over each item's median.

    Each item's latency is first reduced to its median over the run's
    passes, which drops the spikes that hit some item in most passes;
    the percentiles are then interpolated between those medians.  In
    small-solve the items ranked 108th and 109th of 120 take 6.3 and
    7.8 ms, so a p90 taken within each pass followed any spike below it.
    """
    passes = [p for r in reports for p in r["passes"]]
    per_item = [statistics.median(times)
                for times in zip(*(p["item_s"] for p in passes))]
    cuts = statistics.quantiles(per_item, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": 1e3 * cuts[4],
        "item_p90_ms": 1e3 * cuts[8],
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def _per_layer(reports: list[dict], problems: list[str]) -> dict:
    passes = [p for r in reports for p in r["passes"]]
    rows = [p["layers"] for p in passes if p["traced"]]
    units = dict(PER_LAYER)
    for name in rows[0]:
        if units[name] != "s" and len({r[name] for r in rows}) != 1:
            problems.append(f"{name} differs between traced passes: "
                            f"{[r[name] for r in rows]}")
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    # A worker's first pass is slower while its heap grows; leave it out
    # of the overhead when both kinds of pass remain without it.
    later = [p for r in reports for p in r["passes"][1:]]
    if len({p["traced"] for p in later}) == 2:
        passes = later
    out["trace.wall_s"] = statistics.median(
        p["wall_s"] for p in passes if p["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in passes if not p["traced"])
    return out


def _metric(value: float, unit: str) -> dict:
    if unit == "count":
        value = int(value)
    return {"value": value, "unit": unit}


def _run_all(args, names) -> int:
    """Run every workload in its own process; prefix its lines with its name."""
    ok = True
    for name in names:
        proc = _spawn(args, ["--workload", name, "--seconds", str(args.seconds)])
        for line in proc.stdout.splitlines():
            print(f"[{name}] {line}")
        ok = ok and proc.returncode == 0 and json.loads(
            proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit, on which subprocess.run kills and reaps
    # the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    args = _parse_args(argv)
    _prepare_process()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from all, {', '.join(WORKLOADS)}")
    if args.worker is not None:
        workload = WORKLOADS[args.workload](args.seed)
        setup_s = time.perf_counter() - _STARTED
        worker = Worker(workload)
        worker.run(args.seconds, bool(args.trace), args.worker)
        print(json.dumps(worker.report(setup_s)))
        return 0

    print("machine " + json.dumps(_machine(), sort_keys=True))
    reports = _run_workers(args, WORKLOADS[args.workload].processes)
    problems = [p for r in reports for p in r["problems"]]
    passes = [p for r in reports for p in r["passes"]]
    if len({tuple(p["misses"]) for p in passes}) != 1:
        problems.append("lru_cache misses differ between passes: "
                        "a pass was not cold")
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    for note in reports[0]["notes"]:
        print(f"{args.workload} {note}")
    traced = sum(p["traced"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} cold passes "
          f"({traced} traced) in {WORKLOADS[args.workload].processes} "
          f"processes, {attempted} answers checked")
    if args.trace:
        values, declared = _per_layer(reports, problems), PER_LAYER
    else:
        values, declared = _end_to_end(reports), END_TO_END
    metrics = {name: _metric(values[name], unit) for name, unit in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_frac {failed / attempted} frac ({failed} of {attempted})")
    for problem in problems:
        print(f"perfbench self-test failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Timed and traced runs of one workload, with their output checks.

An untraced run (--trace 0) measures the end-to-end metrics:
  peak_mem_mb  tracemalloc peak over one cold set-up plus run, in its own
               untimed pass; that pass is also the warm-up (scipy.fft plans,
               first-touch memory) before anything is timed
  setup_s      cold set-up: clear the kernel-table cache, then run every
               config of the workload with t_final = 0
  run_s        wall time of full runs of every config, with the table warm
Set-up passes and run passes alternate for --seconds (at least three
set-up passes); after each set-up pass, run passes follow until they have
taken at least twice as long as it did (run_s is the noisier of the two).

Both times are calibrated against the host's speed.  A fixed reference
computation (`reference`), which no change to the package can speed up or
slow down, runs before the first config and after every config's set-up or run;
each of those wall times is divided by the mean of the reference's times on
either side of it.  setup_s and run_s sum, over the workload's configs, the
median of each config's ratios over the whole run, times REFERENCE_S: wall
times as on a host where the reference takes REFERENCE_S.
On a shared host, other tenants slow stretches of a run by up to 65 %, and
the reference slows with the program; bench/README.md gives the spread across
processes with and without calibration.  The plain wall-time medians, every
ratio and every reference time are in the results file.

A traced run (--trace 1) alternates an untraced pass of full runs with a
traced pass (cold set-up plus full runs) and reports the layer metrics per
traced pass.  Every full run in either mode has its output checked; a run
that raises or fails a check counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

import bootstrap
import spans
import workloads
from wigsolve import dynamics, kernels

MIN_REPEATS = 3
RUN_SHARE = 2  # run passes after a set-up pass last at least this many times as long
MAX_PROBLEMS = 20  # problem messages kept in the results file
RESULTS_DIR = bootstrap.ROOT / "bench" / "results"
# The calibration reference (see `reference`): its two parts, and the scale
# of the calibrated times, about its wall time on a quiet 2.1 GHz Xeon vCPU.
REFERENCE_LOOPS = 400_000
REFERENCE_KERNELS = 160
REFERENCE_S = 0.05
_rng = np.random.default_rng(0)
_FIELD = _rng.random((420, 128))  # the size of stream2d's field
_LEFT, _RIGHT = _rng.random((128, 21, 21)), _rng.random((128, 21, 20))
_PRODUCT, _SCRATCH = np.empty((128, 21, 20)), np.empty_like(_FIELD)


def metric_spec() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def solve(cfg):
    """Run a config through evolve or evolve_4d, looked up at call time."""
    return dynamics.evolve(cfg) if cfg.spatial_dims == 1 else dynamics.evolve_4d(cfg)


@dataclass
class Tally:
    """Checked full runs: counts, problems and the last diagnostics per config."""

    workload: str
    seed: int
    quick: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def _fail(self, message: str):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def run(self, name: str, cfg) -> float | None:
        """One full run and its checks; its wall time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = solve(cfg)
        except Exception:  # a raising run is a failed run; the workload goes on
            self._fail(f"{name}: {traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        problems, self.diagnostics[name] = workloads.check(
            self.workload, name, cfg, output, self.seed, self.quick
        )
        if problems:
            self._fail("; ".join(problems))
        return elapsed

    def full_pass(self, configs: dict) -> dict[str, float]:
        """One full run of every config; {config: wall time} of those that ran."""
        times = {name: self.run(name, cfg) for name, cfg in configs.items()}
        return {name: t for name, t in times.items() if t is not None}


def cold_setup(cfg) -> float:
    """Wall time of one config at t_final = 0 (the caller empties the cache)."""
    start = time.perf_counter()
    solve(cfg)
    return time.perf_counter() - start


def setup_pass(setup_configs: dict) -> dict[str, float]:
    """Cold set-up: empty the table cache, then every config at t_final = 0.

    Each config has its own table, so every config's set-up is cold.
    """
    kernels.clear_table_cache()
    return {name: cold_setup(cfg) for name, cfg in setup_configs.items()}


def fastest(passes: list[dict[str, float]]) -> float:
    """Sum over configs of each config's fastest time."""
    names = set().union(*passes)
    return sum(min(p[name] for p in passes if name in p) for name in names)


def reference() -> float:
    """Wall time of the calibration reference, which uses nothing of the package.

    An interpreter-bound loop, then numpy kernels of the kinds the solver
    runs (batched small matrix products, elementwise exp and products), in
    about equal shares of the time: contention on a shared host slows the two
    kinds of work differently, and the solver does both.  The kernels write
    into arrays allocated once, so the reference leaves the memory allocator
    as it found it; with fresh temporaries the set-up of stream2d took 30 %
    less in some processes than in others.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    for _ in range(REFERENCE_KERNELS):
        np.matmul(_LEFT, _RIGHT, out=_PRODUCT)
        np.multiply(_FIELD, 0.001, out=_SCRATCH)
        np.exp(_SCRATCH, out=_SCRATCH)
        np.multiply(_SCRATCH, _FIELD, out=_SCRATCH)
    return time.perf_counter() - start


def untraced(configs, setup_configs, seconds, tally) -> tuple[dict, dict]:
    tracemalloc.start()
    try:
        kernels.clear_table_cache()
        tally.full_pass(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walls = {"setup_s": {}, "run_s": {}}  # {metric: {config: [wall time]}}
    ratios = {"setup_s": {}, "run_s": {}}  # the same over the reference's time
    references = [reference()]

    def calibrated(metric: str, name: str, wall: float):
        references.append(reference())
        walls[metric].setdefault(name, []).append(wall)
        ratios[metric].setdefault(name, []).append(wall / statistics.fmean(references[-2:]))

    def run_pass():
        for name, cfg in configs.items():
            wall = tally.run(name, cfg)
            if wall is not None:
                calibrated("run_s", name, wall)

    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_REPEATS or time.perf_counter() < deadline:
        passes += 1
        kernels.clear_table_cache()
        start = time.perf_counter()
        for name, cfg in setup_configs.items():
            calibrated("setup_s", name, cold_setup(cfg))
        now = time.perf_counter()
        stop = now + RUN_SHARE * (now - start)
        run_pass()  # the set-up left the tables warm
        while time.perf_counter() < stop:
            run_pass()

    def config_sum(per_config: dict) -> float:
        return sum(statistics.median(times) for times in per_config.values())

    metrics = {m: REFERENCE_S * config_sum(r) for m, r in ratios.items()}
    metrics["peak_mem_mb"] = peak / 1e6
    samples = {
        "wall_median_s": {m: config_sum(w) for m, w in walls.items()},
        "wall_s": walls,
        "calibrated_ratios": ratios,
        "reference_s": references,
    }
    return metrics, samples


def traced(configs, setup_configs, seconds, tally) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    kernels.clear_table_cache()
    tally.full_pass(configs)  # warm-up, untraced
    plain, traced_runs, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        plain.append(tally.full_pass(configs))
        with tracer.installed():
            start = time.perf_counter()
            setup_pass(setup_configs)
            traced_runs.append(tally.full_pass(configs))
            walls.append(time.perf_counter() - start)
    own = tracer.self_times()
    metrics = spans.layer_metrics(tracer.spans, own, len(walls), tracer.missing)
    metrics["trace.overhead_frac"] = fastest(traced_runs) / fastest(plain) - 1.0
    metrics["trace.coverage_frac"] = sum(own) / sum(walls)
    samples = {"run_s_untraced": plain, "run_s_traced": traced_runs, "pass_wall_s": walls,
               "unresolved_entry_points": tracer.missing}
    return metrics, samples


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_sha() -> str:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": bootstrap.BLAS_THREADS,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    """(metrics, tally, samples) of one run of a workload."""
    workload = workloads.WORKLOADS[name]
    configs = workload.configs(seed, quick)
    setup_configs = {n: replace(c, t_final=0.0) for n, c in configs.items()}
    tally = Tally(name, seed, quick)
    measure = traced if trace else untraced
    metrics, samples = measure(configs, setup_configs, seconds, tally)
    samples["config_echo"] = workloads.echo(configs)
    return metrics, tally, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wigsolve benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = metric_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, tally, samples = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in listed:
        value = metrics.get(m["name"])
        shown = "absent (entry point did not resolve)" if value is None else f"{value:.6g}"
        print(f"  {m['name']:36s} {shown} {m['unit']}")
    failed_frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':36s} {failed_frac:.6g} ({tally.failed}/{tally.attempted} runs)")
    for metric, wall in samples.get("wall_median_s", {}).items():
        print(f"  {metric + ' (plain wall-time median)':36s} {wall:.6g} s")
    if "reference_s" in samples:
        ref = statistics.median(samples["reference_s"])
        print(f"  {'calibration reference median':36s} {ref:.6g} s (nominal {REFERENCE_S} s)")
    for config, diag in tally.diagnostics.items():
        if "min_uncertainty_excess" in diag:
            print(f"  {config}: min_t dx*dp - hbar/2 = {diag['min_uncertainty_excess']:.3e}")
    for entry in samples.get("unresolved_entry_points", ()):
        print(f"  unresolved entry point {entry}: its metrics are left out")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "metrics": metrics,
        "failed_frac": failed_frac, "problems": tally.problems,
        "diagnostics": tally.diagnostics, **samples,
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0

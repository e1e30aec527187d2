"""dgbs benchmark: drives the ``dgbs`` CLI on generated reference configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` one closed-loop client runs the workload's
command sequence for about S seconds in a fresh process (tracing off,
``DGBS_WORKERS=1``, one BLAS/OpenMP thread) and the end-to-end metrics are
reported.  With ``--trace 1`` the sequence runs once untraced and once under
the outside-in tracer, followed by the isolation timings, and the per-layer
metrics are reported.  Every output is checked against the recorded
reference.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170      # the whole run, set-up included, ends before this
SETUP_PROBES = 5      # fresh interpreters timed for setup_s, after one warm-up

# per-layer metric -> unit, in the order reported (BENCHMARK.json lists
# the same names; selftest.py checks that they agree)
PER_LAYER = {
    "hafnian.matching_polynomial.calls": "count",
    "hafnian.matching_polynomial.self_s": "s",
    "hafnian.kernel_size.n2.calls": "count",
    "hafnian.kernel_size.n4.calls": "count",
    "hafnian.kernel_size.n6.calls": "count",
    "hafnian.kernel_size.n8.calls": "count",
    "hafnian.kernel_size.n10.calls": "count",
    "hafnian.kernel_size.n12plus.calls": "count",
    "hafnian.dp_cells": "cells",
    "hafnian.reduce_by_pattern.calls": "count",
    "hafnian.reduce_by_pattern.self_s": "s",
    "states.kernel_builds": "count",
    "states.sigma_q_solves": "count",
    "states.self_s": "s",
    "probability.patterns_evaluated": "count",
    "probability.pattern_probability.self_s": "s",
    "probability.distribution_from_kernel.calls": "count",
    "probability.distribution_from_kernel.self_s": "s",
    "probability.distinct_pattern_ratio": "ratio",
    "metrics.likelihood_ratio.self_s": "s",
    "metrics.tvd.calls": "count",
    "experiment.sample_patterns.self_s": "s",
    "experiment.ClickTable.to_csv.self_s": "s",
    "experiment.pid_lock.steps": "count",
    "experiment.pid_lock.self_s": "s",
    "experiment.error_signal_evals": "count",
    "experiment.tune_pid_gains.self_s": "s",
    "reconstruction.fit_fringe.calls": "count",
    "reconstruction.fit_fringe.self_s": "s",
    "reconstruction.reconstruct.self_s": "s",
    "reconstruction.records_to_csv.self_s": "s",
    "reconstruction.records_from_csv.self_s": "s",
    "probability.predict_twofold.calls": "count",
    "probability.predict_twofold.self_s": "s",
    "fock.oracle_probability.self_s": "s",
    "fock.self_s": "s",
    "serialize.canonical_json.self_s": "s",
    "trace.overhead_s": "s",
    "cli.output_bytes_changed": "count",
    "hafnian.matching_polynomial.n8_ms": "ms",
    "hafnian.matching_polynomial.n10_ms": "ms",
    "hafnian.matching_polynomial.n12_ms": "ms",
    "hafnian.matching_polynomial.n14_ms": "ms",
    "states.from_state.d15_ms": "ms",
    "probability.distribution_from_kernel.d15_n3_s": "s",
    "probability.distribution_from_kernel.d15_n4_s": "s",
    "probability.distribution_from_kernel.d15_n5_s": "s",
    "cli.pool.speedup": "ratio",
}

# commands whose median wall time the table reports as <command>_s
COMMAND_METRICS = ("probs", "compare", "sample", "simulate", "reconstruct",
                   "lock", "oracle")


class RunFailed(Exception):
    pass


def pinned_env() -> dict:
    """Environment of every child: the program from src/, one worker, one
    BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "DGBS_WORKERS": "1",
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    return env


class Runner:
    """Starts the benchmark's child processes within one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = pinned_env()

    def __call__(self, script: str, *args: str) -> str:
        """Run perfbench/<script> to completion; return its stdout."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"out of time before {script}")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, script), *args],
                env=self.env, timeout=left, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{script} did not finish in time") from exc
        if proc.returncode != 0:
            raise RunFailed(f"{script} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout


def reference_file(workload: str, variant: int) -> str:
    return os.path.join(HERE, "reference", f"{workload}-v{variant}.json")


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dgbs", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return {"git_sha": git, "src_sha256": h.hexdigest()[:16]}


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def measure_setup(run: Runner, run_dir: str) -> list:
    """Set-up times of fresh interpreters, in reference-host seconds."""
    spec = load(os.path.join(run_dir, "spec.json"))
    argv = json.dumps(spec["commands"][0]["argv"])
    probe = ("setup_probe.py", "--run-dir", run_dir, "--argv", argv)
    run(*probe)                       # fills the bytecode cache
    out = [json.loads(run(*probe)) for _ in range(SETUP_PROBES)]
    return [o["seconds"] * o["scale"] for o in out]


def loop(run: Runner, run_dir: str, ref: str, name: str, seconds: float,
         *extra: str) -> dict:
    out = os.path.join(run_dir, f"{name}.result.json")
    run("loop.py", "--run-dir", run_dir, "--reference", ref, "--seconds",
        str(seconds), "--result", out, *extra)
    return load(out)


def end_to_end(res: dict, setup: list) -> tuple:
    """Metrics for BENCHMARK.json, and the full table (name, value, unit, n).

    Times are in reference-host seconds: wall seconds times the host speed
    scale sampled while the command or sequence ran (see hostspeed.py).
    """
    scales = res["seq_scales"]
    seq = [f * t for f, t in zip(scales, res["seq_times"])]
    cmd = {c: [f * t for f, t in zip(res["cmd_scales"][c], ts)]
           for c, ts in res["cmd_times"].items()}
    cmd_medians = {c: median(ts) for c, ts in cmd.items()}
    geomean = math.exp(statistics.fmean(math.log(v)
                                        for v in cmd_medians.values()))
    metrics = {
        "setup_s": (median(setup), "s"),
        "workload_s": (median(seq), "s"),
        "command_geomean_s": (geomean, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    n_seq = len(seq)
    table = [("setup_s", metrics["setup_s"][0], "s", len(setup))]
    for c in COMMAND_METRICS:
        if c in cmd:
            table.append((f"{c}_s", cmd_medians[c], "s", len(cmd[c])))
    table.append(("workload_s", median(seq), "s", n_seq))
    table.append(("command_geomean_s", geomean, "s", n_seq))
    if res["probs_rows"]:
        rates = [r / t for r, t in zip(res["probs_rows"], cmd["probs"])]
        table.append(("patterns_per_s", median(rates), "1/s", len(rates)))
    table.append(("peak_rss_mb", res["peak_rss_mb"], "MB", 1))
    table.append(("failed_ops", res["failed"] / res["invocations"], "share",
                  res["invocations"]))
    table.append(("output_bytes_changed", len(res["bytes_changed"]), "count",
                  len(cmd)))
    table.append(("wall_workload_s", median(res["seq_times"]), "s", n_seq))
    table.append(("host_slowdown", median(1 / f for f in scales), "ratio",
                  res["speed_probes"]))
    return metrics, table


def traced(run: Runner, run_dir: str, ref: str, seed: int) -> tuple:
    plain = loop(run, run_dir, ref, "untraced", 0, "--max-sequences", "1")
    tr = loop(run, run_dir, ref, "traced", 0, "--max-sequences", "1",
              "--trace")
    iso_dir = os.path.join(run_dir, "isolation")
    run("workloads.py", "--workload", "tables-d15", "--seed", str(seed),
        "--out", iso_dir)
    iso_out = os.path.join(run_dir, "isolation.json")
    run("isolation.py", "--run-dir", iso_dir, "--seed", str(seed),
        "--result", iso_out)
    iso = load(iso_out)
    # per-layer seconds in reference-host seconds, like the end-to-end ones
    f = tr["seq_scales"][0]
    layers = {k: v * f if PER_LAYER.get(k) == "s" else v
              for k, v in tr["layers"].items()}
    self_total = layers.pop("trace.self_s_total")
    overhead = (tr["seq_scales"][0] * tr["seq_times"][0]
                - plain["seq_scales"][0] * plain["seq_times"][0])
    layers["trace.overhead_s"] = overhead
    layers["cli.output_bytes_changed"] = len(tr["bytes_changed"])
    layers.update(iso["metrics"])
    notes = {"traced_workload_s": tr["seq_times"][0],
             "untraced_workload_s": plain["seq_times"][0],
             "traced_self_s_total": self_total,
             "bytes_changed": tr["bytes_changed"],
             "spans": tr["spans"]}
    attempted = plain["invocations"] + tr["invocations"] + iso["attempted"]
    failed = plain["failed"] + tr["failed"] + iso["failed"]
    problems = plain["problems"] + tr["problems"] + iso["problems"]
    return layers, notes, attempted, failed, problems, tr["env"]


def main() -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dgbs", "cli.py")):
        print(f"perfbench: no dgbs sources under {ROOT}/src; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    run = Runner(start + DEADLINE_S)
    variant = workloads.variant_of(a.seed)
    ref = reference_file(a.workload, variant)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    run_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run("workloads.py", "--workload", a.workload, "--seed", str(a.seed),
            "--out", run_dir)
        if a.trace:
            layers, notes, attempted, failed, problems, env = traced(
                run, run_dir, ref, a.seed)
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in PER_LAYER.items()}
            table = [(k, layers[k], u, 1) for k, u in PER_LAYER.items()]
        else:
            setup = measure_setup(run, run_dir)
            res = loop(run, run_dir, ref, "e2e", a.seconds)
            e2e, table = end_to_end(res, setup)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            attempted, failed = res["invocations"], res["failed"]
            problems, env, notes = res["problems"], res["env"], {}
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env.update(provenance())
    record = {"workload": a.workload, "seed": a.seed, "variant": variant,
              "trace": a.trace, "env": env, "table": table,
              "problems": problems, "notes": notes,
              "elapsed_s": time.monotonic() - start}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"# dgbs benchmark: workload {a.workload}, seed {a.seed} "
          f"(variant {variant}), trace {a.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {'metric':44s} {'median':>14s} {'unit':8s} n")
    for name, value, unit, n in table:
        print(f"  {name:44s} {value:14.6g} {unit:8s} {n}")
    for p in problems:
        print(f"# check failed: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

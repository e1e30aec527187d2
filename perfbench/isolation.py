"""Isolation timings: direct calls into single layers, tracing off.

    python3 perfbench/isolation.py --run-dir DIR --seed N --result FILE

DIR holds the tables-d15 config of the seed.  Reports median times of
the matching-polynomial kernel at sizes 8 to 14 (random symmetric complex
matrices from the seed), of ``StateKernel.from_state`` and of
``distribution_from_kernel`` on the d=15 state, and the speed-up of
``probs`` from one to two ``DGBS_WORKERS`` (whose outputs must be
byte-identical).  Times are in reference-host seconds (``hostspeed.py``),
except that the speed-up is a ratio of raw wall times: the speed probes run
in this process only, and the two workers' load would slow them and inflate
a ratio of scaled times.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

import hostspeed
from dgbs.cli import main as cli_main
from dgbs.hafnian import matching_polynomial
from dgbs.probability import StateKernel, distribution_from_kernel
from dgbs.serialize import load_config, source_from_config, \
    transfer_from_config
from dgbs.states import build_input_state, propagate

# kernel size -> repetitions; distribution size N -> repetitions.  N=5 takes
# about half a minute, so it runs once.
KERNEL_REPS = {8: 20, 10: 8, 12: 3, 14: 3}
DIST_REPS = {3: 3, 4: 1, 5: 1}
FROM_STATE_REPS = 50
# DGBS_WORKERS of the timed probs runs; the order cancels a linear drift of
# the host's speed
POOL_ORDER = (1, 2, 2, 1)


def timed(sampler, fn, reps):
    """Median reference-host seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt * sampler.scale_between(t0, t0 + dt))
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args()
    result_path = os.path.abspath(a.result)
    os.chdir(a.run_dir)
    with hostspeed.Sampler() as sampler:
        metrics, problems = {}, []

        rng = np.random.default_rng(a.seed)
        for n, reps in KERNEL_REPS.items():
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (m + m.T) / 2
            diag = rng.normal(size=n) + 1j * rng.normal(size=n)
            metrics[f"hafnian.matching_polynomial.n{n}_ms"] = 1e3 * timed(
                sampler, lambda: matching_polynomial(m, diag), reps)

        spec = json.load(open("spec.json"))
        probs_argv = spec["commands"][0]["argv"]
        config = load_config(probs_argv[probs_argv.index("--config") + 1])
        transfer = transfer_from_config(config)
        state = propagate(build_input_state(source_from_config(config),
                                            transfer.d), transfer)
        metrics["states.from_state.d15_ms"] = 1e3 * timed(
            sampler, lambda: StateKernel.from_state(state), FROM_STATE_REPS)
        kernel = StateKernel.from_state(state)
        for total, reps in DIST_REPS.items():
            metrics[f"probability.distribution_from_kernel.d15_n{total}_s"] = \
                timed(sampler, lambda: distribution_from_kernel(kernel, total),
                      reps)

    outs, walls = set(), {1: [], 2: []}
    for workers in POOL_ORDER:
        os.environ["DGBS_WORKERS"] = str(workers)
        out = f"probs_w{workers}.json"
        t0 = time.perf_counter()
        rc = cli_main(probs_argv[:-1] + [out])
        walls[workers].append(time.perf_counter() - t0)
        if rc != 0:
            problems.append(f"probs with DGBS_WORKERS={workers}: exit {rc}")
            continue
        with open(out, "rb") as f:
            outs.add(f.read())
    if len(outs) > 1:
        problems.append("probs output depends on DGBS_WORKERS")
    metrics["cli.pool.speedup"] = (statistics.median(walls[1])
                                   / statistics.median(walls[2]))

    with open(result_path, "w") as f:
        json.dump({"metrics": metrics, "attempted": len(POOL_ORDER),
                   "failed": min(len(problems), len(POOL_ORDER)),
                   "problems": problems}, f)


if __name__ == "__main__":
    main()

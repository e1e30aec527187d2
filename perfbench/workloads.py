"""Benchmark workloads: reference configs generated from the workload seed,
and the CLI command sequence each workload runs.

Run as a script to write one workload's configs and command spec:

    python3 perfbench/workloads.py --workload tables-d15 --seed 0 --out DIR

The seed picks one of ``VARIANTS`` input variants.  Variant v draws the Haar
circuits with seeds base + v, where the bases (42, 0, 100, 300) are the
seeds of the README d=3 circuit and of the d=6 and d=15 acceptance circuits,
so seed 0 reproduces ``haar_unitary`` of ``tests/conftest.py`` exactly.  The
CLI ``--seed`` of sample, simulate, reconstruct and lock is v as well.
Every variant has recorded reference outputs under ``perfbench/reference``.
"""

from __future__ import annotations

import argparse
import json
import math
import os

VARIANTS = 8

# name -> why the workload exists (mirrored in BENCHMARK.json)
WORKLOADS = {
    "tables-d15": "hafnian-kernel workload: exact d=15 tables, sampling and "
                  "model verdicts at kernel sizes up to 8",
    "fringes-d15": "state-algebra and small-kernel workload: 201 kernels, "
                   "27k twofold patterns, fringe fits and reconstruction",
    "lab-d6": "collision patterns up to kernel size 10, the PID lock loop, "
              "sampler CSV at volume and the Fock oracle",
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def haar_unitary(d: int, seed: int):
    """Same draw as ``tests/conftest.py::haar_unitary``."""
    import numpy as np
    from scipy.stats import unitary_group
    return unitary_group.rvs(d, random_state=np.random.default_rng(seed))


def matrix_json(m) -> dict:
    return {"shape": [int(m.shape[0]), int(m.shape[1])],
            "data": [[float(v.real), float(v.imag)] for v in m.ravel()]}


def config(d: int, haar_seed: int, eta: float, source: dict, **extra) -> dict:
    t = math.sqrt(eta) * haar_unitary(d, haar_seed)
    return {"version": 1, "source": source,
            "transfer": {"t": matrix_json(t)}, **extra}


def build(workload: str, seed: int) -> tuple[dict, list]:
    """Return ({file name: config}, [command]) for one workload and seed.

    A command is {"name": CLI subcommand, "argv": [...], "out": file}, plus
    the pattern limits the sample check enforces; paths are relative to the
    run directory.
    """
    v = variant_of(seed)
    s = str(v)
    if workload == "tables-d15":
        # criterion 7 circuit at n_alpha = 2.2: lossless Haar circuit with
        # source efficiency 0.1 and 0.02 detected squeezer photons per mode.
        # 3e4 pulses draw N=4 patterns on every variant, so compare always
        # evaluates the N=4 likelihood tables (2e4 pulses draw none on
        # variant 3, which drops 9 s of work).  At 1e5 pulses compare fails
        # on variant 2: it draws a pattern that korder(2) gives probability
        # 0, log L becomes -inf and the canonical JSON writer rejects it.
        src = {"r": math.asinh(math.sqrt(0.02 / 0.1)),
               "alpha_mag": math.sqrt(2.2), "eta_c": 0.1}
        configs = {"d15_tables.json": config(15, 300 + v, 1.0, src)}
        c = "d15_tables.json"
        commands = [
            {"name": "probs", "out": "probs.json",
             "argv": ["probs", "--config", c, "--model", "full",
                      "--n-max", "4"]},
            {"name": "sample", "out": "samples.csv", "n_max": 4, "modes": 15,
             "argv": ["sample", "--config", c, "--n-max", "4",
                      "--pulses", "30000", "--seed", s]},
            {"name": "compare", "out": "compare.json",
             "argv": ["compare", "--config", c, "--model", "korder(2)",
                      "--model-b", "classical", "--n-max", "4",
                      "--samples", "samples.csv"]},
        ]
    elif workload == "fringes-d15":
        # criterion 4 d=15 circuit with finite pulses per setting
        src = {"r": 0.55, "alpha_mag": 1.7}
        configs = {"d15_fringes.json": config(
            15, 100 + v, 0.3, src, second_input_port=3,
            phi_grid={"start": 0.0, "stop": 10 * math.pi, "num": 100},
            pulses_per_setting=1e8, include_collisions=True)}
        commands = [
            {"name": "simulate", "out": "records.csv",
             "argv": ["simulate", "--config", "d15_fringes.json",
                      "--seed", s]},
            {"name": "reconstruct", "out": "state.json",
             "argv": ["reconstruct", "--records", "records.csv",
                      "--seed", s]},
        ]
    elif workload == "lab-d6":
        d6 = {"r": 0.4, "alpha_mag": 0.8}
        readme = {"r": 0.35, "alpha_mag": 0.6, "phi": 0.0,
                  "squeezer_ports": [0, 1], "coherent_port": 2}
        configs = {
            "d6.json": config(6, 0 + v, 0.5, d6, include_collisions=True),
            "d3.json": config(
                3, 42 + v, 0.6, readme,
                phi_grid={"start": 0.0, "stop": 4 * math.pi, "num": 32},
                pulses_per_setting="inf", include_collisions=True),
        }
        commands = [
            {"name": "probs", "out": "probs.json",
             "argv": ["probs", "--config", "d6.json", "--collisions",
                      "--n-max", "5"]},
            {"name": "sample", "out": "samples.csv", "n_max": 4, "modes": 6,
             "argv": ["sample", "--config", "d6.json", "--pulses", "200000",
                      "--n-max", "4", "--seed", s]},
            {"name": "lock", "out": "lock.json",
             "argv": ["lock", "--config", "d6.json", "--duration", "60",
                      "--seed", s]},
            {"name": "oracle", "out": "oracle.json",
             "argv": ["oracle", "--config", "d3.json", "--pattern", "2,1,1"]},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for cmd in commands:
        cmd["argv"] = cmd["argv"] + ["--out", cmd["out"]]
    return configs, commands


def write(workload: str, seed: int, out_dir: str) -> None:
    configs, commands = build(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    for name, cfg in configs.items():
        with open(os.path.join(out_dir, name), "w") as f:
            json.dump(cfg, f)
    with open(os.path.join(out_dir, "spec.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "variant": variant_of(seed), "commands": commands,
                   "configs": sorted(configs)}, f, indent=1)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    write(a.workload, a.seed, a.out)

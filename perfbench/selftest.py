"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code report the same metrics, that every
workload variant has a recorded reference, that the default seed reproduces
the test-suite circuits, that every recorded sample passes the sample
check, that the output check rejects a perturbed probability, a shifted
sample histogram and sample patterns permuted within one photon number, and
that the traced self times sum to the traced total within the tracing
overhead.  Exits 1 on a failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import workloads
from run import HERE, PER_LAYER, ROOT, WORK, pinned_env, reference_file

FAILURES = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail
                                                  else ""))
    if not ok:
        FAILURES.append(name)


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    report("per-layer metrics match BENCHMARK.json",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER)
    report("workloads match BENCHMARK.json",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def test_references_exist():
    missing = [(w, v) for w in workloads.WORKLOADS
               for v in range(workloads.VARIANTS)
               if not os.path.isfile(reference_file(w, v))]
    report("a reference for every workload variant", not missing,
           str(missing))


def test_default_circuits():
    # conftest imports dgbs, which lives under src/
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")]
    try:
        from conftest import haar_unitary
    finally:
        del sys.path[:2]
    import numpy as np
    same = all(np.array_equal(workloads.haar_unitary(d, s), haar_unitary(d, s))
               for d, s in ((3, 42), (6, 0), (15, 100), (15, 300)))
    report("seed 0 draws the circuits of tests/conftest.py", same)


def sample_cmd(workload: str, variant: int) -> dict:
    return next(c for c in workloads.build(workload, variant)[1]
                if c["name"] == "sample")


def photons(mask: str) -> int:
    return -1 if mask == "discard" else bin(int(mask, 16)).count("1")


def test_check_rejects_perturbation():
    ref = json.load(open(reference_file("tables-d15", 0)))
    cmd = {"name": "probs"}
    report("probs reference passes its own check",
           checks.check(cmd, ref["probs"], ref) == [])
    bad = copy.deepcopy(ref["probs"])
    probs = bad["distributions"]["3"]["probabilities"]
    probs[17] *= 1 + 1e-6
    errs = checks.check(cmd, bad, ref)
    report("probs check rejects one probability perturbed by 1e-6", bool(errs),
           errs[0] if errs else "")


def test_sample_check():
    for w in ("tables-d15", "lab-d6"):
        errs = []
        for v in range(workloads.VARIANTS):
            ref = json.load(open(reference_file(w, v)))
            errs += checks.check(sample_cmd(w, v), ref["sample"], ref)
        report(f"{w}: every recorded sample passes its own check", not errs,
               "; ".join(errs))

        ref = json.load(open(reference_file(w, 0)))
        cmd = sample_cmd(w, 0)
        counts = ref["sample"]["patterns"]
        dist = checks.sample_distribution(ref["probs"], cmd["modes"],
                                          cmd["n_max"])
        # 1% of the pulses moved from N=0 to the N=2 patterns, in proportion
        bad = copy.deepcopy(ref["sample"])
        two = {k: c for k, c in counts.items() if photons(k) == 2}
        for k, c in two.items():
            moved = round(0.01 * ref["sample"]["rows"] * c / sum(two.values()))
            bad["patterns"][k] += moved
            bad["patterns"]["0"] -= moved
        errs = checks.check(cmd, bad, ref)
        report(f"{w}: sample check rejects 1% of pulses moved from N=0 to "
               f"N=2", bool(errs), "; ".join(errs))

        # N=2 counts given to the patterns in reverse order of probability:
        # the photon-number histogram is unchanged
        keys = sorted((k for k in dist if photons(k) == 2), key=dist.get)
        bad = copy.deepcopy(ref["sample"])
        for a, b in zip(keys, reversed(keys)):
            bad["patterns"][a] = counts.get(b, 0)
        errs = checks.check(cmd, bad, ref)
        report(f"{w}: sample check rejects N=2 patterns permuted", bool(errs),
               "; ".join(errs))


def test_trace_accounting():
    run_dir = os.path.join(WORK, "selftest-lab-d6")
    shutil.rmtree(run_dir, ignore_errors=True)
    env = pinned_env()
    py = sys.executable
    subprocess.run([py, os.path.join(HERE, "workloads.py"), "--workload",
                    "lab-d6", "--seed", "0", "--out", run_dir], env=env,
                   check=True)
    results = {}
    for name, extra in (("plain", []), ("traced", ["--trace"])):
        out = os.path.join(run_dir, f"{name}.json")
        subprocess.run([py, os.path.join(HERE, "loop.py"), "--run-dir",
                        run_dir, "--reference",
                        reference_file("lab-d6", 0), "--seconds", "0",
                        "--max-sequences", "1", "--result", out, *extra],
                       env=env, check=True)
        results[name] = json.load(open(out))
    shutil.rmtree(run_dir)
    traced_total = results["traced"]["seq_times"][0]
    overhead = traced_total - results["plain"]["seq_times"][0]
    self_total = results["traced"]["layers"]["trace.self_s_total"]
    report("traced self times sum to the traced total within the overhead",
           abs(traced_total - self_total) <= abs(overhead),
           f"total {traced_total:.3f} s, self sum {self_total:.3f} s, "
           f"overhead {overhead:.3f} s")
    report("traced and untraced outputs pass the check",
           results["plain"]["failed"] == results["traced"]["failed"] == 0,
           "; ".join(results["plain"]["problems"]
                     + results["traced"]["problems"]))


if __name__ == "__main__":
    test_benchmark_json()
    test_references_exist()
    test_default_circuits()
    test_check_rejects_perturbation()
    test_sample_check()
    test_trace_accounting()
    sys.exit(1 if FAILURES else 0)

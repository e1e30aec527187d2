"""One workload run: a closed loop over the workload's CLI commands.

    python3 perfbench/loop.py --run-dir DIR --reference FILE --seconds S \
        --result FILE [--trace] [--max-sequences N] [--record]

One client runs the command sequence in this process, each command after the
previous one has finished, by calling ``dgbs.cli.main``.  A new sequence
starts only if it is expected to end within ``--seconds`` (the first always
runs).  Every output is checked against the reference (``checks.py``); the
checks run outside the timed region.  A host speed sampler (``hostspeed.py``)
runs throughout and gives each command and each sequence its scale to
reference-host seconds.  ``--trace`` installs the outside-in tracer first.
``--record`` runs one sequence and writes its output summaries to the
``--reference`` file instead of checking against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import checks
import hostspeed

# the file a command reads that an earlier command of the sequence wrote
INPUT_OF = {"compare": "sample", "reconstruct": "simulate"}


def run(spec: dict, reference: dict, seconds: float, max_sequences: int,
        sampler: hostspeed.Sampler, tracer=None, record: bool = False) -> dict:
    import dgbs.cli
    main = dgbs.cli.main          # looked up after the tracer patched it
    clock = time.perf_counter
    seq_times, seq_walls = [], []
    cmd_times = {c["name"]: [] for c in spec["commands"]}
    probs_rows = []
    invocations = failed = 0
    problems, changed, summaries = [], set(), {}
    seq_windows = []              # (start, end) of each sequence's commands
    cmd_windows = {c["name"]: [] for c in spec["commands"]}
    start = clock()
    while True:
        seq_start = clock()
        seq_time = 0.0
        shas = {}
        for cmd in spec["commands"]:
            name = cmd["name"]
            t0 = clock()
            try:
                rc = main(cmd["argv"])
            except SystemExit as exc:     # argparse rejected the command line
                rc = exc.code
            except Exception:  # a traceback is a failed operation
                rc = traceback.format_exc(limit=3)
            dt = clock() - t0
            if tracer is not None:
                tracer.end_command()
            invocations += 1
            seq_time += dt
            cmd_times[name].append(dt)
            cmd_windows[name].append((t0, t0 + dt))
            errs = [] if rc == 0 else [f"{name}: exit {rc}"]
            if not errs:
                try:
                    got = checks.summarize(name, cmd["out"])
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errs = [f"{name}: unreadable output ({exc!r})"]
            if not errs:
                summaries[name] = got
                shas[name] = got["sha256"]
                ref = reference.get(name)
                if name == "probs":
                    probs_rows.append(sum(len(d["probabilities"]) for d in
                                          got["distributions"].values()))
                if not record:
                    src = INPUT_OF.get(name)
                    same = src is None or (src in reference and shas.get(src)
                                           == reference[src]["sha256"])
                    errs = checks.check(cmd, got, reference, same)
                    if ref is None or got["sha256"] != ref["sha256"]:
                        changed.add(name)
            if errs:
                failed += 1
                problems.extend(errs)
        seq_times.append(seq_time)
        seq_walls.append(clock() - seq_start)
        seq_windows.append((seq_start, t0 + dt))
        elapsed = clock() - start
        if (record or len(seq_times) >= max_sequences
                or elapsed + seq_walls[-1] > seconds):
            break
    seq_scales = [sampler.scale_between(a, b) for a, b in seq_windows]
    import numpy
    import scipy
    out = {
        "sequences": len(seq_times),
        "seq_times": seq_times,
        "cmd_times": cmd_times,
        "probs_rows": probs_rows,
        "seq_scales": seq_scales,
        "cmd_scales": {
            c: [sampler.scale_between(a, b, f)
                for (a, b), f in zip(w, seq_scales)]
            for c, w in cmd_windows.items()},
        "speed_probes": len(sampler.samples),
        "invocations": invocations,
        "failed": failed,
        "problems": problems[:20],
        "bytes_changed": sorted(changed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if record:
        out["summaries"] = summaries
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.spans()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--max-sequences", type=int, default=1 << 30)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()
    result_path = os.path.abspath(a.result)
    reference_path = os.path.abspath(a.reference)
    reference = {}
    if not a.record:
        with open(reference_path) as f:
            reference = json.load(f)
    os.chdir(a.run_dir)
    with open("spec.json") as f:
        spec = json.load(f)
    tracer = None
    if a.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with hostspeed.Sampler() as sampler:
        out = run(spec, reference, a.seconds, a.max_sequences, sampler,
                  tracer, a.record)
    if a.record and out["failed"]:
        sys.exit("not recorded: " + "; ".join(out["problems"]))
    if a.record:
        with open(reference_path, "w") as f:
            json.dump(out["summaries"], f, sort_keys=True,
                      separators=(",", ":"))
    with open(result_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()

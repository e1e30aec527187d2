"""Record the reference outputs the output check compares against.

    python3 perfbench/record.py

Runs every workload's command sequence once per input variant and writes the
output summaries to ``perfbench/reference/<workload>-v<variant>.json``.
Record only at a commit whose outputs are known to be right; the check then
holds every later commit to them within the tolerances in ``checks.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import workloads
from run import HERE, WORK, pinned_env, reference_file


def record(workload: str, variant: int) -> None:
    work = os.path.join(WORK, f"record-{workload}-v{variant}")
    shutil.rmtree(work, ignore_errors=True)
    env = pinned_env()
    py = sys.executable
    subprocess.run([py, os.path.join(HERE, "workloads.py"), "--workload",
                    workload, "--seed", str(variant), "--out", work],
                   env=env, check=True)
    subprocess.run([py, os.path.join(HERE, "loop.py"), "--run-dir", work,
                    "--reference", reference_file(workload, variant),
                    "--seconds", "0", "--result",
                    os.path.join(work, "result.json"), "--record"],
                   env=env, check=True)
    shutil.rmtree(work)


if __name__ == "__main__":
    for w in sorted(workloads.WORKLOADS):
        for v in range(workloads.VARIANTS):
            record(w, v)
            print(f"recorded {w} variant {v}", flush=True)

"""Set-up probe: what every CLI invocation pays before it computes.

    python3 perfbench/setup_probe.py --run-dir DIR --argv JSON

In a fresh interpreter, imports ``dgbs.cli``, builds the parser, parses the
workload's first command line and loads its config.  Prints the seconds that
took and the host speed scale sampled meanwhile (``hostspeed.py``) as JSON.
Before the clock starts only ``os``, ``sys`` (both loaded by interpreter
start-up), ``time`` and ``signal`` are imported, so every module the CLI
needs, ``argparse`` and ``json`` included, counts toward the time.
"""

import os
import sys
import time

import hostspeed


def main():
    opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    if sorted(opts) != ["--argv", "--run-dir"]:
        sys.exit(__doc__.split("\n\n")[1])
    os.chdir(opts["--run-dir"])
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        import json
        from dgbs.cli import build_parser
        from dgbs.serialize import load_config

        args = build_parser().parse_args(json.loads(opts["--argv"]))
        load_config(args.config)
        dt = time.perf_counter() - t0
    print(json.dumps({"seconds": dt,
                      "scale": sampler.scale_between(t0, t0 + dt)}))


if __name__ == "__main__":
    main()

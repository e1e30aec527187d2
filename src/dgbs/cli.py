"""Command-line front end.

Subcommands: probs, simulate, reconstruct, compare, sample, lock, oracle.
All structured output is canonical JSON (sorted keys, fixed float repr)
stamped with the config hash, so reruns with the same config and seed are
byte-identical.  Exit codes: 0 success, 1 runtime/numerical failure,
2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import nullcontext
from itertools import chain

import numpy as np

from . import __version__
from .errors import (ConfigurationError, DgbsError, EnumerationBudgetError,
                     SchemaError)
from .experiment import (MAX_DRIFT_STEPS, MAX_PULSES, TUNING_DURATION,
                         auto_select_pairs, build_error_signal, lock_kernel,
                         pid_lock, sample_patterns, samples_from_csv,
                         simulate_records, tune_pid_gains)
from .fock import checked_pattern, oracle_probability
from .hafnian import MAX_KERNEL_SIZE
from .metrics import likelihood_ratio, tvd
from .probability import (PATTERN_BUDGET, ModelSpec, PatternDistribution,
                          StateKernel, all_patterns, distribution_from_kernel,
                          pattern_count)
from .reconstruction import (check_threefolds, reconstruct, records_from_csv,
                             records_to_csv)
from .serialize import (canonical_json, check_ports, circuit_from_config,
                        config_hash, drift_from_config, load_config,
                        phi_grid_from_config, pid_from_config,
                        pulses_from_config, read_text)
from .states import build_classical_input, build_input_state, propagate


def _write(args, texts) -> int:
    """Write the iterable ``texts`` to --out one after the other, each as
    it comes; 0 for success."""
    out = nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w")
    with out as f:
        f.writelines(texts)
    return 0


def _write_json(args, fields: dict, config: dict) -> int:
    """Write ``fields`` as canonical JSON stamped with the command, the
    version and the config hash unless ``config`` is None; 0 for success."""
    stamp = {"command": args.command, "version": __version__}
    if config is not None:
        stamp["config_hash"] = config_hash(config)
    return _write(args, [canonical_json({**fields, **stamp}), "\n"])


def _kernel_for_model(source, transfer, model: ModelSpec) -> StateKernel:
    """The kernel of the circuit ``source``, ``transfer`` under ``model``:
    the classical input for the classical model, else the quantum one."""
    build = build_classical_input if model.kind == "classical" \
        else build_input_state
    return StateKernel.from_state(propagate(build(source, transfer.d), transfer))


def _parse_model(text: str) -> ModelSpec:
    try:
        return ModelSpec.parse(text)
    except (ValueError, ConfigurationError) as exc:
        raise SchemaError(f"bad model {text!r}: {exc}") from exc


def _largest_sector(args, d: int, collision_free: bool = True) -> int:
    """--n-max, or d if smaller for collision-free patterns; SchemaError if
    a sector up to it is past the kernel-size cap or the pattern budget."""
    n_max = min(args.n_max, d) if collision_free else args.n_max
    if 2 * n_max > MAX_KERNEL_SIZE:
        raise SchemaError(f"--n-max {args.n_max} needs kernel size "
                          f"{2 * n_max}, past the cap {MAX_KERNEL_SIZE}")
    count, total = max((pattern_count(d, n, collision_free), n)
                       for n in range(n_max + 1))
    if count > PATTERN_BUDGET:
        raise SchemaError(f"--n-max {args.n_max} needs {count} patterns of "
                          f"{total} photons, past the budget {PATTERN_BUDGET}")
    return n_max


def _tables(kernel: StateKernel, model: ModelSpec, totals) -> dict:
    """{N: collision-free fixed-N distribution}; a sector with zero mass or
    beyond the enumeration budget is left out."""
    tables = {}
    for total in sorted(totals):
        try:
            tables[total] = distribution_from_kernel(kernel, total, True, model)
        except (ConfigurationError, EnumerationBudgetError):
            continue
    return tables


def _labels(patterns: np.ndarray) -> list:
    """Each row of the (P, d) counts as its digits, "0102" for (0, 1, 0,
    2); built a column at a time as bytes when every count is one digit."""
    if patterns.max(initial=0) < 10:
        digits = (patterns + ord("0")).astype(np.uint8)
        labels = digits.view(f"S{patterns.shape[1]}").ravel()
        return labels.astype(str).tolist()
    return ["".join(map(str, n)) for n in patterns.tolist()]


# ---------------------------------------------------------------------------
# subcommands

def cmd_probs(args) -> int:
    config = load_config(args.config)
    model = _parse_model(args.model)
    kernel = _kernel_for_model(*circuit_from_config(config), model)
    distributions = {}
    n_max = _largest_sector(args, kernel.d, not args.collisions)
    for total in range(1, n_max + 1):
        patterns = all_patterns(kernel.d, total,
                                collision_free=not args.collisions)
        raw = kernel.pattern_probabilities(patterns, model)
        s = raw.sum()
        distributions[str(total)] = {
            "patterns": _labels(patterns),
            "probabilities": raw.tolist(),
            "normalized": (raw / s if s > 0 else raw).tolist(),
        }
    return _write_json(args, {"model": model.label(), "p_vac": kernel.p_vac,
                              "distributions": distributions}, config)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    source, transfer = circuit_from_config(config)
    second = config.get("second_input_port")
    if second is not None:
        check_ports([second], transfer.d)
    records = simulate_records(
        source, transfer,
        second_input_port=second,
        phi_grid=phi_grid_from_config(config),
        pulses_per_setting=pulses_from_config(config),
        seed=args.seed,
        include_collisions=bool(config.get("include_collisions", False)))
    header = f"# dgbs simulate config_hash={config_hash(config)} seed={args.seed}\n"
    return _write(args, chain([header], records_to_csv(records)))


def cmd_reconstruct(args) -> int:
    records = records_from_csv(read_text(args.records))
    threefolds = None
    if args.threefolds:
        try:
            with open(args.threefolds) as f:
                threefolds = PatternDistribution.from_json(f.read())
            if records:   # else reconstruct names the missing settings
                check_threefolds(threefolds, next(iter(records.values())).d)
        except (ValueError, KeyError, TypeError, DgbsError) as exc:
            raise SchemaError(
                f"bad threefolds file {args.threefolds}: {exc!r}") from exc
    result = reconstruct(records, threefolds=threefolds, seed=args.seed)
    return _write_json(args, {**json.loads(result.to_json()),
                              "seed": args.seed}, None)


def cmd_compare(args) -> int:
    config = load_config(args.config)
    model_a = _parse_model(args.model)
    model_b = _parse_model(args.model_b)
    source, transfer = circuit_from_config(config)
    kernel_a = _kernel_for_model(source, transfer, model_a)
    kernel_b = _kernel_for_model(source, transfer, model_b)
    samples = None
    n_max = _largest_sector(args, kernel_a.d)
    totals = set(range(1, n_max + 1))
    if args.samples:
        samples, codes = samples_from_csv(read_text(args.samples),
                                          kernel_a.d, args.min_photons)
        totals |= set(samples.sum(axis=1).tolist())
    tables_a = _tables(kernel_a, model_a, totals)
    tables_b = _tables(kernel_b, model_b, totals)
    tvds = {str(total): tvd(tables_a[total], tables_b[total])
            for total in range(1, n_max + 1)
            if total in tables_a and total in tables_b}
    payload = {
        "model_a": model_a.label(),
        "model_b": model_b.label(),
        "tvd_by_total": tvds,
    }
    if samples is not None:
        trace = likelihood_ratio(samples, tables_a, tables_b, codes)
        payload["likelihood"] = {
            "samples": trace.sample_count,
            "log_ratio": trace.log_ratio,
            "flagged": len(trace.flagged),
        }
        if math.isfinite(trace.ratio):
            payload["likelihood"]["ratio"] = trace.ratio
    return _write_json(args, payload, config)


def cmd_lock(args) -> int:
    config = load_config(args.config)
    source, transfer = circuit_from_config(config)
    drift = drift_from_config(config)
    if not (math.isfinite(args.duration)
            and args.duration >= drift.step_interval):
        raise SchemaError(f"--duration must be finite and cover at least one "
                          f"drift step of {drift.step_interval} s, got "
                          f"{args.duration}")
    if args.duration / drift.step_interval > MAX_DRIFT_STEPS:
        raise SchemaError(f"--duration {args.duration} is more than "
                          f"{MAX_DRIFT_STEPS} drift steps of "
                          f"{drift.step_interval} s")
    n_pairs = config.get("lock_pairs", 5)
    if type(n_pairs) is not int or n_pairs < 1:   # a bool is no int here
        raise SchemaError(f"lock_pairs must be a positive integer, got "
                          f"{n_pairs!r}")
    pid = pid_from_config(config)
    if pid is None and TUNING_DURATION / drift.step_interval > MAX_DRIFT_STEPS:
        raise SchemaError(f"the {TUNING_DURATION} s gain tuning run (a config "
                          f"without pid) is more than {MAX_DRIFT_STEPS} drift "
                          f"steps of {drift.step_interval} s")
    kernel = lock_kernel(source, transfer)
    pairs = auto_select_pairs(kernel, n_pairs=n_pairs)
    signal = build_error_signal(kernel, pairs)
    if pid is None:
        pid = tune_pid_gains(drift, signal, seed=args.seed)
    result = pid_lock(drift, pid, signal, duration=args.duration, seed=args.seed)
    stride = max(1, len(result.phi) // 600)
    return _write_json(args, {
        "seed": args.seed,
        "duration": args.duration,
        "gains": {"kp": pid.kp, "ki": pid.ki, "kd": pid.kd},
        "setpoint": result.setpoint,
        "residual_std": result.residual_std,
        "diverged": result.diverged,
        "pairs": [[j, k, s] for j, k, s in pairs],
        "trace_times": [float(t) for t in result.times[::stride]],
        "trace_phi": [float(p) for p in result.phi[::stride]],
    }, config)


def cmd_oracle(args) -> int:
    config = load_config(args.config)
    source, transfer = circuit_from_config(config)
    try:
        pattern = checked_pattern(
            transfer, [int(c) for c in args.pattern.split(",")], args.cutoff)
    except (ValueError, ConfigurationError) as exc:
        raise SchemaError(f"bad --pattern {args.pattern!r}: {exc}") from exc
    engine = float(_kernel_for_model(source, transfer, ModelSpec())
                   .pattern_probabilities([pattern])[0])
    oracle = oracle_probability(source, transfer, pattern,
                                cutoff=args.cutoff)
    return _write_json(args, {"pattern": list(pattern),
                              "engine": engine, "oracle": oracle,
                              "abs_diff": abs(engine - oracle)}, config)


def cmd_sample(args) -> int:
    config = load_config(args.config)
    model = _parse_model(args.model)
    source, transfer = circuit_from_config(config)
    kernel = _kernel_for_model(source, transfer, model)
    table = sample_patterns(kernel, model, args.pulses,
                            _largest_sector(args, kernel.d), args.seed,
                            phi=source.phi)
    header = f"# dgbs sample config_hash={config_hash(config)} seed={args.seed}\n"
    return _write(args, chain([header], table.to_csv()))


# ---------------------------------------------------------------------------

def _common(model=False, seed=False) -> list:
    """The options of a command that reads a config: --config, --seed if
    it draws random numbers, --out and --model."""
    return [("--config", dict(required=True, help="JSON config path")),
            *([("--seed", dict(type=int, default=0))] if seed else []),
            ("--out", dict(default="-", help="output path (default stdout)")),
            *([("--model", dict(default="full", help="full | korder(k) | "
                                "squeezer_only | classical"))]
              if model else [])]


# name: (help, function, [(option, add_argument keywords)]) of each command
COMMANDS = {
    "probs": ("fixed-N pattern probability tables", cmd_probs, [
        *_common(model=True),
        ("--n-max", dict(type=int, default=3)),
        ("--collisions", dict(action="store_true", help="enumerate patterns "
                              "with collisions too"))]),
    "simulate": ("generate three-setting records CSV", cmd_simulate,
                 _common(seed=True)),
    "reconstruct": ("invert records to (B, C, gamma)", cmd_reconstruct, [
        ("--records", dict(required=True, help="records CSV path")),
        ("--threefolds", dict(default=None, help="measured threefold "
                              "distribution JSON for the phase-completion "
                              "optimizer")),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(default="-"))]),
    "compare": ("TVD / likelihood ratio between models", cmd_compare, [
        *_common(model=True),
        ("--model-b", dict(required=True)),
        ("--n-max", dict(type=int, default=3)),
        ("--samples", dict(default=None, help="samples CSV for L")),
        ("--min-photons", dict(type=int, default=0))]),
    "lock": ("simulate phase drift and PID locking", cmd_lock, [
        *_common(seed=True),
        ("--duration", dict(type=float, default=60.0))]),
    "oracle": ("cross-check one pattern against the Fock-space oracle",
               cmd_oracle, [*_common(), ("--pattern", dict(
                   required=True, help="comma-separated counts, e.g. 1,0,1")),
                   ("--cutoff", dict(type=int, default=None))]),
    "sample": ("draw detection patterns", cmd_sample, [
        *_common(model=True, seed=True),
        ("--pulses", dict(type=int, default=10000)),
        ("--n-max", dict(type=int, default=4))]),
}


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, which parses
    the command lines that start with ``command`` as the full one does."""
    parser = argparse.ArgumentParser(
        prog="dgbs", description="Displaced Gaussian boson sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:   # the usage line of a root-level error
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name in COMMANDS if command is None else [command]:
        help_text, func, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command; its warnings are shown only if it exits 0, so that
    a failing command prints one ``dgbs:`` line and nothing else."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        code = _run(args)
    if code == 0:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename,
                                 w.lineno, w.file, w.line)
    return code


def _run(args) -> int:
    """The exit code of the parsed command ``args``."""
    try:
        for name in ("n_max", "pulses"):
            if getattr(args, name, 0) < 0:
                raise SchemaError(f"--{name.replace('_', '-')} must be "
                                  f"nonnegative, got {getattr(args, name)}")
        if getattr(args, "pulses", 0) > MAX_PULSES:
            raise SchemaError(f"--pulses must be at most {MAX_PULSES}, got "
                              f"{args.pulses}")
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"dgbs: {exc}", file=sys.stderr)
        return 2
    except DgbsError as exc:
        print(f"dgbs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

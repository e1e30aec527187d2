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
from contextlib import nullcontext

from . import __version__
from .errors import (ConfigurationError, DgbsError, EnumerationBudgetError,
                     SchemaError)
from .experiment import (MAX_DRIFT_STEPS, TUNING_DURATION, auto_select_pairs,
                         build_error_signal, lock_kernel, pid_lock,
                         sample_patterns, samples_from_csv, simulate_records,
                         tune_pid_gains)
from .fock import checked_pattern, oracle_probability
from .metrics import likelihood_ratio, tvd
from .probability import (ModelSpec, PatternDistribution, StateKernel,
                          all_patterns, distribution_from_kernel)
from .reconstruction import (check_threefolds, reconstruct, records_from_csv,
                             records_to_csv)
from .serialize import (canonical_json, config_hash, drift_from_config,
                        load_config, phi_grid_from_config, pid_from_config,
                        pulses_from_config, read_text, source_from_config,
                        transfer_from_config)
from .states import build_classical_input, build_input_state, propagate


def _write(args, *texts: str) -> int:
    """Write ``texts`` to --out one after the other; 0 for success."""
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
    return _write(args, canonical_json({**fields, **stamp}), "\n")


def _kernel_for_model(config: dict, model: ModelSpec) -> StateKernel:
    source = source_from_config(config)
    transfer = transfer_from_config(config)
    build = build_classical_input if model.kind == "classical" \
        else build_input_state
    return StateKernel.from_state(propagate(build(source, transfer.d), transfer))


def _parse_model(text: str) -> ModelSpec:
    try:
        return ModelSpec.parse(text)
    except (ValueError, ConfigurationError) as exc:
        raise SchemaError(f"bad model {text!r}: {exc}") from exc


def _model_arg(args) -> ModelSpec:
    if args.model.strip() == "korder":
        if args.k is None:
            raise SchemaError("--model korder needs --k")
        return _parse_model(f"korder({args.k})")
    model = _parse_model(args.model)
    if args.k is not None and model.kind == "korder" and model.k != args.k:
        raise SchemaError("--k conflicts with the k embedded in --model")
    return model


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


# ---------------------------------------------------------------------------
# subcommands

def cmd_probs(args) -> int:
    config = load_config(args.config)
    model = _model_arg(args)
    kernel = _kernel_for_model(config, model)
    distributions = {}
    for total in range(1, args.n_max + 1):
        patterns = all_patterns(kernel.d, total,
                                collision_free=not args.collisions)
        if not len(patterns):
            continue
        raw = kernel.pattern_probabilities(patterns, model)
        s = raw.sum()
        distributions[str(total)] = {
            "patterns": ["".join(map(str, n)) for n in patterns.tolist()],
            "probabilities": [float(v) for v in raw],
            "normalized": [float(v) for v in (raw / s if s > 0 else raw)],
        }
    return _write_json(args, {"model": model.label(), "p_vac": kernel.p_vac,
                              "distributions": distributions}, config)


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    source = source_from_config(config)
    transfer = transfer_from_config(config)
    records = simulate_records(
        source, transfer,
        second_input_port=config.get("second_input_port"),
        phi_grid=phi_grid_from_config(config),
        pulses_per_setting=pulses_from_config(config),
        seed=args.seed,
        include_collisions=bool(config.get("include_collisions", False)))
    header = f"# dgbs simulate config_hash={config_hash(config)} seed={args.seed}\n"
    return _write(args, header, records_to_csv(records))


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
    model_a = _model_arg(args)
    model_b = _parse_model(args.model_b)
    kernel_a = _kernel_for_model(config, model_a)
    kernel_b = _kernel_for_model(config, model_b)
    samples = None
    totals = set(range(1, args.n_max + 1))
    if args.samples:
        samples, sample_totals = samples_from_csv(read_text(args.samples),
                                                  kernel_a.d, args.min_photons)
        totals |= sample_totals
    tables_a = _tables(kernel_a, model_a, totals)
    tables_b = _tables(kernel_b, model_b, totals)
    tvds = {str(total): tvd(tables_a[total], tables_b[total])
            for total in range(1, args.n_max + 1)
            if total in tables_a and total in tables_b}
    payload = {
        "model_a": model_a.label(),
        "model_b": model_b.label(),
        "tvd_by_total": tvds,
    }
    if samples is not None:
        trace = likelihood_ratio(samples, tables_a, tables_b)
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
    source = source_from_config(config)
    transfer = transfer_from_config(config)
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
    source = source_from_config(config)
    transfer = transfer_from_config(config)
    try:
        pattern = checked_pattern(
            transfer, [int(c) for c in args.pattern.split(",")], args.cutoff)
    except (ValueError, ConfigurationError) as exc:
        raise SchemaError(f"bad --pattern {args.pattern!r}: {exc}") from exc
    engine = float(_kernel_for_model(config, ModelSpec())
                   .pattern_probabilities([pattern])[0])
    oracle = oracle_probability(source, transfer, pattern,
                                cutoff=args.cutoff)
    return _write_json(args, {"pattern": list(pattern),
                              "engine": engine, "oracle": oracle,
                              "abs_diff": abs(engine - oracle)}, config)


def cmd_sample(args) -> int:
    config = load_config(args.config)
    model = _model_arg(args)
    table = sample_patterns(_kernel_for_model(config, model), model,
                            args.pulses, args.n_max, args.seed,
                            phi=source_from_config(config).phi)
    header = f"# dgbs sample config_hash={config_hash(config)} seed={args.seed}\n"
    return _write(args, header, table.to_csv())


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgbs",
        description="Displaced Gaussian boson sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-", help="output path (default stdout)")
        if model:
            p.add_argument("--model", default="full",
                           help="full | korder(k) | squeezer_only | classical")
            p.add_argument("--k", type=int, default=None,
                           help="truncation order for --model korder")

    p = sub.add_parser("probs", help="fixed-N pattern probability tables")
    common(p, model=True)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--collisions", action="store_true",
                   help="enumerate patterns with collisions too")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("simulate", help="generate three-setting records CSV")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert records to (B, C, gamma)")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--threefolds", default=None,
                   help="measured threefold distribution JSON for the "
                        "phase-completion optimizer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("compare", help="TVD / likelihood ratio between models")
    common(p, model=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--samples", default=None, help="samples CSV for L")
    p.add_argument("--min-photons", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lock", help="simulate phase drift and PID locking")
    common(p)
    p.add_argument("--duration", type=float, default=60.0)
    p.set_defaults(func=cmd_lock)

    p = sub.add_parser("oracle", help="cross-check one pattern against the "
                                      "Fock-space oracle")
    common(p)
    p.add_argument("--pattern", required=True,
                   help="comma-separated counts, e.g. 1,0,1")
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sample", help="draw detection patterns")
    common(p, model=True)
    p.add_argument("--pulses", type=int, default=10000)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("n_max", "pulses"):
            if getattr(args, name, 0) < 0:
                raise SchemaError(f"--{name.replace('_', '-')} must be "
                                  f"nonnegative, got {getattr(args, name)}")
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"dgbs: {exc}", file=sys.stderr)
        return 2
    except DgbsError as exc:
        print(f"dgbs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``run`` (one experiment), ``sweep`` (grid plus scaling table),
``oracle`` (conditional-probability tables), ``markov`` (absorption tables),
``bounds`` (theorem bound tables), ``check`` (the built-in acceptance suite).
Exit codes: 0 success, 1 configuration error, 2 acceptance-check failure.
``TLONEMAX_OUT`` sets the default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import run_criteria
from .algorithms import MutationKind
from .harness import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    runtime_scaling_check,
    write_report,
)
from .oracle import (
    lemma2_exact,
    lemma2_lower_bound,
    markov_full_absorption,
    markov_lumped_absorption,
    min_population,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("TLONEMAX_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags override its fields")
    sub.add_argument("--alg", choices=ALGORITHMS, help="algorithm to run")
    sub.add_argument("--n", type=_int_list, help="comma-separated dimensions")
    sub.add_argument("--mu", type=_int_list,
                     help="comma-separated population sizes (default: guaranteed size per n)")
    sub.add_argument("--delta", type=float, help="slack parameter for the guaranteed size")
    sub.add_argument("--trials", type=int, help="trials per grid point")
    sub.add_argument("--budget-mult", type=float, help="multiplier over the default budget")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--no-early-exit", action="store_true",
                     help="run out the budget instead of stopping at stagnation events")
    sub.add_argument("--workers", type=int, help="worker processes (default: all cores)")
    sub.add_argument("--out", help="output file (relative paths land in $TLONEMAX_OUT)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(
                f"config: must be a JSON object, got {type(loaded).__name__} in {args.config}")
        fields.update(loaded)
    overrides = {
        "algorithm": args.alg,
        "n_values": args.n,
        "mu_values": args.mu,
        "delta": args.delta,
        "trials": args.trials,
        "budget_mult": args.budget_mult,
        "master_seed": args.seed,
        "workers": args.workers,
    }
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if args.no_early_exit:
        fields["early_exit"] = False
    try:
        config = ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _emit(rows: list[dict], header: list[str], args: argparse.Namespace) -> None:
    """Print or write a small table as CSV (fixed columns) or a JSON list."""
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(row[col]) for col in header) for row in rows]
        text = "\n".join(lines) + "\n"
    out = _resolve_out(args.out)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _output_report(report, args: argparse.Namespace) -> None:
    out = _resolve_out(args.out)
    if out:
        write_report(report, out, args.format)
        return
    from .harness import report_csv, report_json_obj

    if args.format == "json":
        json.dump(report_json_obj(report), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(report_csv(report))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _output_report(run_experiment(config), args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if len(config.n_values) < 2:
        raise ConfigError("sweep: need at least 2 values of n (use `run` for a single point)")
    report = run_experiment(config)
    _output_report(report, args)
    if config.algorithm == "muea":
        table = runtime_scaling_check(report)
        print("# scaling: n,mu,cond_mean_gens,ratio", file=sys.stderr)
        for row in table.rows:
            ratio = "nan" if row.ratio is None else f"{row.ratio:.6g}"
            print(f"# {row.n},{row.mu},{row.cond_mean_gens:.6g},{ratio}", file=sys.stderr)
        if table.flagged:
            print("# WARNING: ratio spread exceeds factor 2", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n:
        for a in range(1, n + 1):
            rows.append({
                "n": n, "a": a,
                "value": f"{float(lemma2_exact(n, a)):.12g}",
                "lower_bound": f"{lemma2_lower_bound(n, a):.12g}",
            })
    _emit(rows, ["n", "a", "value", "lower_bound"], args)
    return 0


def _cmd_markov(args: argparse.Namespace) -> int:
    kind = MutationKind.ONE_BIT if args.kind == "one_bit" else MutationKind.BITWISE
    solver = markov_lumped_absorption if args.lumped else markov_full_absorption
    rows = []
    for n in args.n:
        result = solver(n, kind)
        uniform = result.from_uniform()
        for state, value in [*uniform.items(), ("p_failure", result.failure_probability())]:
            rows.append({"n": n, "state": state, "value": f"{value:.12g}"})
    _emit(rows, ["n", "state", "value"], args)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    rows = []
    for n in args.n:
        mu = args.mu if args.mu is not None else min_population(n, args.delta)
        for name, bound in (
            ("theorem1_failure_lb", theorem1_bound(n)),
            ("theorem2_success_lb", theorem2_bound(n, mu, args.delta)),
            ("theorem3_event_lb", theorem3_bound(n, mu, args.delta)),
        ):
            rows.append({"n": n, "mu": mu, "bound": name,
                         "value": f"{bound.value:.6g}", "vacuous": bound.vacuous})
    _emit(rows, ["n", "mu", "bound", "value", "vacuous"], args)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_criteria(args.criteria)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlonemax",
        description="Simulation and exact analysis of a time-linkage OneMax variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write/print the report")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an n/mu grid; adds a scaling table for muea")
    _add_experiment_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="conditional improvement probability tables")
    p_oracle.add_argument("--n", type=_int_list, required=True)
    p_oracle.add_argument("--out")
    p_oracle.add_argument("--format", choices=("csv", "json"), default="csv")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_markov = sub.add_parser("markov", help="absorption probability tables")
    p_markov.add_argument("--n", type=_int_list, required=True)
    p_markov.add_argument("--kind", choices=("one_bit", "bitwise"), default="bitwise")
    p_markov.add_argument("--lumped", action="store_true",
                          help="use the reduced chain (required for n > 10)")
    p_markov.add_argument("--out")
    p_markov.add_argument("--format", choices=("csv", "json"), default="csv")
    p_markov.set_defaults(func=_cmd_markov)

    p_bounds = sub.add_parser("bounds", help="theorem bound tables")
    p_bounds.add_argument("--n", type=_int_list, required=True)
    p_bounds.add_argument("--mu", type=int)
    p_bounds.add_argument("--delta", type=float, default=1e-9)
    p_bounds.add_argument("--out")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_check = sub.add_parser("check", help="run the built-in acceptance suite")
    p_check.add_argument("--criteria", type=_int_list,
                         help="comma-separated criterion numbers (default: all ten)")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``run`` (one experiment), ``sweep`` (grid plus scaling table),
``oracle`` (conditional-probability tables), ``markov`` (absorption tables),
``bounds`` (theorem bound tables), ``check`` (the built-in acceptance suite).
Exit codes: 0 success, 1 configuration error, 2 acceptance-check failure,
3 a trial raised (``run`` and ``sweep`` still write the report).
``TLONEMAX_OUT`` sets the default directory for relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .acceptance import run_criteria
from .algorithms import MutationKind
from .harness import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    report_csv,
    report_json_obj,
    run_experiment,
    runtime_scaling_check,
)
from .oracle import (
    SIZE_LIMIT,
    lemma2_exact,
    lemma2_lower_bound,
    markov_full_absorption,
    markov_lumped_absorption,
    min_population,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)


def _int_list(text: str, item=int) -> list[int]:
    # int("") raises too, so an empty list or item fails like a non-integer
    try:
        return [item(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _size(what: str, limit: int = SIZE_LIMIT, shown: str = "2**53"):
    """The argparse type of one integer ``what`` at most ``limit``, written ``shown``."""

    def parse(text: str) -> int:
        value = int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{what} must be at most {shown}")
        return value

    parse.__name__ = what  # argparse's "invalid <name> value" message
    return parse


_population_size = _size("population size")
_dimension = _size("dimension")
_mu_list = functools.partial(_int_list, item=_population_size)
_n_list = functools.partial(_int_list, item=_dimension)
# the oracle's table costs O(n^2) big-integer products of O(n log n) bits:
# 22 s at n = 1000 on one core of a 2-core x86 box, 143 s at n = 1600
_oracle_n_list = functools.partial(_int_list, item=_size("dimension", 1000, "1000"))


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("TLONEMAX_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    """``--out`` and ``--format``, shared by every subcommand that writes a table."""
    sub.add_argument("--out", help="output file (relative paths land in $TLONEMAX_OUT)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    """The ``run``/``sweep`` flags; each one stores straight into its config field."""
    sub.add_argument("--config", help="JSON config file; explicit flags override its fields")
    sub.add_argument("--alg", dest="algorithm", choices=ALGORITHMS, help="algorithm to run")
    sub.add_argument("--n", dest="n_values", type=_int_list, help="comma-separated dimensions")
    sub.add_argument("--mu", dest="mu_values", type=_mu_list,
                     help="comma-separated population sizes (default: guaranteed size per n)")
    sub.add_argument("--delta", type=float, help="slack parameter for the guaranteed size")
    sub.add_argument("--trials", type=int, help="trials per grid point")
    sub.add_argument("--budget-mult", type=float, help="multiplier over the default budget")
    sub.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    sub.add_argument("--no-early-exit", dest="early_exit", action="store_false", default=None,
                     help="run out the budget instead of stopping at stagnation events")
    sub.add_argument("--workers", type=int, help="worker processes (default: all cores)")
    _add_output_flags(sub)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(
                f"config: must be a JSON object, got {type(loaded).__name__} in {args.config}")
        fields.update(loaded)
    for field in dataclasses.fields(ExperimentConfig):
        if (value := getattr(args, field.name)) is not None:
            fields[field.name] = value
    try:
        config = ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _write(text: str, args: argparse.Namespace) -> None:
    """Write ``text`` to the ``--out`` file, or to stdout without one."""
    out = _resolve_out(args.out)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit(rows: list[dict], header: list[str], args: argparse.Namespace) -> None:
    """Print or write a small table as CSV (fixed columns) or a JSON list."""
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(row[col]) for col in header) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _output_report(report, args: argparse.Namespace) -> int:
    """Print or write the report; when a trial raised, say so on stderr and return 3."""
    if args.format == "json":
        _write(json.dumps(report_json_obj(report), indent=2, allow_nan=False) + "\n", args)
    else:
        _write(report_csv(report), args)
    if not report.errors:
        return 0
    print(f"error: {len(report.errors)} trial(s) raised; first: {report.errors[0]}",
          file=sys.stderr)
    return 3


def _cmd_run(args: argparse.Namespace) -> int:
    return _output_report(run_experiment(_config_from_args(args)), args)


def _print_scaling(report) -> None:
    """The scaling table on stderr, or the reason it is undefined for this run."""
    try:
        table = runtime_scaling_check(report)
    except ValueError as exc:
        print(f"# scaling: {exc}", file=sys.stderr)
        return
    print("# scaling: n,mu,cond_mean_gens,ratio", file=sys.stderr)
    for row in table.rows:
        ratio = "nan" if row.ratio is None else f"{row.ratio:.6g}"
        print(f"# {row.n},{row.mu},{row.cond_mean_gens:.6g},{ratio}", file=sys.stderr)
    if table.flagged:
        print("# WARNING: ratio spread exceeds factor 2", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if len(config.n_values) < 2:
        raise ConfigError("sweep: need at least 2 values of n (use `run` for a single point)")
    report = run_experiment(config)
    code = _output_report(report, args)
    if config.algorithm == "muea":
        _print_scaling(report)
    return code


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
    kind = MutationKind(args.kind)
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
    p_oracle.add_argument("--n", type=_oracle_n_list, required=True)
    _add_output_flags(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_markov = sub.add_parser("markov", help="absorption probability tables")
    p_markov.add_argument("--n", type=_int_list, required=True)
    p_markov.add_argument("--kind", choices=[k.value for k in MutationKind], default="bitwise")
    p_markov.add_argument("--lumped", action="store_true",
                          help="use the reduced chain (required for n > 10)")
    _add_output_flags(p_markov)
    p_markov.set_defaults(func=_cmd_markov)

    p_bounds = sub.add_parser("bounds", help="theorem bound tables")
    p_bounds.add_argument("--n", type=_n_list, required=True)
    p_bounds.add_argument("--mu", type=_population_size)
    p_bounds.add_argument("--delta", type=float, default=1e-9)
    _add_output_flags(p_bounds)
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

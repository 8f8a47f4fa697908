"""Command-line harness around the benchmark module.

Subcommands: exp1 (Hadamard vs single-circuit comparison), exp2 (scaling of
the single-circuit method), single (one instance), aggregate (speedup table
from a CSV), plotdata (plot-ready series files).
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ExperimentConfig,
    aggregate_speedup,
    emit_plot_data,
    exp1_config,
    exp2_config,
    load_config_file,
    read_records,
    run_experiment,
)


def _add_run_flags(sub):
    sub.add_argument("--n-min", type=int, default=None)
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--p", type=int, nargs="+", default=None, help="layer counts")
    sub.add_argument("--instances", type=int, default=None)
    sub.add_argument("--shots", type=int, default=None)
    sub.add_argument("--exact", action="store_true", help="exact probabilities, no sampling")
    sub.add_argument("--restarts", type=int, default=None)
    sub.add_argument("--methods", nargs="+", default=None, choices=["raw", "hadamard", "holcus", "holcus_div"])
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--max-evals", type=int, default=None)
    sub.add_argument("--config", default=None, help="key = value file; flags override it")


_CONFIG_KEYS = {
    "n_min": int,
    "n_max": int,
    "instances": int,
    "shots": int,
    "restarts": int,
    "seed": int,
    "max_evals": int,
    "out": str,
    "exact": lambda v: v.lower() in ("1", "true", "yes"),
}


def _collect_overrides(args) -> dict:
    over = {}
    if args.config:
        raw = load_config_file(args.config)
        for key, value in raw.items():
            if key == "p":
                over["p_values"] = tuple(int(v) for v in value.split())
            elif key == "methods":
                over["methods"] = tuple(value.split())
            elif key in _CONFIG_KEYS:
                over[_rename(key)] = _CONFIG_KEYS[key](value)
            else:
                raise ValueError(f"unknown config key {key!r}")
    if args.n_min is not None:
        over["n_min"] = args.n_min
    if args.n_max is not None:
        over["n_max"] = args.n_max
    if args.p is not None:
        over["p_values"] = tuple(args.p)
    if args.instances is not None:
        over["instances_per_n"] = args.instances
    file_exact = over.pop("exact", False)
    if args.shots is not None:
        over["shots"] = args.shots
    if args.exact or (file_exact and args.shots is None):
        over["shots"] = None
    if args.restarts is not None:
        over["restarts"] = args.restarts
    if args.methods is not None:
        over["methods"] = tuple(args.methods)
    if args.seed is not None:
        over["master_seed"] = args.seed
    if args.out is not None:
        over["output_path"] = args.out
    if args.max_evals is not None:
        over["max_evals"] = args.max_evals
    return over


def _rename(key: str) -> str:
    return {"instances": "instances_per_n", "seed": "master_seed", "out": "output_path"}.get(key, key)


def _progress(rec):
    status = rec.error or f"best={rec.best_value:.6f} t={rec.wall_time_seconds:.3f}s"
    print(f"n={rec.n} p={rec.p} method={rec.method} seed={rec.instance_seed}: {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="holcus-bench", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("exp1", "exp2", "single"):
        _add_run_flags(subs.add_parser(name))
    agg = subs.add_parser("aggregate")
    agg.add_argument("csv", help="benchmark CSV produced by exp1/exp2/single")
    plot = subs.add_parser("plotdata")
    plot.add_argument("csv")
    plot.add_argument("kind", choices=["time_vs_n", "speedup_vs_n", "holcus_scaling"])
    plot.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.command == "aggregate":
        rows, skipped = aggregate_speedup(read_records(args.csv))
        print("n,p,mean_ratio,min_ratio,max_ratio,pairs")
        for row in rows:
            print(f"{row.n},{row.p},{row.mean_ratio:.4f},{row.min_ratio:.4f},{row.max_ratio:.4f},{row.pairs}")
        if skipped:
            print(f"warning: {skipped} unpaired instances skipped", file=sys.stderr)
        return 0
    if args.command == "plotdata":
        emit_plot_data(read_records(args.csv), args.kind, args.out)
        print(f"wrote {args.out}")
        return 0

    try:
        over = _collect_overrides(args)
        if args.command == "exp1":
            cfg = exp1_config(**over)
        elif args.command == "exp2":
            cfg = exp2_config(**over)
        else:
            single = dict(n_min=4, n_max=4, p_values=(1,), instances_per_n=1)
            cfg = ExperimentConfig(**{**single, "methods": ("holcus",), **over})
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    records = run_experiment(cfg, progress=_progress)
    errored = sum(1 for r in records if r.error)
    print(f"{len(records) - errored} records written to {cfg.output_path}" + (f" ({errored} errored)" if errored else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

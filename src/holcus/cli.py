"""Command-line harness around the benchmark module.

Subcommands: exp1 (Hadamard vs single-circuit comparison), exp2 (scaling of
the single-circuit method), single (one instance), aggregate (speedup table
from a CSV), plotdata (plot-ready series files).
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    PLOT_KINDS,
    ExperimentConfig,
    aggregate_speedup,
    emit_plot_data,
    exp1_config,
    exp2_config,
    load_config_file,
    read_records,
    run_experiment,
)
from .estimators import METHODS

# Run option -> (ExperimentConfig field, parser of its config-file value,
# argparse settings of its flag). Each key is both the config-file key and the
# argparse dest of its flag, --<key with dashes>; a true `exact` sets `shots` to None.
_RUN_OPTIONS = {
    "n_min": ("n_min", int, dict(type=int)),
    "n_max": ("n_max", int, dict(type=int)),
    "p": ("p_values", lambda v: tuple(int(x) for x in v.split()), dict(type=int, nargs="+", help="layer counts")),
    "instances": ("instances_per_n", int, dict(type=int)),
    "shots": ("shots", int, dict(type=int)),
    "exact": (
        "shots",
        lambda v: v.lower() in ("1", "true", "yes"),
        dict(action="store_true", help="exact probabilities, no sampling"),
    ),
    "restarts": ("restarts", int, dict(type=int)),
    "methods": ("methods", lambda v: tuple(v.split()), dict(nargs="+", choices=METHODS)),
    "seed": ("master_seed", int, dict(type=int)),
    "out": ("output_path", str, {}),
    "max_evals": ("max_evals", int, dict(type=int)),
}


def _add_run_flags(sub):
    for key, (_, _, settings) in _RUN_OPTIONS.items():
        sub.add_argument("--" + key.replace("_", "-"), default=None, **settings)
    sub.add_argument("--config", default=None, help="key = value file; flags override it")


def _collect_overrides(args) -> dict:
    """Config-file values, then flags over them; within each source an
    exact request beats a shot count."""
    file = load_config_file(args.config) if args.config else {}
    for key in file:
        if key not in _RUN_OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
    from_file = {key: _RUN_OPTIONS[key][1](value) for key, value in file.items()}
    from_flags = {key: flag for key in _RUN_OPTIONS if (flag := getattr(args, key)) is not None}
    over = {}
    for source in (from_file, from_flags):
        if source.pop("exact", False):
            source["shots"] = None
        for key, value in source.items():
            over[_RUN_OPTIONS[key][0]] = tuple(value) if isinstance(value, list) else value
    return over


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
    plot.add_argument("kind", choices=PLOT_KINDS)
    plot.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "aggregate":
            rows, skipped = aggregate_speedup(read_records(args.csv))
        elif args.command == "plotdata":
            emit_plot_data(read_records(args.csv), args.kind, args.out)
        else:
            over = _collect_overrides(args)
            if args.command == "exp1":
                cfg = exp1_config(**over)
            elif args.command == "exp2":
                cfg = exp2_config(**over)
            else:
                single = dict(n_min=4, n_max=4, p_values=(1,), instances_per_n=1)
                cfg = ExperimentConfig(**{**single, "methods": ("holcus",), **over})
            records = run_experiment(cfg, progress=_progress)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if args.command == "aggregate":
        print("n,p,mean_ratio,min_ratio,max_ratio,pairs")
        for row in rows:
            print(f"{row.n},{row.p},{row.mean_ratio:.4f},{row.min_ratio:.4f},{row.max_ratio:.4f},{row.pairs}")
        if skipped:
            print(f"warning: {skipped} unpaired instances skipped", file=sys.stderr)
        return 0
    if args.command == "plotdata":
        print(f"wrote {args.out}")
        return 0
    errored = sum(1 for r in records if r.error)
    print(f"{len(records) - errored} records written to {cfg.output_path}" + (f" ({errored} errored)" if errored else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

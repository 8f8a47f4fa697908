"""Command-line harness around the benchmark module.

Subcommands: exp1 (Hadamard vs single-circuit comparison), exp2 (scaling of
the single-circuit method), single (one instance), each running its
bench.PRESETS grid with the run flags over it; aggregate (speedup table from
a CSV), plotdata (plot-ready series files), profile (the kernel and
estimate timings of bench.profile, written as one BENCH_<label>.json file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (
    PLOT_KINDS,
    PRESETS,
    ExperimentConfig,
    aggregate_speedup,
    emit_plot_data,
    profile,
    read_records,
    run_experiment,
)
from .estimators import METHODS

# Run option -> (ExperimentConfig field, argparse settings of its flag). Each
# key is the argparse dest of its flag, --<key with dashes>; `exact` sets
# `shots` to None.
_RUN_OPTIONS = {
    "n_min": ("n_min", dict(type=int)),
    "n_max": ("n_max", dict(type=int)),
    "p": ("p_values", dict(type=int, nargs="+", help="layer counts")),
    "instances": ("instances_per_n", dict(type=int)),
    "shots": ("shots", dict(type=int)),
    "exact": ("shots", dict(action="store_true", help="exact probabilities, no sampling")),
    "restarts": ("restarts", dict(type=int)),
    "methods": ("methods", dict(nargs="+", choices=METHODS)),
    "seed": ("master_seed", dict(type=int)),
    "out": ("output_path", {}),
    "max_evals": ("max_evals", dict(type=int)),
}


def _add_run_flags(sub):
    for key, (_, settings) in _RUN_OPTIONS.items():
        sub.add_argument("--" + key.replace("_", "-"), default=None, **settings)


def _collect_overrides(args) -> dict:
    """The ExperimentConfig fields the flags set; --exact beats --shots."""
    flags = {key: flag for key in _RUN_OPTIONS if (flag := getattr(args, key)) is not None}
    if flags.pop("exact", False):
        flags["shots"] = None
    return {_RUN_OPTIONS[key][0]: tuple(value) if isinstance(value, list) else value for key, value in flags.items()}


def _progress(rec):
    status = rec.error or f"best={rec.best_value:.6f} t={rec.wall_time_seconds:.3f}s"
    print(f"n={rec.n} p={rec.p} method={rec.method} seed={rec.instance_seed}: {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="holcus-bench", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in PRESETS:
        _add_run_flags(subs.add_parser(name))
    agg = subs.add_parser("aggregate")
    agg.add_argument("csv", help="benchmark CSV produced by exp1/exp2/single")
    plot = subs.add_parser("plotdata")
    plot.add_argument("csv")
    plot.add_argument("kind", choices=PLOT_KINDS)
    plot.add_argument("--out", required=True)
    prof = subs.add_parser("profile")
    prof.add_argument("--out", required=True, help="the JSON file to write, by convention BENCH_<label>.json")
    args = parser.parse_args(argv)
    try:
        if args.command == "profile":
            # The profile takes seconds; an unwritable --out fails before it, creating nothing.
            if os.path.isdir(args.out) or not os.access(os.path.dirname(args.out) or ".", os.W_OK):
                raise OSError(f"cannot write {args.out}")
            record = profile()
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            print(f"wrote {args.out}")
        elif args.command == "aggregate":
            rows, skipped = aggregate_speedup(read_records(args.csv))
            print("n,p,mean_ratio,min_ratio,max_ratio,pairs")
            for row in rows:
                print(f"{row.n},{row.p},{row.mean_ratio:.4f},{row.min_ratio:.4f},{row.max_ratio:.4f},{row.pairs}")
            if skipped:
                print(f"warning: {skipped} unpaired runs skipped", file=sys.stderr)
        elif args.command == "plotdata":
            emit_plot_data(read_records(args.csv), args.kind, args.out)
            print(f"wrote {args.out}")
        else:
            cfg = ExperimentConfig(**{**PRESETS[args.command], **_collect_overrides(args)})
            records = run_experiment(cfg, progress=_progress)
            errored = sum(1 for r in records if r.error)
            print(f"{len(records) - errored} records written to {cfg.output_path}" + (f" ({errored} errored)" if errored else ""))
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark results, a parent and a change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result JSON files that run.py writes (its
--results directory). For every workload, each row gives a metric's median
and quartiles on both sides, the change/parent ratio with its base, the
pairs (runs with the same seed) the change won, and a verdict:

  gain           the change won at least 9/10 of the pairs and the medians
                 differ by more than the parent's quartile spread
  within bound   the change's median is no worse than the parent's by more
                 than the metric's bound in BENCHMARK.json
  WORSE          it is worse by more than the bound
  unresolved     the parent's own spread is wider than the bound and not
                 every change run beats every parent run

Per-layer metrics (traced runs) have no bound; their rows carry no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(path: Path) -> dict[str, dict]:
    spec = json.loads(path.read_text())
    metrics = {m["name"]: dict(m, kind="end_to_end") for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, kind="per_layer") for m in spec["per_layer"]})
    return metrics


def load_results(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: metrics}} from every result file in the directory."""
    out: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        doc = json.loads(path.read_text())
        out[(doc["workload"], doc["trace"])][doc["seed"]] = doc["result"]["metrics"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, spec: dict) -> str:
    if spec["kind"] != "end_to_end":
        return ""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    lower = spec["better"] == "lower"
    if pairs and wins >= 0.9 * pairs and better(cm, pm, spec["better"]) and abs(cm - pm) > p3 - p1:
        return "gain"
    worse = cm > pm * (1 + spec["bound"]) if lower else cm < pm * (1 - spec["bound"])
    if (p3 - p1) / abs(pm) > spec["bound"]:
        if all(better(c, p, spec["better"]) for c in change for p in parent):
            return "within bound"
        return "unresolved"
    return "WORSE" if worse else "within bound"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = load_spec(args.spec)
    parent, change = load_results(args.parent), load_results(args.change)
    header = f"{'metric':44} {'unit':6} {'parent median [q1, q3] n':34} {'change median [q1, q3] n':34} {'change/parent (base)':30} {'wins':7} verdict"
    status = 0
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        print(f"\n== {workload} ({'per layer, traced' if trace else 'end to end'})")
        print(header)
        p_runs, c_runs = parent.get(key, {}), change.get(key, {})
        names = [n for n in spec if any(n in m for m in list(p_runs.values()) + list(c_runs.values()))]
        for name in names:
            s = spec[name]
            pv = [m[name]["value"] for m in p_runs.values() if name in m]
            cv = [m[name]["value"] for m in c_runs.values() if name in m]
            if not pv or not cv:
                print(f"{name:44} missing on the {'parent' if not pv else 'change'} side")
                continue
            seeds = sorted(set(p_runs) & set(c_runs))
            pairs = [(p_runs[k][name]["value"], c_runs[k][name]["value"]) for k in seeds
                     if name in p_runs[k] and name in c_runs[k]]
            wins = sum(1 for p, c in pairs if better(c, p, s["better"]))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            ratio = f"{cm / pm:.3f} (base {fmt(pm)} {s['unit']})" if pm else "n/a (parent median 0)"
            v = verdict(pv, cv, wins, len(pairs), s)
            status |= v == "WORSE"
            print(
                f"{name:44} {s['unit']:6} "
                f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + '] ' + str(len(pv)):34} "
                f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + '] ' + str(len(cv)):34} "
                f"{ratio:30} {f'{wins}/{len(pairs)}':7} {v}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())

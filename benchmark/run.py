"""Benchmark of holcus QAOA training and single-circuit estimation.

    python3 benchmark/run.py --workload exp1-exact --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from src/. One
workload runs per process, as a single client in a closed loop: each call
waits for the previous one. It repeats whole rounds of the same operations
until --seconds have passed, checks every output against an independent
oracle (oracle.py) and prints, as the last line of standard output, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end ones; with --trace 1 one round runs with
spans around the calls into each module and the metrics are per layer.
The same JSON, with reference figures and the machine, is also written to
benchmark/results/.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is the ceiling); set before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np

import calibration
import checks
import layers
from oracle import InstanceOracle, coefficient_groups

MODULES = ("qubo_ising", "qaoa", "pauli_lcu", "circuit", "statevector", "estimators", "optimize", "bench")
METHODS = layers.METHODS
SETUP_REPS = 3
END_TO_END = [("setup_s", "s")]
END_TO_END += [(f"evals_per_s.{m}", "1/s") for m in METHODS]
END_TO_END += [("estimate_s.hadamard", "s"), ("estimate_s.holcus", "s")]
END_TO_END += [("peak_rss_mb", "MB")]


def sub_seed(seed: int, *path: int) -> int:
    """The benchmark's own seed split (independent of the program's)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def import_holcus() -> SimpleNamespace:
    """Import holcus from this checkout's src/, dropping any earlier import
    so that each set-up pays for the import again."""
    for name in [m for m in sys.modules if m == "holcus" or m.startswith("holcus.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("holcus")
    if Path(pkg.__file__).resolve().parent != (SRC / "holcus").resolve():
        raise SystemExit(f"holcus was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"holcus.{m}") for m in MODULES})


def angles(seed: int, p: int, *path: int):
    rng = np.random.default_rng(sub_seed(seed, *path))
    return np.concatenate([rng.uniform(0.0, np.pi, size=p), rng.uniform(0.0, np.pi / 2, size=p)])


class Run:
    """Counters and failures of one benchmark process."""

    def __init__(self, seed: int, trace: bool):
        self.seed = seed
        self.tr = layers.Tracer() if trace else None
        self.clock = calibration.Timer()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.scratch = HERE / "results" / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def op(self, fails: list[str]) -> None:
        """Count one operation that completed; wrong output also fails it."""
        self.attempted += 1
        if fails:
            self.failed += 1
            self.wrong += fails

    def op_error(self, what: str) -> None:
        """Count one operation that raised; its traceback goes to stderr."""
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()

    def call(self, layer: str, fn, *args):
        """fn(*args); a traced run also records a span and a `<layer>_s` sample."""
        if self.tr is None:
            return fn(*args)
        with self.tr.span(layer) as s:
            out = fn(*args)
        self.tr.add(f"{layer}_s", s["end"] - s["start"])
        return out

    def check(self, fails: list[str]) -> None:
        """A check outside any counted operation (set-up, replays)."""
        self.wrong += fails


def paired_ratio(times: dict, slow: str = "hadamard", fast: str = "holcus") -> dict:
    """Median of slow/fast over keys timed by both methods, with its base."""
    keys = sorted({k for m, k in times if m == slow} & {k for m, k in times if m == fast})
    if not keys:
        return {}
    ratios = [times[(slow, k)] / times[(fast, k)] for k in keys]
    return {
        "ratio": f"{slow}/{fast}",
        "median": statistics.median(ratios),
        "pairs": len(ratios),
        "base_s": statistics.median(times[(fast, k)] for k in keys),
        "base": f"median {fast} time of the paired operations, reference seconds",
    }


# --- workloads -----------------------------------------------------------------


def random_models(h, run: Run, seeds: dict[int, int]) -> list[tuple]:
    """(qubo, model, brute-force optimum) of random_qubo(n, seed) for each n."""
    out = []
    for n, seed in seeds.items():
        qubo = run.call("qubo_ising.instance", h.qubo_ising.random_qubo, n, seed)
        model = h.qubo_ising.qubo_to_ising(qubo)
        out.append((qubo, model, run.call("qubo_ising.brute_force", h.qubo_ising.brute_force_min, qubo)))
    return out


def exact_expectation_probe(h, tr, model, params, orc: InstanceOracle) -> list[str]:
    """Time qaoa.exact_expectation, the harness's re-evaluation, and check it."""
    with tr.span("qaoa.exact_expectation") as s:
        value = h.qaoa.exact_expectation(model, params)
    tr.add("qaoa.exact_expectation_s", s["end"] - s["start"])
    return checks.exact_value(value, orc.value(params.to_vector()), orc.norm, "qaoa.exact_expectation")


def warm_up(h, model, vec, shots=None, seed: int = 0) -> None:
    """One untimed estimate per method, of a p = 1 ansatz."""
    prep = h.qaoa.build_ansatz(model, h.qaoa.QaoaParams.from_vector(vec))
    for m in METHODS:
        h.estimators.estimate(prep, model, h.estimators.EstimatorConfig(method=m, shots=shots, seed=seed))


class Exp1Exact:
    """holcus.bench.run_experiment(exp1_config(...)) in exact mode: per-record
    harness work plus training on random_qubo instances with n = 5..6."""

    name = "exp1-exact"
    n_values = (5, 6)
    p_values = (1, 2)
    restarts = 3
    max_evals = 6

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def after_setup(self, h, run: Run) -> None:
        for qubo, _, (_, best) in self.models:
            orc = InstanceOracle.of(qubo.Q)
            run.check(checks.exact_value(best, orc.optimum, orc.norm, f"n={qubo.n} brute-force optimum"))

    def master(self, r: int) -> int:
        return sub_seed(self.seed, 1, r)

    def setup(self, h, run: Run) -> None:
        """Round 0's instances: generation, Ising map, brute force, one warm-up estimate per method."""
        self.models = random_models(h, run, {n: h.statevector.derive_seed(self.master(0), n, 0) for n in self.n_values})
        warm_up(h, self.models[0][1], angles(self.seed, 1, 0))

    def round(self, h, run: Run, r: int) -> list[dict]:
        csv = run.scratch / f"exp1-{os.getpid()}-{r}.csv"
        csv.unlink(missing_ok=True)
        cfg = h.bench.exp1_config(
            n_min=min(self.n_values),
            n_max=max(self.n_values),
            p_values=self.p_values,
            instances_per_n=1,
            shots=h.estimators.EXACT,
            restarts=self.restarts,
            max_evals=self.max_evals,
            methods=METHODS,
            master_seed=self.master(r),
            output_path=str(csv),
        )
        clock = run.clock
        walls = []  # (reference seconds, rescale factor) per record

        def progress(rec):
            wall = time.perf_counter() - last[0]
            scaled = clock.scale(wall, before[0])
            walls.append((scaled, scaled / wall))
            before[0] = clock.last
            last[0] = time.perf_counter()

        clock.mark()
        before = [clock.last]
        last = [time.perf_counter()]
        records = h.bench.run_experiment(cfg, progress=progress)
        ops = []
        for rec, (wall, factor) in zip(records, walls):
            qubo = h.qubo_ising.random_qubo(rec.n, rec.instance_seed)
            orc = InstanceOracle.of(qubo.Q)
            evals, fails = checks.exp1_record(rec, orc, self.restarts, self.max_evals)
            run.op(fails)
            ops.append(dict(method=rec.method, key=(rec.n, rec.p, rec.instance_seed), cell=(rec.n, rec.p), evals=evals,
                            wall=wall, raw=wall / factor, train=rec.wall_time_seconds * factor, rec=rec,
                            qubo=qubo, oracle=orc))
        csv_fails = checks.csv_round_trip(csv, records, h.bench.read_records)
        run.check(csv_fails)
        if run.tr is not None:
            run.tr.add("bench.csv_rows", 0 if csv_fails else len(records))
            self.trace_round(h, run, r, ops)
        csv.unlink(missing_ok=True)
        return ops

    def trace_round(self, h, run: Run, r: int, ops: list[dict]) -> None:
        tr = run.tr
        for k, op in enumerate(ops):
            model = h.qubo_ising.qubo_to_ising(op["qubo"])
            params = h.qaoa.QaoaParams.from_vector(angles(self.seed, op["rec"].p, 2, r, k))
            cfg = h.estimators.EstimatorConfig(method=op["method"])
            run.check(layers.replay_estimate(h, tr, model, params, cfg, op["oracle"].norm))
            call_s = tr.samples[f"estimators.call_s.{op['method']}"][-1]
            train_s = op["rec"].wall_time_seconds
            layers.training_sample(tr, op["method"], op["evals"], train_s, call_s)
            tr.add(f"bench.record_overhead_s.{op['method']}", op["raw"] - train_s)
            run.check(exact_expectation_probe(h, tr, model, params, op["oracle"]))
        for qubo, model, _ in self.models:
            layers.lcu_probes(h, tr, model)

    def reference(self, ops: list[dict]) -> dict:
        return {"training_time": paired_ratio({(o["method"], o["key"]): o["train"] for o in ops})}


class EstimateWide:
    """Exact estimates of a p=3 ansatz at seeded angle points on random_qubo
    instances with n = 10 and 11: kernel-bound, no training."""

    name = "estimate-wide"
    n_values = (10, 11)
    p = 3

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def setup(self, h, run: Run) -> None:
        """Instances, Ising map, brute force, one warm-up estimate per method on n = 10."""
        self.models = random_models(h, run, {n: sub_seed(self.seed, 1, n) for n in self.n_values})
        warm_up(h, self.models[0][1], angles(self.seed, 1, 0))

    def after_setup(self, h, run: Run) -> None:
        self.oracles = [InstanceOracle.of(q.Q) for q, _, _ in self.models]
        for (qubo, _, (_, best)), orc in zip(self.models, self.oracles):
            run.check(checks.exact_value(best, orc.optimum, orc.norm, f"n={qubo.n} brute-force optimum"))

    def round(self, h, run: Run, r: int) -> list[dict]:
        ops = []
        for (qubo, model, _), orc in zip(self.models, self.oracles):
            vec = angles(self.seed, self.p, 3, r, qubo.n)
            params = h.qaoa.QaoaParams.from_vector(vec)
            expected = orc.value(vec)
            for m in METHODS:
                cfg = h.estimators.EstimatorConfig(method=m)
                what = f"n={qubo.n} round {r} {m}"
                try:
                    prep = h.qaoa.build_ansatz(model, params)
                    res, dt = run.clock.time(h.estimators.estimate, prep, model, cfg)
                except Exception:
                    run.op_error(what)
                    continue
                fails = checks.exact_value(res.value, expected, orc.norm, what)
                if res.circuits_used != orc.circuits_per_estimate(m):
                    fails.append(f"{what}: {res.circuits_used} circuits, expected {orc.circuits_per_estimate(m)}")
                if res.max_qubits != orc.max_qubits(m):
                    fails.append(f"{what}: {res.max_qubits} qubits, expected {orc.max_qubits(m)}")
                run.op(fails)
                ops.append(dict(method=m, key=(qubo.n, r), cell=qubo.n, evals=1, wall=dt, raw=run.clock.raw[-1], train=dt, res=res,
                                model=model, params=params, oracle=orc, qubo=qubo))
        if run.tr is not None:
            self.trace_round(h, run, r, ops)
        return ops

    def trace_round(self, h, run: Run, r: int, ops: list[dict]) -> None:
        tr = run.tr
        for op in ops:
            cfg = h.estimators.EstimatorConfig(method=op["method"])
            run.check(layers.replay_estimate(h, tr, op["model"], op["params"], cfg, op["oracle"].norm, (op["raw"], op["res"])))
            run.check(exact_expectation_probe(h, tr, op["model"], op["params"], op["oracle"]))
        # No training runs here: one single-evaluation training per method on
        # n = 10 measures the optimizer layer, and a replay of the harness's
        # per-record work the bench layer.
        qubo, model, _ = self.models[0]
        opt = h.optimize.OptimizerConfig(max_evals=1, restarts=1, seed=sub_seed(self.seed, 4))
        for m in METHODS:
            t0 = time.perf_counter()
            trace = h.optimize.train_qaoa(model, self.p, h.estimators.EstimatorConfig(method=m), opt)
            train_s = time.perf_counter() - t0
            call_s = statistics.median(o["raw"] for o in ops if o["method"] == m and o["qubo"] is qubo)
            layers.training_sample(tr, m, len(trace.evaluations), train_s, call_s)
            run.check(layers.record_replay(h, tr, qubo, model, m, self.p, trace, train_s, run.scratch / f"record-{os.getpid()}.csv"))
        for _, model, _ in self.models:
            layers.lcu_probes(h, tr, model)

    def reference(self, ops: list[dict]) -> dict:
        return {"estimate_time": paired_ratio({(o["method"], o["key"]): o["wall"] for o in ops})}


class DegenerateShots:
    """train_qaoa with 10 000 shots on small-integer QUBOs whose Ising
    coefficients repeat, so holcus_div groups terms."""

    name = "degenerate-shots"
    n = 7
    p = 2
    shots = 10_000
    restarts = 2
    max_evals = 6
    # Coefficient-group sizes every instance must have: a power-of-two group
    # (8, and 2) for the controlled-H ladder and the dense-layout select, a
    # multi-term group of another size (7) for the shifted layout, and
    # singletons. Fixing the sizes keeps the circuit mix the same on every seed.
    group_sizes = (8, 7, 2, 1, 1, 1)

    def prepare(self, seed: int) -> None:
        """Draw QUBOs with couplings in {-1, 0, 1} and diagonal in {+-1, +-2}
        until the coefficient groups have the sizes above."""
        self.seed = seed
        n = self.n
        upper = np.triu_indices(n, 1)
        for attempt in range(100_000):
            rng = np.random.default_rng(sub_seed(seed, 5, attempt))
            Q = np.zeros((n, n))
            Q[upper] = rng.integers(-1, 2, size=len(upper[0]))
            Q = Q + Q.T
            Q[np.diag_indices(n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)
            orc = InstanceOracle.of(Q)
            sizes = tuple(sorted((k for _, k in coefficient_groups(orc.coeffs)), reverse=True))
            if sizes == self.group_sizes:
                self.Q, self.oracle, self.attempt = Q, orc, attempt
                return
        raise RuntimeError("no QUBO with the required coefficient groups")

    def setup(self, h, run: Run) -> None:
        """Instance, Ising map, brute force, one warm-up estimate per method."""
        self.qubo = run.call("qubo_ising.instance", h.qubo_ising.QuboInstance, self.n, self.Q, sub_seed(self.seed, 5, self.attempt))
        self.model = h.qubo_ising.qubo_to_ising(self.qubo)
        self.best = run.call("qubo_ising.brute_force", h.qubo_ising.brute_force_min, self.qubo)
        warm_up(h, self.model, angles(self.seed, 1, 0), self.shots, sub_seed(self.seed, 6))

    def after_setup(self, h, run: Run) -> None:
        run.check(checks.exact_value(self.best[1], self.oracle.optimum, self.oracle.norm, "brute-force optimum"))

    def round(self, h, run: Run, r: int) -> list[dict]:
        ops = []
        for m in METHODS:
            est = h.estimators.EstimatorConfig(method=m, shots=self.shots, seed=sub_seed(self.seed, 7, r))
            opt = h.optimize.OptimizerConfig(max_evals=self.max_evals, restarts=self.restarts, seed=sub_seed(self.seed, 8, r))
            what = f"round {r} {m}"
            try:
                trace, dt = run.clock.time(h.optimize.train_qaoa, self.model, self.p, est, opt)
            except Exception:
                run.op_error(what)
                continue
            evals, fails = checks.shot_training(
                trace, self.oracle, m, self.shots, 2 * self.p + 1, self.restarts * self.max_evals, what
            )
            run.op(fails)
            ops.append(dict(method=m, key=r, cell=0, evals=evals, wall=dt, raw=run.clock.raw[-1], train=dt, trace=trace, cfg=est))
        if run.tr is not None:
            self.trace_round(h, run, r, ops)
        return ops

    def trace_round(self, h, run: Run, r: int, ops: list[dict]) -> None:
        tr = run.tr
        for op in ops:
            m, trace = op["method"], op["trace"]
            run.check(layers.replay_estimate(h, tr, self.model, trace.best_params, op["cfg"], self.oracle.norm))
            layers.training_sample(tr, m, op["evals"], op["raw"], tr.samples[f"estimators.call_s.{m}"][-1])
            run.check(layers.record_replay(h, tr, self.qubo, self.model, m, self.p, trace, op["raw"],
                                           run.scratch / f"record-{os.getpid()}.csv"))
            run.check(exact_expectation_probe(h, tr, self.model, trace.best_params, self.oracle))
        layers.lcu_probes(h, tr, self.model)

    def reference(self, ops: list[dict]) -> dict:
        train = {(o["method"], o["key"]): o["train"] for o in ops}
        return {
            "training_time": paired_ratio(train),
            "training_time_div": paired_ratio(train, fast="holcus_div"),
        }


WORKLOADS = {w.name: w for w in (Exp1Exact, EstimateWide, DegenerateShots)}


# --- main ----------------------------------------------------------------------


def set_up(workload, run: Run, reps: int):
    """Time `reps` full set-ups from before `import holcus` to the point the
    first timed call could start; the oracle's work is outside the timing."""
    times = []
    for _ in range(reps):
        run.clock.mark()
        before = run.clock.last
        t0 = time.perf_counter()
        h = import_holcus()
        workload.setup(h, run)
        times.append(run.clock.scale(time.perf_counter() - t0, before))
    workload.after_setup(h, run)
    return h, statistics.median(times)


def end_to_end(ops: list[dict], setup_s: float) -> dict:
    values = {"setup_s": setup_s}
    for m in METHODS:
        mine = [o for o in ops if o["method"] == m and o["evals"] > 0]
        values[f"evals_per_s.{m}"] = sum(o["evals"] for o in mine) / sum(o["wall"] for o in mine)
        if m != "holcus_div":
            cells = {o["cell"] for o in mine}
            values[f"estimate_s.{m}"] = statistics.fmean(
                statistics.median(o["train"] / o["evals"] for o in mine if o["cell"] == c) for c in cells
            )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results"), help="directory for the result JSON")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    run = Run(args.seed, bool(args.trace))
    workload.prepare(args.seed)
    h, setup_s = set_up(workload, run, 1 if args.trace else SETUP_REPS)

    ops: list[dict] = []
    t_start = time.perf_counter()
    rounds = 0
    # Whole rounds only, so every run attempts the same mix of operations.
    while rounds == 0 or (not args.trace and time.perf_counter() - t_start < args.seconds):
        ops += workload.round(h, run, rounds)
        rounds += 1
    measured_s = time.perf_counter() - t_start

    if run.tr is None:
        metrics = end_to_end(ops, setup_s)
    else:
        run.check(layers.kernel_probes(h, run.tr))
        metrics = run.tr.metrics()
    for msg in run.wrong:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}

    out_dir = Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    reference = workload.reference(ops)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "rounds": rounds,
                "measured_s": measured_s,
                "reference": reference,
                "machine": {
                    "nproc": os.cpu_count(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                },
                "failures": run.wrong,
                "operations": [
                    {"method": o["method"], "key": list(o["key"]) if isinstance(o["key"], tuple) else o["key"],
                     "evals": o["evals"], "wall": o["wall"], "raw_wall": o["raw"], "train": o["train"]}
                    for o in ops
                ],
                "result": result,
            },
            fh,
            indent=1,
        )
    if run.tr is not None:
        run.tr.write(out_dir / f"{stem}.spans.json")

    print(f"{args.workload} seed={args.seed}: {rounds} round(s) in {measured_s:.2f} s, "
          f"{run.attempted} operations, {run.failed} failed")
    for name, ref in reference.items():
        if ref:
            print(f"reference {name}: {ref['ratio']} = {ref['median']:.3f} over {ref['pairs']} pairs "
                  f"(base: {ref['base']} = {ref['base_s']:.4g} s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

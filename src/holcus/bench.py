"""Benchmark harness: desk-scale reruns of the two training experiments.

Experiment 1 trains QAOA with the per-term Hadamard estimator and with the
single-circuit estimator on the same seeded instances and logs wall times for
the speedup comparison. Experiment 2 tracks the single-circuit method alone
over a growing variable count. Wall time covers circuit creation plus
training, never the QUBO -> Ising mapping or instance generation.

Records append to the output CSV as they complete, so a crashed run keeps
everything finished so far. Instance seeds derive from the master seed by
counter splitting, independent of scheduling.

profile times the gate kernel per gate kind and one exact estimate per method
over a fixed grid, through public calls only, for the BENCH_*.json files.
"""

import os
import statistics
import time
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from . import BLAS_THREAD_VARS, circuit
from .estimators import METHODS, EstimatorConfig, compile_plan, estimate
from .optimize import OptimizerConfig, train_qaoa
from .qaoa import QaoaParams, build_ansatz, exact_expectation
from .qubo_ising import QuboInstance, brute_force_min, qubo_to_ising, random_qubo
from .statevector import MAX_QUBITS, StateVector, _check_int, apply_unitary, derive_seed

@dataclass(frozen=True)
class ExperimentConfig:
    n_min: int
    n_max: int
    p_values: tuple[int, ...]
    instances_per_n: int
    methods: tuple[str, ...]
    shots: int | None = 10_000
    restarts: int = 3
    master_seed: int = 0
    output_path: str = "bench.csv"
    max_evals: int = 60

    def __post_init__(self):
        _check_int("n_min", self.n_min, 1)
        # Every method holds the n state qubits, so no wider n is compiled.
        _check_int("n_max", self.n_max, self.n_min, MAX_QUBITS)
        _check_int("instances_per_n", self.instances_per_n, 1)
        _check_int("master_seed", self.master_seed, 0)
        for i, p in enumerate(self.p_values):
            _check_int(f"p_values[{i}]", p, 1)
        if not self.p_values or not self.methods:
            raise ValueError("p_values and methods must each name at least one value")
        # A repeated value would rerun its cells.
        for name, values in (("p_values", self.p_values), ("methods", self.methods)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        OptimizerConfig(max_evals=self.max_evals, restarts=self.restarts)
        # Every plan the sweep runs, compiled once before any record is written: each must fit the guard.
        for n in range(self.n_min, self.n_max + 1):
            for instance in range(self.instances_per_n):
                model = qubo_to_ising(_instance(self.master_seed, n, instance)[1])
                for method in self.methods:
                    width = compile_plan(model, EstimatorConfig(method=method, shots=self.shots)).max_qubits
                    if width > MAX_QUBITS:
                        raise ValueError(
                            f"{method} at n={n} needs a {width}-qubit register, above the guard of {MAX_QUBITS}"
                        )


def _instance(master_seed: int, n: int, instance: int) -> tuple[int, QuboInstance]:
    """The seed and QUBO of a grid cell's instance."""
    seed = derive_seed(master_seed, n, instance)
    return seed, random_qubo(n, seed)


# The run grids holcus-bench names (desk scale): exp1 compares the per-term
# and single-circuit methods, exp2 scales the single-circuit method alone,
# single is one instance.
PRESETS = {
    "exp1": dict(n_min=3, n_max=7, p_values=(1, 2, 3), instances_per_n=5, methods=("hadamard", "holcus")),
    "exp2": dict(n_min=3, n_max=9, p_values=(3,), instances_per_n=10, methods=("holcus",)),
    "single": dict(n_min=4, n_max=4, p_values=(1,), instances_per_n=1, methods=("holcus",)),
}


def exp1_config(**overrides) -> ExperimentConfig:
    """The exp1 preset with the given fields overridden."""
    return ExperimentConfig(**{**PRESETS["exp1"], **overrides})


@dataclass
class BenchmarkRecord:
    n: int
    p: int
    instance_seed: int
    method: str
    wall_time_seconds: float = 0.0
    best_value: float = 0.0
    exact_value_of_best_params: float = 0.0
    brute_force_optimum: float = 0.0
    circuits_total: int = 0
    shots_total: int = 0
    max_qubits: int = 0
    error: str = ""


BENCH_CSV_HEADER = ",".join(f.name for f in fields(BenchmarkRecord))


def record_to_csv_row(rec: BenchmarkRecord) -> str:
    """The record's values in field order: repr for floats, str for the rest."""
    return ",".join((repr if f.type is float else str)(getattr(rec, f.name)) for f in fields(rec))


def record_from_csv_row(row: str) -> BenchmarkRecord:
    """Each column parsed by its field's type; an empty float column reads as 0.0."""
    parts = row.split(",")
    columns = fields(BenchmarkRecord)
    if len(parts) != len(columns):
        raise ValueError(f"malformed record row: {row!r}")
    return BenchmarkRecord(
        *(0.0 if f.type is float and not text else f.type(text) for f, text in zip(columns, parts))
    )


def read_records(path) -> list[BenchmarkRecord]:
    with open(path) as fh:
        return _parse_records(fh.read(), path)


def _parse_records(text: str, path) -> list[BenchmarkRecord]:
    """The records of a benchmark CSV's text; ValueError unless its first
    non-blank line is the header and every later one a record row."""
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != BENCH_CSV_HEADER:
        raise ValueError(f"{path} does not start with the benchmark CSV header")
    return [record_from_csv_row(ln) for ln in lines[1:]]


def _prepare(master_seed: int, n: int, instance: int) -> tuple[int, tuple | Exception]:
    """The seed of a grid cell's instance and its (Ising model, brute-force
    optimum), or in their place the exception that building them raised."""
    seed, qubo = _instance(master_seed, n, instance)
    try:
        return seed, (qubo_to_ising(qubo), brute_force_min(qubo)[1])
    except Exception as exc:  # kept, so that each cell of the instance becomes an error row
        return seed, exc


def _run_one(cfg: ExperimentConfig, n: int, p: int, method: str, seed: int, prepared) -> BenchmarkRecord:
    rec = BenchmarkRecord(n=n, p=p, instance_seed=seed, method=method)
    try:
        if isinstance(prepared, Exception):
            raise prepared
        model, rec.brute_force_optimum = prepared
        est_cfg = EstimatorConfig(method=method, shots=cfg.shots, seed=derive_seed(seed, p))
        opt_cfg = OptimizerConfig(
            max_evals=cfg.max_evals, restarts=cfg.restarts, seed=derive_seed(seed, p, 1)
        )
        t0 = time.perf_counter()
        trace = train_qaoa(model, p, est_cfg, opt_cfg)
        rec.wall_time_seconds = time.perf_counter() - t0
        rec.best_value = trace.best_value
        rec.exact_value_of_best_params = exact_expectation(model, trace.best_params)
        rec.circuits_total = trace.total_circuits
        rec.shots_total = trace.total_shots
        rec.max_qubits = trace.max_qubits
    except Exception as exc:  # one failed cell is kept as an error row, not the end of the sweep
        # On one line with no comma, so the error stays one CSV row and one column.
        rec.error = " ".join(f"{type(exc).__name__}: {exc}".replace(",", ";").split())
    return rec


def run_experiment(cfg: ExperimentConfig, progress=None) -> list[BenchmarkRecord]:
    """Full grid sweep in (n, p, instance, method) order; records are appended
    to cfg.output_path as they finish. Each n's instances are built and
    brute-forced once, before its first cell. A missing or empty file gets the
    CSV header first, a complete last row without its newline gets one; a file
    that read_records rejects, such as one whose last row was cut off mid-write,
    raises ValueError before a cell runs, untouched."""
    records = []
    with open(cfg.output_path, "a+") as fh:  # appends always go to the end, whatever was read
        fh.seek(0)
        text = fh.read()
        if not text:
            fh.write(BENCH_CSV_HEADER + "\n")
        else:
            _parse_records(text, cfg.output_path)
            if not text.endswith("\n"):  # the last row would merge with the first new one
                fh.write("\n")
        fh.flush()
        for n in range(cfg.n_min, cfg.n_max + 1):
            instances = [_prepare(cfg.master_seed, n, i) for i in range(cfg.instances_per_n)]
            for p, (seed, prepared), method in product(cfg.p_values, instances, cfg.methods):
                rec = _run_one(cfg, n, p, method, seed, prepared)
                records.append(rec)
                fh.write(record_to_csv_row(rec) + "\n")
                fh.flush()
                if progress:
                    progress(rec)
    return records


@dataclass
class SpeedupRow:
    n: int
    p: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    pairs: int


def aggregate_speedup(
    records: list[BenchmarkRecord], slow: str = "hadamard", fast: str = "holcus"
) -> tuple[list[SpeedupRow], int]:
    """Paired wall-time ratios slow/fast per (n, p), each (n, p, seed)'s k-th slow run in
    record order with its k-th fast run; returns rows plus the count of unpaired runs."""
    times: dict[tuple[int, int, int], dict[str, list[float]]] = {}
    for rec in records:
        if not rec.error and rec.method in (slow, fast):
            runs = times.setdefault((rec.n, rec.p, rec.instance_seed), {slow: [], fast: []})
            runs[rec.method].append(rec.wall_time_seconds)
    ratios: dict[tuple[int, int], list[float]] = {}
    skipped = 0
    for (n, p, _), by_method in times.items():  # first-seen order fixes each mean's summation order
        ratios.setdefault((n, p), []).extend(s / f for s, f in zip(by_method[slow], by_method[fast]))
        skipped += abs(len(by_method[slow]) - len(by_method[fast]))
    rows = [
        SpeedupRow(n, p, sum(r) / len(r), min(r), max(r), len(r))
        for (n, p), r in sorted(ratios.items()) if r
    ]
    return rows, skipped


PLOT_KINDS = ("time_vs_n", "speedup_vs_n", "holcus_scaling")


def emit_plot_data(records: list[BenchmarkRecord], kind: str, path) -> None:
    """Plot-ready text: 'series<TAB>x<TAB>y' rows in deterministic order."""
    if not records:
        raise ValueError("no records to plot")
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {PLOT_KINDS}")
    good = [r for r in records if not r.error]
    # (sort key, series, x, y) points; each series' y is the mean at each x, in sort-key order.
    if kind == "time_vs_n":
        points = [((r.method, r.p, r.n), f"{r.method}_p{r.p}", r.n, r.wall_time_seconds) for r in good]
    elif kind == "speedup_vs_n":
        points = [((row.n, row.p), f"p{row.p}", row.n, row.mean_ratio) for row in aggregate_speedup(good)[0]]
    else:
        points = [(r.n, "holcus", r.n, r.wall_time_seconds) for r in good if r.method == "holcus"]
    ys: dict[tuple, list[float]] = {}
    for key, series, x, y in points:
        ys.setdefault((key, series, x), []).append(y)
    lines = [f"# {kind}: series\tx\ty"]
    lines += [f"{series}\t{x}\t{sum(v) / len(v)!r}" for (_, series, x), v in sorted(ys.items())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# holcus-bench profile: exact estimates of a p = 3 ansatz on random_qubo(n, 1)
# at these n and angles, one kernel call per gate kind at these widths (8 and 12
# are dispatch-bound, 16 and 20 amplitude-bound), and exact p = 1 trainings of
# PROFILE_TRAIN_EVALS evaluations at the PROFILE_TRAIN_NS.
PROFILE_NS = (4, 6, 8, 10, 12)
PROFILE_KERNEL_QUBITS = (8, 12, 16, 20)
PROFILE_PARAMS = QaoaParams((0.3, 0.5, 0.2), (0.7, 0.2, 0.4))
PROFILE_TRAIN_NS = (4, 5, 6)
PROFILE_TRAIN_EVALS = 20


def _rounds(calls: dict, rounds: int) -> tuple[dict[str, list[float]], dict]:
    """The seconds of each call in each of `rounds` rounds, and the result of one
    untimed call of each made first, which fills the caches. Each round times every
    call once, in the dict's order in even rounds and reversed in odd ones, so a
    change in the machine's speed reaches every call alike."""
    firsts = {key: call() for key, call in calls.items()}
    times = {key: [] for key in calls}
    for r in range(rounds):
        for key in list(calls)[:: -1 if r % 2 else 1]:
            t0 = time.perf_counter()
            calls[key]()
            times[key].append(time.perf_counter() - t0)
    return times, firsts


def _ratios(times: dict[str, list[float]]) -> dict:
    """The hadamard/holcus ratio of the per-method medians, and the median, min and
    max of the per-round ratios with the round count."""
    ratios = [a / b for a, b in zip(times["hadamard"], times["holcus"])]
    per_round = {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios), "rounds": len(ratios)}
    medians = statistics.median(times["hadamard"]) / statistics.median(times["holcus"])
    return {"hadamard/holcus": medians, "hadamard/holcus per round": per_round}


def _kernel_gates(q: int) -> dict[str, circuit.Gate]:
    """One gate per kind on a q-qubit register (q >= 6), on middle qubits below
    the top three; CH has one control and DENSE, like a select term, a random
    2-qubit unitary with a closed, an open and a closed control on the top qubits."""
    t = min(q // 2, q - 5)
    u = t + 1
    rng = np.random.default_rng(q)
    unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    controls = [(q - 1, circuit.CLOSED), (q - 2, circuit.OPEN), (q - 3, circuit.CLOSED)]
    return {
        "H": circuit.h(t),
        "X": circuit.x(t),
        "S": circuit.s(t),
        "EXP_X": circuit.exp_x(0.3, t),
        "EXP_Z": circuit.exp_z(0.3, t),
        "EXP_ZZ": circuit.exp_zz(0.3, t, u),
        "SWAP": circuit.swap(t, u),
        "CH": circuit.h(t, controls=[(q - 1, circuit.CLOSED)]),
        "DENSE": circuit.dense(unitary, [t, u], controls),
    }


def profile() -> dict:
    """The BENCH_*.json record, through public calls only: the machine; the
    median microseconds of one apply_unitary call per gate kind on a random state
    of each width in PROFILE_KERNEL_QUBITS (15 rounds, 5 from 20 qubits); and for
    each n in PROFILE_NS the median seconds of one exact estimate() per method,
    compile included (9 rounds, 3 from n = 11), with each method's width and
    circuit count; and for each n in PROFILE_TRAIN_NS the median seconds of one
    exact p = 1 train_qaoa per method (one restart of PROFILE_TRAIN_EVALS
    evaluations, 5 rounds). The calls of one row go round-robin (_rounds) after
    one untimed call each. Each estimate and train row also holds the
    hadamard/holcus ratio of the medians, and the median, min and max of the
    per-round ratios with the round count. At 8 and 12 qubits kernel_us mostly
    times apply_unitary's checks and its choice between a diagonal and a matrix,
    not the kernel: a gate bound and run as a circuit runs it is faster."""
    kernel_us = {}
    for q in PROFILE_KERNEL_QUBITS:
        rng = np.random.default_rng(q)
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        state = StateVector(q, amps / np.linalg.norm(amps))
        gates = _kernel_gates(q)
        calls = {kind: lambda g=g: apply_unitary(state, g.unitary, g.targets, g.controls) for kind, g in gates.items()}
        times, _ = _rounds(calls, 15 if q < 20 else 5)
        kernel_us[str(q)] = {kind: 1e6 * statistics.median(t) for kind, t in times.items()}
    estimate_s = {}
    for n in PROFILE_NS:
        model = qubo_to_ising(random_qubo(n, 1))
        prep = build_ansatz(model, PROFILE_PARAMS)
        calls = {m: lambda cfg=EstimatorConfig(m): estimate(prep, model, cfg) for m in METHODS}
        times, results = _rounds(calls, 9 if n < 11 else 3)
        row = {m: {"s": statistics.median(times[m]), "qubits": r.max_qubits, "circuits": r.circuits_used}
               for m, r in results.items()}
        estimate_s[str(n)] = {**row, **_ratios(times)}
    train_s = {}
    opt_cfg = OptimizerConfig(max_evals=PROFILE_TRAIN_EVALS, restarts=1)
    for n in PROFILE_TRAIN_NS:
        model = qubo_to_ising(random_qubo(n, 1))
        calls = {m: lambda m=m: train_qaoa(model, 1, EstimatorConfig(m), opt_cfg) for m in METHODS}
        times, _ = _rounds(calls, 5)
        train_s[str(n)] = {**{m: statistics.median(t) for m, t in times.items()}, **_ratios(times)}
    return {
        "schema": 1,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "kernel_us": kernel_us,
        "estimate": {
            "p": PROFILE_PARAMS.p,
            "gammas": list(PROFILE_PARAMS.gammas),
            "betas": list(PROFILE_PARAMS.betas),
            "instance": "random_qubo(n, 1)",
            "s": estimate_s,
        },
        "train": {"p": 1, "max_evals": PROFILE_TRAIN_EVALS, "instance": "random_qubo(n, 1)", "s": train_s},
    }

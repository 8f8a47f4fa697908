"""Traced run: spans around calls into each holcus module, made from the
benchmark's own code, and the per-layer metrics computed from them.

An estimate is replayed stage by stage through the public functions that
`estimators.estimate` calls (from_ising, group_by_coefficient, the circuit
constructors, run, marginal_probabilities, sample_counts), and the replayed
value must agree with what `estimate()` returned for the same inputs, so
the stages timed are the ones the program runs. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from oracle import group_ancillas

METHODS = ("hadamard", "holcus", "holcus_div")
KERNEL_KINDS = ("H", "X", "S", "EXP_X", "EXP_Z", "EXP_ZZ", "SWAP", "CH", "DENSE")
KERNEL_QUBITS = (16, 20)
KERNEL_REPS = {16: 9, 20: 3}
# Shots of the sample_counts call timed on exact-mode workloads, where
# estimate() itself never samples.
PROBE_SHOTS = 10_000
# Stages of a replay that estimate() itself runs; the rest are probes.
CHILD_STAGES = (
    "pauli_lcu.from_ising",
    "pauli_lcu.group",
    "circuit.build",
    "circuit.run",
    "statevector.marginal",
    "statevector.sample",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [
        ("qubo_ising.instance_s", "s"),
        ("qubo_ising.brute_force_s", "s"),
        ("qaoa.ansatz_build_s", "s"),
        ("qaoa.ansatz_gates", "count"),
        ("qaoa.exact_expectation_s", "s"),
        ("pauli_lcu.from_ising_s", "s"),
        ("pauli_lcu.prep_unitaries_s", "s"),
        ("pauli_lcu.select_build_s", "s"),
        ("pauli_lcu.group_s", "s"),
        ("pauli_lcu.groups", "count"),
        ("pauli_lcu.ladder_build_s", "s"),
    ]
    for m in METHODS:
        names += [
            (f"circuit.build_s.{m}", "s"),
            (f"circuit.gates.{m}", "count"),
            (f"circuit.controlled_gates.{m}", "count"),
            (f"circuit.run_s.{m}", "s"),
            (f"circuit.qubits.{m}", "count"),
        ]
    for kind in KERNEL_KINDS:
        for q in KERNEL_QUBITS:
            names.append((f"statevector.apply_us.{kind}.q{q}", "us"))
    names += [(f"statevector.amplitudes_touched.{m}", "count") for m in METHODS]
    names += [("statevector.marginal_s", "s"), ("statevector.sample_s", "s")]
    for m in METHODS:
        names += [
            (f"estimators.call_s.{m}", "s"),
            (f"estimators.circuits_per_estimate.{m}", "count"),
            (f"estimators.self_s.{m}", "s"),
        ]
    for m in METHODS:
        names += [(f"optimize.evals.{m}", "count"), (f"optimize.train_s.{m}", "s"), (f"optimize.overhead_s.{m}", "s")]
    names += [(f"bench.record_overhead_s.{m}", "s") for m in METHODS]
    names.append(("bench.csv_rows", "count"))
    return names


class Tracer:
    """In-memory spans (name, start, end, parent, operation) plus the
    per-layer samples derived from them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "op": self.op, "name": name}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def metrics(self) -> dict:
        out = {}
        for name, unit in per_layer_names():
            values = self.samples.get(name)
            if not values:
                raise RuntimeError(f"traced run produced no sample for {name}")
            out[name] = {"value": statistics.median(values), "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _measure(h, tr: Tracer, state, qubit: int, cfg, path: tuple[int, ...]) -> float:
    """P(0) of one qubit as estimate() reads it; in exact mode a sample is
    still drawn and timed, as a probe outside the estimate."""
    with tr.span("statevector.marginal"):
        dist = h.statevector.marginal_probabilities(state, [qubit])
    p0 = dist.probabilities.get("0", 0.0)
    shots = PROBE_SHOTS if cfg.exact else cfg.shots
    with tr.span("statevector.sample", probe=cfg.exact):
        counts = h.statevector.sample_counts(dist, shots, h.statevector.derive_seed(cfg.seed, *path))
    if cfg.exact:
        return p0
    return counts.counts.get("0", 0) / cfg.shots


def _replay_value(h, tr: Tracer, prep, model, cfg) -> tuple[float, list]:
    """The value estimate(prep, model, cfg) computes, stage by stage.
    Returns (value, circuits)."""
    est, lcu = h.estimators, h.pauli_lcu
    n = prep.num_qubits
    circuits = []
    value = model.offset if cfg.part == est.REAL else 0.0
    with tr.span("pauli_lcu.from_ising"):
        dec = lcu.from_ising(model)
    if cfg.method == "hadamard":
        for k, term in enumerate(dec.terms):
            with tr.span("circuit.build"):
                circ = est.hadamard_test_circuit(prep, term.unitary, cfg.part)
            with tr.span("circuit.run"):
                state = h.circuit.run(circ)
            circuits.append(circ)
            p0 = _measure(h, tr, state, n, cfg, (k,))
            value += float(term.signed_coefficient.real) * (2.0 * p0 - 1.0)
        return value, circuits
    if cfg.method == "holcus":
        with tr.span("circuit.build"):
            circ = est.holcus_circuit(prep, dec, cfg.part)
        with tr.span("circuit.run"):
            state = h.circuit.run(circ)
        circuits.append(circ)
        p0 = _measure(h, tr, state, n + dec.num_ancillas, cfg, (0,))
        return value + dec.normalization * (2.0 * p0 - 1.0), circuits
    with tr.span("pauli_lcu.group"):
        groups = lcu.group_by_coefficient(dec, cfg.grouping_tol)
    tr.add("pauli_lcu.groups", len(groups))
    for g_idx, group in enumerate(groups):
        size = len(group.term_indices)
        scale = size * group.common_alpha * float(np.cos(group.common_theta))
        members = [dec.terms[k] for k in group.term_indices]
        anc = group_ancillas(size)
        with tr.span("circuit.build"):
            if size == 1:
                circ = est.hadamard_test_circuit(prep, members[0].unitary, cfg.part)
            else:
                layout = "dense" if size & (size - 1) == 0 else "shifted"
                flat = [lcu.LcuTerm(t.alpha, 0.0, t.unitary) for t in members]
                sub = lcu.decomposition_from_terms(flat, layout)
                circ = est.holcus_circuit(prep, sub, cfg.part, uniform=(layout == "dense"))
        with tr.span("circuit.run"):
            state = h.circuit.run(circ)
        circuits.append(circ)
        p0 = _measure(h, tr, state, n + anc, cfg, (g_idx,))
        value += scale * (2.0 * p0 - 1.0)
    return value, circuits


def replay_estimate(h, tr: Tracer, model, params, cfg, norm: float, direct=None) -> list[str]:
    """Time one estimate end to end and stage by stage, and record the
    per-layer samples. `direct` is an already timed (seconds, result) of
    estimate() on the same inputs; without it estimate() is called here.
    Returns failure messages when the replay disagrees with estimate()."""
    tr.op += 1
    m = cfg.method
    with tr.span("qaoa.ansatz_build") as s:
        prep = h.qaoa.build_ansatz(model, params)
    tr.add("qaoa.ansatz_build_s", _duration(s))
    tr.add("qaoa.ansatz_gates", len(prep.gates))
    if direct is None:
        with tr.span("estimators.call", method=m) as s:
            result = h.estimators.estimate(prep, model, cfg)
        direct = (_duration(s), result)
    call_s, result = direct
    first = len(tr.spans)
    with tr.span("replay", method=m):
        value, circuits = _replay_value(h, tr, prep, model, cfg)
    stages = tr.spans[first + 1 :]

    def total(name, probes=False):
        return sum(_duration(r) for r in stages if r["name"] == name and r.get("probe", False) == probes)

    children = sum(total(name) for name in CHILD_STAGES)
    tr.add(f"estimators.call_s.{m}", call_s)
    tr.add(f"estimators.circuits_per_estimate.{m}", result.circuits_used)
    tr.add(f"estimators.self_s.{m}", call_s - children)
    tr.add("pauli_lcu.from_ising_s", total("pauli_lcu.from_ising"))
    if m == "holcus_div":
        tr.add("pauli_lcu.group_s", total("pauli_lcu.group"))
    tr.add(f"circuit.build_s.{m}", total("circuit.build"))
    tr.add(f"circuit.run_s.{m}", total("circuit.run"))
    tr.add(f"circuit.gates.{m}", sum(len(c.gates) for c in circuits))
    tr.add(f"circuit.controlled_gates.{m}", sum(1 for c in circuits for g in c.gates if g.controls))
    tr.add(f"circuit.qubits.{m}", max(c.num_qubits for c in circuits))
    tr.add(
        f"statevector.amplitudes_touched.{m}",
        sum(1 << (c.num_qubits - len(g.controls)) for c in circuits for g in c.gates),
    )
    for r in stages:
        if r["name"] == "statevector.marginal":
            tr.add("statevector.marginal_s", _duration(r))
        elif r["name"] == "statevector.sample":
            tr.add("statevector.sample_s", _duration(r))
    if abs(value - result.value) > 1e-12 * max(norm, 1.0):
        return [f"replayed {m} estimate {value!r} disagrees with estimate() {result.value!r}"]
    return []


def lcu_probes(h, tr: Tracer, model) -> None:
    """Prepare unitaries, select circuit and uniform ladder of the model's
    full decomposition, each timed on its own."""
    lcu = h.pauli_lcu
    dec = lcu.from_ising(model)
    m = dec.num_ancillas
    with tr.span("pauli_lcu.prep_unitaries") as s:
        lcu.build_prep_unitaries(dec)
    tr.add("pauli_lcu.prep_unitaries_s", _duration(s))
    reg = h.circuit.make_register_map(model.n, m, hadamard=True)
    with tr.span("pauli_lcu.select_build") as s:
        lcu.build_select_circuit(dec, reg)
    tr.add("pauli_lcu.select_build_s", _duration(s))
    with tr.span("pauli_lcu.ladder_build") as s:
        lcu.build_uniform_prep_circuit(m)
    tr.add("pauli_lcu.ladder_build_s", _duration(s))


def _kernel_gates(h, q: int) -> dict:
    c = h.circuit
    rng = np.random.default_rng(q)
    dense_u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    t, u = q // 2, q // 2 + 1
    # A select term: 2 targets in the state register, ancilla-style controls
    # of both polarities on the top qubits.
    select_controls = [(q - 1, c.CLOSED), (q - 2, c.OPEN), (q - 3, c.CLOSED)]
    return {
        "H": c.h(t),
        "X": c.x(t),
        "S": c.s(t),
        "EXP_X": c.exp_x(0.3, t),
        "EXP_Z": c.exp_z(0.3, t),
        "EXP_ZZ": c.exp_zz(0.3, t, u),
        "SWAP": c.swap(t, u),
        "CH": c.h(t, controls=[(q - 1, c.CLOSED)]),
        "DENSE": c.dense(dense_u, [t, u], select_controls),
    }


def kernel_probes(h, tr: Tracer) -> list[str]:
    """Median time of one apply_unitary call per gate kind at 16 and 20
    qubits, on a random state. Returns failures if a gate breaks the norm."""
    sv = h.statevector
    fails = []
    for q in KERNEL_QUBITS:
        rng = np.random.default_rng(1000 + q)
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        state = sv.StateVector(q, amps / np.linalg.norm(amps))
        for kind, gate in _kernel_gates(h, q).items():
            matrix = h.circuit.gate_matrix(gate)
            times = []
            for _ in range(KERNEL_REPS[q]):
                with tr.span("statevector.apply_unitary", kind=kind, qubits=q) as s:
                    sv.apply_unitary(state, matrix, gate.targets, gate.controls)
                times.append(_duration(s) * 1e6)
            tr.samples[f"statevector.apply_us.{kind}.q{q}"].append(statistics.median(times))
            if abs(state.norm() - 1.0) > 1e-9:
                fails.append(f"apply_unitary {kind} on {q} qubits changed the norm to {state.norm()!r}")
        del state, amps
    return fails


def record_replay(h, tr: Tracer, qubo, model, method: str, p: int, trace, train_s: float, csv_path) -> list[str]:
    """The harness's per-record work after training (brute force, exact
    re-evaluation, the register-width probe estimate, the CSV row written
    and read back), replayed through public functions for a training run
    that did not go through holcus.bench."""
    bench = h.bench
    rec = bench.BenchmarkRecord(n=qubo.n, p=p, instance_seed=int(qubo.seed), method=method)
    rec.wall_time_seconds = train_s
    rec.best_value = trace.best_value
    rec.circuits_total = trace.total_circuits
    rec.shots_total = trace.total_shots
    with tr.span("bench.record", method=method) as outer:
        rec.brute_force_optimum = h.qubo_ising.brute_force_min(qubo)[1]
        rec.exact_value_of_best_params = h.qaoa.exact_expectation(model, trace.best_params)
        probe_params = h.qaoa.QaoaParams((0.0,), (0.0,))
        probe_cfg = h.estimators.EstimatorConfig(method=method, shots=h.estimators.EXACT)
        with tr.span("estimators.probe", method=method):
            rec.max_qubits = h.estimators.estimate(h.qaoa.build_ansatz(model, probe_params), model, probe_cfg).max_qubits
        with tr.span("bench.csv"):
            with open(csv_path, "w") as fh:
                fh.write(bench.BENCH_CSV_HEADER + "\n" + bench.record_to_csv_row(rec) + "\n")
            back = bench.read_records(csv_path)
    tr.add(f"bench.record_overhead_s.{method}", _duration(outer))
    tr.add("bench.csv_rows", len(back))
    if back != [rec]:
        return [f"{method}: record replay CSV did not read back equal"]
    return []


def training_sample(tr: Tracer, method: str, evals: int, train_s: float, call_s: float) -> None:
    """Optimizer-layer samples of one training run: evaluations, its time,
    and the time not spent in estimates (evals x the replayed call time)."""
    tr.add(f"optimize.evals.{method}", evals)
    tr.add(f"optimize.train_s.{method}", train_s)
    tr.add(f"optimize.overhead_s.{method}", train_s - evals * call_s)

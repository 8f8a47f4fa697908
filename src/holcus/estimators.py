"""The four expectation-value estimators.

All four consume a state-preparation circuit on n qubits plus an Ising model
and return an EstimateResult:

  raw        - sample the state register, average the spin energies.
  hadamard   - one Hadamard-test circuit per LCU term, weighted sum.
  holcus     - single combined Hadamard+LCU circuit measuring one qubit;
               value = offset + N * (2 P(0) - 1).
  holcus_div - one combined circuit per coefficient group, uniform ancilla
               preparation inside each group.

Every method is first compiled, once per model, to an EstimatorPlan
(compile_plan): the constant offset plus one Measurement per circuit, which
holds the Circuit that follows the state preparation (its suffix) and a
diagonal observable over the outcomes of its register's top qubits. One builder
(_lcu_measurement) makes every interference circuit: H (and S-dagger for the
imaginary part) on the Hadamard qubit, a controlled prepare stage, select, the
controlled un-prepare and a final H, all on the final register. The Hadamard
test is its one-term, zero-ancilla case, so hadamard and each singleton group
of holcus_div use it too. The Hadamard qubit, on top, is read with values
[scale, -scale], whose mean is scale * (2 P(0) - 1); raw reads all n state
qubits with the basis-state energies. One executor (_Runner) only simulates
and reads out, in two phases. Binding gives each width of the plan a register
and binds to it each circuit's suffix, as the plan fused it once
(EstimatorPlan.programs: up to 13 qubits holcus's select stage is one
multiply), and its readout's view (statevector._marginal_view). A run starts
each circuit from |0...0>, applies the state prep, a kernel program of
(operand, targets, controls) triples, then the suffix, and reads the mean of
the observable from the marginal of the register's top qubits, through
statevector's one |amplitude|^2 reader (O(statevector.CHUNK) beside the
register and its probabilities). A width's circuits share one binding of the
prep when there are several; every circuit still applies every step to every
amplitude, so the values are those of a fresh register per circuit.
run_program binds and runs once; train_qaoa binds once per training (up to
13-qubit registers), and the prep too where qaoa.CompiledAnsatz.write holds it:
after that, each run retakes its diagonals into their multipliers (one take
each, through an intp spread), rebinds its one-target matrices and reads its
Kronecker blocks in place; any other prep is bound as it runs. run_plan is
run_program's adapter for a prep Circuit; estimate() compiles a plan and runs
it. The public circuit builders use the same builder, so they return exactly
the executed circuits; EstimatorPlan.resources reports their resource counts.

Exact mode (shots=EXACT) reads marginal probabilities analytically, which
separates method error from shot noise; finite mode draws seeded multinomial
samples of the read qubits. Imaginary-part estimates (the S-dagger
pathway) omit the real constant offset; raw has no interference circuit and
reads the real part only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import ClassVar

import numpy as np

from .circuit import (
    CLOSED,
    Circuit,
    ResourceReport,
    dense,
    h,
    make_register_map,
    resource_report,
    s_dagger,
)
from .pauli_lcu import (
    GROUPING_TOL,
    CoefficientGroup,
    LcuDecomposition,
    LcuTerm,
    PauliString,
    _select_gates,
    build_prep_unitaries,
    decomposition_from_terms,
    from_ising,
    group_by_coefficient,
)
from .qubo_ising import IsingModel, ising_energies
from .statevector import (
    MAX_SHOTS,
    StateVector,
    _bind,
    _check_int,
    _chunk_qubits,
    _diag_layout,
    _fused,
    _marginal,
    _marginal_view,
    _run,
    derive_seed,
    multinomial_draw,
    new_basis_state,
)

EXACT = None
REAL = "real"
IMAGINARY = "imaginary"
METHODS = ("raw", "hadamard", "holcus", "holcus_div")


@dataclass(frozen=True)
class EstimatorConfig:
    """shots is EXACT or the shots per circuit, an integer in [1, MAX_SHOTS] (the
    bound multinomial_draw enforces); seed is an integer >= 0. The class constant
    grouping_tol is how far a term's weight and phase may be from those of its
    holcus_div group's first term, whose coefficient the group is measured
    with. Merged coefficients thus differ by at most tol, so for Ising terms
    (phase exactly 0 or pi) the bias is at most (number of terms) * tol; it is
    a constant because a wider value silently biases holcus_div."""

    method: str
    shots: int | None = EXACT
    seed: int = 0
    part: str = REAL
    grouping_tol: ClassVar[float] = GROUPING_TOL

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.shots is not EXACT:
            _check_int("shots", self.shots, 1, MAX_SHOTS)
        _check_int("seed", self.seed, 0)
        if self.part not in (REAL, IMAGINARY):
            raise ValueError(f"part must be {REAL!r} or {IMAGINARY!r}")
        if self.method == "raw" and self.part == IMAGINARY:
            raise ValueError("raw samples the Z basis and has no imaginary part to read")

    @property
    def exact(self) -> bool:
        return self.shots is EXACT


@dataclass
class EstimateResult:
    value: float
    std_error: float
    circuits_used: int
    shots_used: int
    max_qubits: int


@dataclass(frozen=True)
class Measurement:
    """One circuit of a plan: the state prep followed by `suffix`, read out as
    the mean of values[i] over outcomes i of the top k = log2(len(values))
    qubits of its register, the top qubit the most significant bit of i."""

    suffix: Circuit
    values: np.ndarray


@dataclass(frozen=True)
class EstimatorPlan:
    """The model-only part of an estimate; built by compile_plan."""

    num_state_qubits: int
    offset: float
    measurements: tuple[Measurement, ...]

    def __post_init__(self):
        for i, meas in enumerate(self.measurements):
            size, width = len(meas.values), meas.suffix.num_qubits
            if size < 2 or size & (size - 1) or size > 1 << width:
                raise ValueError(f"measurement {i} has {size} values, not 2^k for 1 <= k <= {width}, its width")
        for width in self.widths:
            if width < self.num_state_qubits:
                raise ValueError(f"a {width}-qubit measurement cannot hold {self.num_state_qubits} state qubits")

    @property
    def max_qubits(self) -> int:
        return max(self.widths)

    @cached_property
    def widths(self) -> dict[int, list[int]]:
        """The indices of the measurements of each register width, in plan order."""
        by_width = {}
        for k, meas in enumerate(self.measurements):
            by_width.setdefault(meas.suffix.num_qubits, []).append(k)
        return by_width

    @cached_property
    def programs(self) -> tuple[list[tuple], ...]:
        """Each measurement's suffix.program fused once, on the plan's first run, for
        every run: statevector._fused, with a run on every qubit of its register
        fused too, as its product is built once and applied on every run."""
        return tuple(list(_fused(m.suffix.num_qubits, m.suffix.program, whole=True)) for m in self.measurements)

    def resources(self, prep: Circuit) -> tuple[ResourceReport, ...]:
        """The resource report of each circuit run_plan runs with this prep."""
        return tuple(resource_report(_assemble(m, prep)) for m in self.measurements)


def _assemble(meas: Measurement, prep: Circuit) -> Circuit:
    return Circuit(meas.suffix.num_qubits, prep.gates + meas.suffix.gates)


def _lcu_measurement(
    n: int, dec: LcuDecomposition, part: str, scale: float, uniform: bool = False
) -> Measurement:
    """The gates that follow the state prep: H (and S-dagger for the imaginary
    part) on the Hadamard qubit, the controlled prepare stage, select, the
    controlled un-prepare and a final H; the Hadamard qubit reads
    scale * (2 P(0) - 1). The prepare stage is nothing with no ancilla (one
    dense term: the Hadamard test), else the controlled-H ladder if uniform,
    else V and V_hat-dagger; the first two need equal, phase-free weights."""
    m = dec.num_ancillas
    reg = make_register_map(n, m, hadamard=True)
    hq = reg["hadamard"][0]
    gates = [h(hq)]
    if part == IMAGINARY:
        gates.append(s_dagger(hq))
    flat = all(t.alpha == dec.terms[0].alpha and t.theta == 0.0 for t in dec.terms)
    if (uniform or not m) and not (flat and dec.layout == "dense" and dec.num_terms == 1 << m):
        raise ValueError("a uniform or ancilla-free prepare needs a full dense layout, equal weights and zero phases")
    if not m:
        prepare = unprepare = ()
    elif uniform:  # build_uniform_prep_circuit's all-to-all ladder, on this register
        prepare = [h(a, controls=[(hq, CLOSED)]) for a in reg["lcu_ancilla"]]
        unprepare = prepare[::-1]
    else:
        v, v_hat = build_prep_unitaries(dec)
        prepare = (dense(v, reg["lcu_ancilla"], [(hq, CLOSED)]),)
        unprepare = (dense(v_hat.conj().T, reg["lcu_ancilla"], [(hq, CLOSED)]),)
    gates += [*prepare, *_select_gates(dec, reg), *unprepare, h(hq)]
    return Measurement(Circuit(n + m + 1, gates), np.array([scale, -scale]))


def hadamard_test_circuit(prep: Circuit, unitary: PauliString, part: str = REAL) -> Circuit:
    """Interference circuit for Re or Im of <psi|U|psi> on one extra qubit.

    Re[<U>] = 2 P(0) - 1 on the ancilla; with the S-dagger inserted the same
    statistic yields Im[<U>]. It is the LCU measurement of U alone.
    """
    return holcus_circuit(prep, decomposition_from_terms([LcuTerm(1.0, 0.0, unitary)], "dense"), part)


def holcus_circuit(
    prep: Circuit, dec: LcuDecomposition, part: str = REAL, uniform: bool = False
) -> Circuit:
    """Single combined circuit: Hadamard qubit, LCU ancillas, state register.

    Stages: the state prep, then H (and optional S-dagger) on the Hadamard
    qubit, the controlled prepare on the ancillas, the select stage, the
    controlled un-prepare, and a final H. Only the Hadamard qubit is measured.

    With uniform=True the prepare/un-prepare stages are the controlled-H
    ladder; it raises ValueError unless the decomposition is dense, fills
    every slot, and has equal weights and zero phases (e.g. an
    equal-coefficient group of power-of-two size).
    """
    return _assemble(_lcu_measurement(prep.num_qubits, dec, part, dec.normalization, uniform), prep)


def _group_measurement(
    n: int, dec: LcuDecomposition, group: CoefficientGroup, part: str
) -> Measurement:
    """One coefficient group with its phase factored out front, so the
    in-circuit preparation is real and uniform: every member weighted
    alpha_g, scale N_g = |group| * alpha_g * sign_g. A power-of-two group
    fills a dense layout and takes the controlled-H ladder; a single term,
    on no ancilla, is the Hadamard test."""
    size = len(group.term_indices)
    scale = size * group.common_alpha * float(np.cos(group.common_theta))
    layout = "dense" if size & (size - 1) == 0 else "shifted"
    members = [LcuTerm(group.common_alpha, 0.0, dec.terms[k].unitary) for k in group.term_indices]
    return _lcu_measurement(n, decomposition_from_terms(members, layout), part, scale, layout == "dense")


def compile_plan(model: IsingModel, cfg: EstimatorConfig) -> EstimatorPlan:
    """Everything cfg.method needs that depends only on the model: the LCU
    decomposition, coefficient groups, prepare unitaries, select stage, and
    raw's basis-state energies. The plan depends on the model, method and
    part, never on shots or seed."""
    n = model.n
    if cfg.method == "raw":
        meas = Measurement(Circuit(n), ising_energies(model))
        return EstimatorPlan(n, 0.0, (meas,))
    dec = from_ising(model)
    if cfg.method == "holcus":
        measurements = [_lcu_measurement(n, dec, cfg.part, dec.normalization)]
    else:  # hadamard is holcus_div with every term a group of its own
        if cfg.method == "hadamard":
            groups = [CoefficientGroup(t.alpha, t.theta, (k,)) for k, t in enumerate(dec.terms)]
        else:
            groups = group_by_coefficient(dec, cfg.grouping_tol)
        measurements = [_group_measurement(n, dec, g, cfg.part) for g in groups]
    offset = model.offset if cfg.part == REAL else 0.0
    return EstimatorPlan(n, offset, tuple(measurements))


def _readout_view(state: StateVector, meas: Measurement) -> tuple:
    """statevector._marginal_view of the register's top log2(len(meas.values)) qubits."""
    n = state.num_qubits
    return _marginal_view(state, tuple(range(n - 1, n - len(meas.values).bit_length(), -1)))


def _readout(view: tuple, meas: Measurement, cfg: EstimatorConfig, k: int) -> tuple[float, float]:
    """The mean of meas.values over the marginal that view (_readout_view) reads,
    and the variance of that mean. The marginal, statevector's one |amplitude|^2
    reader, is exact in exact mode and a draw seeded with derive_seed(cfg.seed, k)
    otherwise.

    For an Ising model every part=IMAGINARY interference circuit has
    P(0) = 1/2 exactly, so a seeded draw sits on a tie: a kernel change that
    moves the last bit of P(0) can mirror its counts (+x becomes -x). Each
    draw is still within its sigma, but the seeded shot estimate of an
    imaginary part is not stable across kernel changes."""
    probs = _marginal(view)
    if cfg.exact:
        return probs @ meas.values, 0.0
    freqs = multinomial_draw(probs, cfg.shots, derive_seed(cfg.seed, k)) / cfg.shots
    mean = freqs @ meas.values
    return mean, freqs @ (meas.values - mean) ** 2 / cfg.shots


class _Runner:
    """The one executor, bind then run: each width of the plan gets a register, and
    each circuit its suffix steps (EstimatorPlan.programs) and readout view bound
    to it. With hold (a training's), on registers of at most log2(CHUNK) qubits,
    so each held multiplier is at most CHUNK entries, all are bound once, here;
    otherwise (run_program's, or wider, where the held multipliers can outgrow
    the register) as each circuit runs, one multiplier and one register at a time.
    A held runner also holds a written prep (run), bound once per width."""

    def __init__(self, plan: EstimatorPlan, hold: bool = False):
        self.plan = plan
        hold = hold and plan.max_qubits <= _chunk_qubits()
        self.held = {w: self._width(w, list) for w in plan.widths} if hold else None
        self.prep = None  # (the written prep, {width: its steps and writes}), once run

    def _width(self, width: int, into=iter) -> tuple:
        """(register, (k, suffix steps, readout view) of each circuit of the width):
        bound as they run, or, with into=list, here."""
        plan, state = self.plan, new_basis_state(width)
        circuits = (
            (k, into(_bind(state, plan.programs[k], fuse=False)), _readout_view(state, plan.measurements[k]))
            for k in plan.widths[width]
        )
        return state, into(circuits)

    def run(self, prep: list[tuple], cfg: EstimatorConfig, written: bool = False) -> EstimateResult:
        """Run every measurement of the plan from |0...0> after the prep's kernel
        program, whose qubits must lie in the plan's state register (unchecked):
        value = offset + the sum of each circuit's mean observable. In finite mode
        circuit k samples with derive_seed(cfg.seed, k). A width's circuits run in
        turn on its register; with several, the prep is bound once and shared,
        holding one multiplier or block per fused run, else it is bound as it runs.
        With written, on a held runner, prep is a program that _fused leaves as it
        is and whose operands are rewritten in place between runs, the same list
        each time (qaoa.CompiledAnsatz.write): it is bound to every width on its
        first run, and after that only the steps that copied an operand are
        rewritten (_rewrite)."""
        plan = self.plan
        if written and (self.prep is None or self.prep[0] is not prep):
            self.prep = prep, {w: _hold(state, prep) for w, (state, _) in self.held.items()}
        elif written:
            for width, (steps, writes) in self.prep[1].items():
                _rewrite(self.held[width][0], steps, writes)
        reads = [None] * len(plan.measurements)
        for width, ks in plan.widths.items():
            state, circuits = self.held[width] if self.held else self._width(width)
            if written:
                shared = self.prep[1][width][0]
            else:
                shared = list(_bind(state, prep)) if len(ks) > 1 else None
            for i, (k, suffix, view) in enumerate(circuits):
                if i or self.held:  # a held register holds the last run's state
                    state.amplitudes[:] = 0
                    state.amplitudes[0] = 1
                _run(_bind(state, prep) if shared is None else shared)
                _run(suffix)
                reads[k] = _readout(view, plan.measurements[k], cfg, k)
            del state, circuits, shared, view  # before the next width's register is allocated
        value = plan.offset
        variance = 0.0
        for term, var in reads:
            value += term
            variance += var
        shots = 0 if cfg.exact else len(reads) * int(cfg.shots)  # a numpy count would wrap at 2^63
        return EstimateResult(float(value), math.sqrt(variance), len(reads), shots, plan.max_qubits)


def _hold(state: StateVector, prep: list[tuple]) -> tuple[list, list]:
    """(steps, writes): prep bound to state once, unfused, and what _rewrite rewrites of
    it, the steps that copied a writeable operand (a read-only one never changes):
    each diagonal's multiplier, with its spread as intp, so each write is one take
    with no index conversion, and each one-target matrix, whose step holds its
    entries as scalars. A wider matrix's step holds its operand itself. ValueError
    unless _fused leaves prep as it is, as run_program would bind it."""
    n = state.num_qubits
    if any(a is not b for a, b in zip_longest(_fused(n, prep), prep)):
        raise ValueError("a written prep must be a program that fusion leaves as it is")
    steps = list(_bind(state, prep, fuse=False))
    spreads, writes = {}, []
    for i, (operand, targets, controls) in enumerate(prep):
        if not operand.flags.writeable:
            continue
        if operand.ndim == 1:
            key = targets, controls
            if key not in spreads:
                spreads[key] = _diag_layout(n, targets, controls)[2].astype(np.intp)
            writes.append((operand, spreads[key], steps[i][1]))
        elif len(operand) == 2:
            writes.append((i, prep[i]))
    return steps, writes


def _rewrite(state: StateVector, steps: list, writes: list) -> None:
    """Rewrite a _hold's steps from their operands: a multiplier by one take into it
    (mode clip, which takes no buffer; every index is in range), a one-target step
    by binding it again."""
    for write in writes:
        if len(write) == 3:
            operand, spread, multiplier = write
            np.take(operand, spread, out=multiplier, mode="clip")
        else:
            i, triple = write
            steps[i] = next(_bind(state, (triple,), fuse=False))


def run_program(plan: EstimatorPlan, prep: list[tuple], cfg: EstimatorConfig) -> EstimateResult:
    """The plan's runner bound and run once (_Runner.run) after the prep's kernel program."""
    return _Runner(plan).run(prep, cfg)


def run_plan(plan: EstimatorPlan, prep: Circuit, cfg: EstimatorConfig) -> EstimateResult:
    """run_program on the program of a prep circuit of the plan's width."""
    if prep.num_qubits != plan.num_state_qubits:
        raise ValueError(
            f"prep has {prep.num_qubits} qubits, the plan's model has {plan.num_state_qubits}"
        )
    return run_program(plan, prep.program, cfg)


def estimate(prep: Circuit, model: IsingModel, cfg: EstimatorConfig) -> EstimateResult:
    """One estimate: the model's plan, compiled and run once."""
    return run_plan(compile_plan(model, cfg), prep, cfg)

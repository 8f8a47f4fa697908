"""Output checks of the benchmark. Each returns a list of failure messages;
an empty list means the output passed.

Expected values come from the independent oracle or from properties the
method must have, never from a stored copy of earlier output.
"""

from __future__ import annotations

from oracle import InstanceOracle

EXACT_REL_TOL = 1e-9
SHOT_SIGMAS = 5.0


def exact_value(value: float, expected: float, norm: float, what: str) -> list[str]:
    """An exact-mode value must match the oracle within 1e-9 * N."""
    if abs(value - expected) <= EXACT_REL_TOL * max(norm, 1.0):
        return []
    return [f"{what}: {value!r} differs from oracle {expected!r} by more than {EXACT_REL_TOL} * N"]


def shot_value(value: float, expected: float, sigma: float, what: str) -> list[str]:
    """A finite-shot value must lie within 5 sigma of the oracle."""
    if abs(value - expected) <= SHOT_SIGMAS * sigma:
        return []
    return [f"{what}: {value!r} is {abs(value - expected) / sigma:.1f} sigma from oracle {expected!r}"]


def csv_round_trip(path, records, read_records) -> list[str]:
    """The CSV the harness wrote must read back equal to the records it returned."""
    try:
        back = read_records(path)
    except ValueError as exc:
        return [f"{path}: read_records failed: {exc}"]
    if back != list(records):
        return [f"{path}: records read back differ from the records returned"]
    return []


def circuit_counts(
    oracle: InstanceOracle, method: str, circuits_total: int, min_evals: int, max_evals: int, what: str
) -> tuple[int, list[str]]:
    """Evaluations implied by a circuit total, with the checks that the total
    is a whole number of estimates and the count is within the optimizer's
    budget. Returns (evaluations, failures)."""
    per = oracle.circuits_per_estimate(method)
    evals, rest = divmod(circuits_total, per)
    fails = []
    if rest:
        fails.append(f"{what}: circuits_total {circuits_total} is not a multiple of {per} per estimate")
    if not min_evals <= evals <= max_evals:
        fails.append(f"{what}: {evals} evaluations outside [{min_evals}, {max_evals}]")
    return evals, fails


def exp1_record(rec, oracle: InstanceOracle, restarts: int, max_evals: int) -> tuple[int, list[str]]:
    """Exact-mode training record: optimum, variational bounds, the exact
    re-evaluation, register width and circuit count. Returns (evaluations, failures)."""
    what = f"n={rec.n} p={rec.p} {rec.method}"
    if rec.error:
        return 0, [f"{what}: record error {rec.error!r}"]
    norm = oracle.norm
    tol = EXACT_REL_TOL * max(norm, 1.0)
    fails = exact_value(rec.brute_force_optimum, oracle.optimum, norm, f"{what} brute-force optimum")
    if not oracle.optimum - tol <= rec.best_value <= oracle.uniform_mean + tol:
        fails.append(
            f"{what}: best_value {rec.best_value!r} outside [optimum {oracle.optimum!r}, "
            f"uniform mean {oracle.uniform_mean!r}]"
        )
    fails += exact_value(rec.best_value, rec.exact_value_of_best_params, norm, f"{what} best vs exact re-evaluation")
    if rec.max_qubits != oracle.max_qubits(rec.method):
        fails.append(f"{what}: max_qubits {rec.max_qubits} != {oracle.max_qubits(rec.method)}")
    if rec.shots_total != 0:
        fails.append(f"{what}: exact mode used {rec.shots_total} shots")
    evals, more = circuit_counts(
        oracle, rec.method, rec.circuits_total, 2 * rec.p + 1, restarts * max_evals, what
    )
    return evals, fails + more


def shot_training(trace, oracle: InstanceOracle, method: str, shots: int, min_evals: int, max_evals: int, what: str) -> tuple[int, list[str]]:
    """Finite-shot training: every evaluation of the winning restart within
    5 sigma of the oracle, the best angles no better than the optimum, and
    circuit and shot totals consistent. Returns (evaluations, failures)."""
    sigma = oracle.sigma_bound(method, shots)
    fails = []
    for k, (vec, value, _) in enumerate(trace.evaluations):
        fails += shot_value(value, oracle.value(vec), sigma, f"{what} evaluation {k}")
    best = oracle.value(trace.best_params.to_vector())
    if best < oracle.optimum - EXACT_REL_TOL * max(oracle.norm, 1.0):
        fails.append(f"{what}: oracle value {best!r} at the best angles is below the optimum {oracle.optimum!r}")
    evals, more = circuit_counts(oracle, method, trace.total_circuits, min_evals, max_evals, what)
    if trace.total_shots != trace.total_circuits * shots:
        fails.append(f"{what}: {trace.total_shots} shots for {trace.total_circuits} circuits of {shots}")
    return evals, fails + more

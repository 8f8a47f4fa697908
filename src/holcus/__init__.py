"""Statevector simulator and single-circuit LCU expectation-value toolkit.

The package bundles a dense statevector engine, a small gate IR with
open/closed multi-controls, LCU decompositions of Ising Hamiltonians, the
combined Hadamard+LCU estimator alongside per-term Hadamard-test and raw
sampling baselines, and a QAOA training loop with a benchmark harness.

Imported before numpy, it pins BLAS to one thread by default: it sets each of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS that is unset to "1"
(default BLAS threads slowed some processes' estimates 15-20x on 2 cores).
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

from .circuit import (
    CLOSED,
    OPEN,
    Circuit,
    Gate,
    ResourceReport,
    resource_report,
    run,
)
from .estimators import (
    EXACT,
    IMAGINARY,
    REAL,
    EstimateResult,
    EstimatorConfig,
    EstimatorPlan,
    compile_plan,
    estimate,
    hadamard_test_circuit,
    holcus_circuit,
    run_plan,
)
from .optimize import OptimizerConfig, TrainingTrace, nelder_mead, train_qaoa
from .pauli_lcu import (
    CoefficientGroup,
    LcuDecomposition,
    LcuTerm,
    PauliString,
    build_prep_unitaries,
    build_select_circuit,
    build_uniform_prep_circuit,
    decomposition_from_terms,
    from_ising,
    group_by_coefficient,
)
from .qaoa import QaoaParams, build_ansatz, exact_expectation
from .qubo_ising import (
    IsingModel,
    QuboInstance,
    brute_force_min,
    qubo_to_ising,
    random_qubo,
)
from .statevector import (
    CapacityError,
    OutcomeDistribution,
    ShotCounts,
    StateVector,
    apply_unitary,
    derive_seed,
    marginal_probabilities,
    new_basis_state,
    sample_counts,
)

__version__ = "0.1.0"

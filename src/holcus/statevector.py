"""Dense statevector simulation engine.

Amplitudes are stored as a flat complex128 array of length 2**num_qubits.
Qubit 0 is the least-significant bit of the basis index; bitstrings are
rendered most-significant-qubit-first, so basis index 2 on two qubits is
the string "10" (qubit 1 set, qubit 0 clear).

Gate application works on a collapsed, untransposed view of the amplitudes,
with controls fixed by basic indexing. There are two recipes for it, each
computed once per (width, targets, controls) and cached, and both come from one
memory-order axis walk, _axis_walk: each touched qubit gets its own axis, each
run of untouched qubits collapses to one. A diagonal gate (every off-diagonal
entry exactly 0: EXP_Z, EXP_ZZ, S, Z-string Paulis) multiplies _diag_layout's
view, whose low qubits, up to CHUNK amplitudes and below every control, form
one contiguous last axis, in place by its phases, spread onto it by a cached
index array. Every matrix gate reads _matrix_layout's view, walked down to the
lowest touched qubit. A one-target gate [[a, b], [c, d]] (H, X, EXP_X, CH, a
Pauli letter) sets it to D0 x + D1 flip(x): D0 = diag(a, d) and D1 = diag(b, c)
are scalars when their entries are equal (EXP_X, X, H's off-diagonal), else
entry pairs along the target's axis, and flip(x) is one take along that axis (a
reversed copy for a strided chunk, which take would first copy whole). A wider
gate (SWAP, a multi-qubit DENSE) is a 2^k x 2^k matrix product on the view
transposed to put its target axes first. A view above CHUNK amplitudes goes
chunk by chunk, cut along its outermost non-target axes first (_cuts), so the
temporaries stay small enough for the allocator to reuse instead of being
page-faulted back on every gate; no 2^n x 2^n operator is ever built.
_marginal, the one |amplitude|^2 reader (marginal_vector, estimators' readout),
sums it over the same view, its qubits the targets, in the same chunks
(_square_sums): at most CHUNK amplitudes at a time, however many qubits.
kernel_operand chooses diagonal or matrix once per matrix, _bind the step by
target count.

The kernel has one entry, _run(_bind(state, program)), in two steps. _bind
first fuses the program (_fused): each run of consecutive uncontrolled diagonal
triples, such as a QAOA phase layer, becomes one diagonal, one multiply where
there was one per gate, and so, on up to log2(CHUNK) qubits, does a run of
controlled ones (holcus's select stage); each run of uncontrolled one-target matrices on
distinct qubits, such as the H or an EXP_X layer, becomes Kronecker blocks
(_kron), one matrix product per _KRON_QUBITS qubits where there was one flip
per qubit. Fusion reads only the gate list and still touches every amplitude,
so every program takes it and it has no switch; a program run many times is
fused once and bound with fuse=False (estimators' suffixes, qaoa's layers).
_bind then resolves each triple to a bound step on one register; _run applies
bound steps in order. Run as it is bound, a program holds one diagonal's
multiplier at a time; bound once into a list, it runs again on the same
register with no per-gate setup, which estimators.run_program does for a prep
that several circuits of one width share, holding one multiplier or block per
fused run.
apply_unitary checks its arguments, then binds and runs its one gate, unfused;
a Circuit's program was checked when the circuit was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import prod
from operator import itemgetter

import numpy as np

MAX_QUBITS = 24
# numpy's int64 limit, the largest count its multinomial takes.
MAX_SHOTS = 2**63 - 1
# Bound on the (n, targets, controls) recipes each of _diag_layout and _matrix_layout
# keeps; a plan uses a few hundred.
LAYOUT_CACHE_SIZE = 4096
# Most amplitudes one matrix gate reads, or one marginal squares, at a time (larger
# views go chunk by chunk), and the longest contiguous axis of a diagonal gate's view.
CHUNK = 1 << 13
# Most qubits _fused joins into one Kronecker block of one-target gates.
_KRON_QUBITS = 4
# take's index that flips a target's bit along its axis.
_FLIP = np.array([1, 0])

OPEN = 0
CLOSED = 1


class CapacityError(ValueError):
    """Requested problem size exceeds the simulator guard."""


@dataclass
class StateVector:
    """Dense n-qubit state: 2^n complex amplitudes, norm 1."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # The kernel updates the amplitudes in place, so a real or
        # mis-shaped array would drop phases or fail part way through a gate.
        amps = self.amplitudes
        if not isinstance(amps, np.ndarray) or amps.dtype != np.complex128:
            raise ValueError(f"amplitudes must be a complex128 array, got {getattr(amps, 'dtype', type(amps))}")
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(f"amplitudes shape {amps.shape} does not hold {self.num_qubits} qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class OutcomeDistribution:
    """Measurement probabilities over an ordered subset of qubits.

    Key character j corresponds to qubit_indices[j]; passing the qubits in
    descending index order therefore yields the canonical MSB-first
    rendering of basis indices.
    """

    qubit_indices: tuple[int, ...]
    probabilities: dict[str, float]


@dataclass
class ShotCounts:
    """Multinomial sample of an OutcomeDistribution."""

    qubit_indices: tuple[int, ...]
    counts: dict[str, int]
    total_shots: int
    seed: int


def _check_int(name: str, value, low: int, high: int | None = None) -> None:
    """The one integer rule: ValueError, naming the input, unless value is an int or
    a numpy integer, not a bool (which would pass as 0 or 1), in [low, high]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not an integer")
    if value < low or high is not None and value > high:
        raise ValueError(f"{name} {value!r} out of range [{low}, {'inf' if high is None else high}]")


def new_basis_state(num_qubits: int) -> StateVector:
    """The basis state |0...0> on num_qubits qubits."""
    _check_int("num_qubits", num_qubits, 1)
    if num_qubits > MAX_QUBITS:
        raise CapacityError(f"num_qubits={num_qubits} exceeds guard of {MAX_QUBITS}")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _checked_controls(targets: tuple[int, ...], controls) -> tuple[tuple[int, int], ...]:
    """controls with int polarities, which the kernel indexes with (a bool would
    select); ValueError if a qubit repeats or a polarity is not OPEN or CLOSED."""
    control_qubits = tuple(q for q, _ in controls)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits in {targets}")
    if len(set(control_qubits)) != len(control_qubits):
        raise ValueError(f"duplicate control qubits in {control_qubits}")
    if set(targets) & set(control_qubits):
        raise ValueError(f"targets {targets} overlap controls {control_qubits}")
    for _, v in controls:
        if v not in (OPEN, CLOSED):
            raise ValueError(f"control polarity must be 0 (open) or 1 (closed), got {v}")
    return tuple((q, int(v)) for q, v in controls)


def _check_qubits(qubits, num_qubits: int) -> None:
    """ValueError unless every qubit index passes _check_int in [0, num_qubits)."""
    for q in qubits:
        _check_int("qubit index", q, 0, num_qubits - 1)


def apply_unitary(
    state: StateVector,
    matrix: np.ndarray,
    targets: list[int] | tuple[int, ...],
    controls: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
) -> StateVector:
    """Apply a 2^k x 2^k unitary to the target qubits, in place.

    Bit j of the matrix row/column index corresponds to targets[j]
    (LSB-first, consistent with the global qubit-0-is-LSB convention).
    Controls are (qubit, value) pairs: value 1 is a closed control, 0 an
    open control; the matrix acts only on basis components matching every
    control, all other components are untouched. Unitarity is not checked.
    """
    targets = tuple(targets)
    controls = _checked_controls(targets, tuple(controls))
    k = len(targets)
    _check_qubits(targets + tuple(q for q, _ in controls), state.num_qubits)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not match {k} targets")
    _run(_bind(state, ((kernel_operand(matrix), targets, controls),), fuse=False))
    return state


def kernel_operand(matrix: np.ndarray) -> np.ndarray:
    """What the kernel applies for a 2^k x 2^k complex matrix: its diagonal,
    as a new length-2^k array, when every off-diagonal entry is exactly 0,
    otherwise the matrix itself."""
    diag = np.diagonal(matrix)
    if np.array_equal(matrix, np.diag(diag)):
        return diag.copy()
    return matrix


def _axis_walk(n: int, touched: set[int], low: int) -> tuple[list[int], list[int | None]]:
    """(shape, qubits) of the memory-order axes of qubits n-1 down to low: each
    touched qubit gets its own axis of length 2, each run of untouched qubits
    collapses to one axis of length 2^run, whose qubit is None."""
    shape, qubits = [], []
    for q in range(n - 1, low - 1, -1):
        if q not in touched and qubits and qubits[-1] is None:
            shape[-1] *= 2
        else:
            shape.append(2)
            qubits.append(q if q in touched else None)
    return shape, qubits


def _chunk_qubits() -> int:
    """log2(CHUNK), read at call time: the most qubits one chunk holds."""
    return CHUNK.bit_length() - 1


def _cuts(shape: list[int], order, limit: int) -> tuple[tuple[slice, ...], ...] | None:
    """The index tuples that cut an array of this shape into chunks of at most limit
    amplitudes: each axis of order in turn is cut to the width that leaves limit
    amplitudes per chunk, or to width 1 and the next one too, until a chunk fits.
    None when the whole array fits."""
    size = total = prod(shape)
    cuts = [[slice(None)] for _ in shape]
    for a in order:
        if size <= limit:
            break
        width = max(1, shape[a] * limit // size)
        cuts[a] = [slice(i, i + width) for i in range(0, shape[a], width)]
        size = size // shape[a] * width
    # From a list: tuple() of an iterator leaves a block in CPython's tuple free list.
    return None if size == total else tuple(list(product(*cuts)))


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _diag_layout(n: int, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...]):
    """(shape, index, spread) of a diagonal gate's view of an n-qubit register, in
    memory order with no transpose. The qubits below w = min(n, log2 CHUNK, lowest
    control) form the last axis, contiguous and up to CHUNK long; above w each
    touched qubit has its own axis and each untouched run one. index fixes the
    controls. spread broadcasts onto the indexed view and holds each entry's
    operand index (bit j is targets[j]); its last axis is 2^w long only when a
    target lies below w. Its type is the smallest unsigned one that holds 2^k - 1
    (one byte for k <= 8), as intp would cost 64 KiB a recipe at w = 13."""
    polarity = dict(controls)
    w = min(n, _chunk_qubits(), *polarity)
    shape, qubits = _axis_walk(n, set(polarity) | set(targets), w)
    shape.append(1 << w)
    index = [polarity.get(q, slice(None)) for q in qubits] + [slice(None)]
    weights = [(0, 1 << targets.index(q)) if q in targets else (0,) for q in qubits if q not in polarity]
    dtype = np.min_scalar_type((1 << len(targets)) - 1)
    spread = np.zeros(1 << w if any(q < w for q in targets) else 1, dtype)
    for j, q in enumerate(targets):
        if q < w:
            spread.reshape(-1, 2, 1 << q)[:, 1] += 1 << j
    for weight in reversed(weights):
        spread = np.add.outer(np.array(weight, dtype), spread)
    return tuple(shape), tuple(index), spread


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _matrix_layout(n: int, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...]):
    """(shape, index, perm, chunks, reverse, pair) of a matrix gate's view of an
    n-qubit register, untransposed: _axis_walk's axes down to the lowest touched
    qubit, then the qubits below it as one last axis. index fixes the controls.
    perm orders the indexed view's axes as the targets, most significant first
    (bit j of the operand index is targets[j]), then the others in memory order.
    chunks is None when the indexed view holds at most CHUNK amplitudes, else its
    _cuts into chunks of at most CHUNK, outermost non-target axes first; when the
    targets alone index more than CHUNK entries, as a marginal's may and a matrix
    gate's must not (its chunks hold its targets whole), the targets go first,
    most significant first, so a register's top qubits are read in contiguous
    blocks of whole rows, where 8 <= k <= 13 of them are read in strided chunks of
    columns. For a one-target gate's flip, on the axis perm[0]: reverse is a basic
    index that reverses it, pair the shape of an entry pair along it (None on the
    first axis, where _scale scales the halves)."""
    polarity = dict(controls)
    low = min((*targets, *polarity))
    shape, qubits = _axis_walk(n, {*targets, *polarity}, low)
    shape.append(1 << low)
    qubits.append(None)
    index = tuple(polarity.get(q, slice(None)) for q in qubits)
    view = [(s, q) for s, q in zip(shape, qubits) if q not in polarity]
    front = [[q for _, q in view].index(t) for t in reversed(targets)]
    rest = [a for a in range(len(view)) if a not in front]
    order = front + rest if 1 << len(targets) > CHUNK else rest + front
    chunks = _cuts([s for s, _ in view], order, CHUNK)
    reverse = (slice(None),) * front[0] + (slice(None, None, -1),)
    pair = (2,) + (1,) * (len(view) - front[0] - 1) if front[0] else None
    return tuple(shape), index, tuple(front + rest), chunks, reverse, pair


def _square_sums(view: np.ndarray, perm, k: int, chunks) -> np.ndarray:
    """|x|^2 over view, transposed by perm, summed over all but its first k axes:
    in one expression when chunks is None, else chunk by chunk (the _cuts of view,
    each summed pairwise and added into the slice of the result it covers), so no
    temporary outgrows a chunk."""
    if chunks is None:
        tensor = (np.abs(view) ** 2).transpose(perm)
        return tensor.sum(axis=tuple(range(k, tensor.ndim)))
    sums = np.zeros([view.shape[a] for a in perm[:k]])
    for c in chunks:
        square = np.abs(view[c])
        square *= square
        # A list: tuple() of a generator would leave a block in CPython's tuple free list.
        part = sums[tuple([c[a] for a in perm[:k]])]
        part += square.transpose(perm).sum(axis=tuple(range(k, square.ndim)))
        del square  # before the next chunk's is made
    return sums


def _kron(u: np.ndarray, block: np.ndarray) -> np.ndarray:
    """np.kron(u, block) for a 2 x 2 u, at a fifth of its cost: u on the top bit."""
    return (u[:, None, :, None] * block[None, :, None, :]).reshape(2 * len(block), -1)


def _fused(n: int, program, whole: bool = False):
    """program with its runs fused, in one pass. Each maximal run of consecutive
    diagonal triples, uncontrolled or, on a register of at most log2(CHUNK) qubits,
    controlled, becomes one diagonal triple on the union of the run's qubits,
    ascending: the run bound, unfused, and run on a vector of ones on those qubits
    renumbered. A run closes before a gate that would take the union past
    log2(CHUNK) qubits, or make the run's multiplier on an n-qubit register, by
    _diag_layout's rule, larger than both CHUNK entries and the largest of one of
    its gates. A run of one triple, such as a gate wider than log2(CHUNK), passes
    through unchanged, and so, unless whole is set (a program fused once to run
    many times), does a run on every qubit of the register, whose product would
    cost as much to build as the run costs to apply. Each maximal run of
    uncontrolled one-target matrices on distinct qubits, closed by any other
    triple or a repeated qubit, becomes Kronecker blocks: its qubits, ascending,
    cut into groups of at most _KRON_QUBITS, each one triple whose operand bit j
    is targets[j]; a group of one keeps its gate."""
    cap = _chunk_qubits()
    w = min(n, cap)
    small = n <= cap  # so every multiplier, fused or not, is 2^n <= CHUNK entries

    def entries(qubits):  # _diag_layout's multiplier size, without building its recipe
        return (1 << w if min(qubits, default=w) < w else 1) << len([q for q in qubits if q >= w])

    run, kind, union, bound = [], 0, set(), CHUNK  # kind 1: diagonals, 2: uncontrolled one-target matrices
    for triple in chain(program, [None]):
        operand = None if triple is None or triple[2] and not small else triple[0]
        this = 0 if operand is None else 1 if operand.ndim == 1 else 0 if triple[2] or operand.shape != (2, 2) else 2
        if this == kind == 1:
            if small:
                run.append(triple)
                continue
            wider = union.union(triple[1])
            most = max(bound, entries(triple[1]))
            if len(wider) <= cap and entries(wider) <= most:
                run.append(triple)
                union, bound = wider, most
                continue
        elif this == kind == 2 and triple[1][0] not in union:
            run.append(triple)
            union.add(triple[1][0])
            continue
        if len(run) > 1 and kind == 1 and small:  # the union, with the controls' qubits, is taken only now
            union = {q for _, t, _ in run for q in t}.union(*[[q for q, _ in c] for _, _, c in run if c])
        if len(run) > 1 and kind == 2:
            run.sort(key=itemgetter(1))
            for i in range(0, len(run), _KRON_QUBITS):
                block = run[i][0]
                for u, _, _ in run[i + 1 : i + _KRON_QUBITS]:
                    block = _kron(u, block)
                yield block, tuple([t for _, (t,), _ in run[i : i + _KRON_QUBITS]]), ()
        elif len(run) > 1 and (whole or len(union) < n):
            qubits = sorted(union)
            ones = StateVector(len(qubits), np.ones(1 << len(qubits), dtype=np.complex128))
            at = qubits.index
            renumbered = [(op, tuple([at(q) for q in t]), tuple([(at(q), v) for q, v in c])) for op, t, c in run]
            _run(_bind(ones, renumbered, fuse=False))
            yield ones.amplitudes, tuple(qubits), ()
        else:
            yield from run
        run, kind = [], this
        if this == 1:
            run = [triple]
            if not small:
                union, bound = set(triple[1]), max(CHUNK, entries(triple[1]))
        elif this:
            run, union = [triple], {triple[1][0]}
        elif triple is not None:
            yield triple


def _bind(state: StateVector, program, fuse: bool = True):
    """Each (operand, targets, controls) triple of program, its runs fused by
    _fused unless fuse is False, resolved to a view of state's register, as _run
    takes it, unchecked: the qubits must be distinct and in range, each polarity
    the int OPEN or CLOSED, and operand, from kernel_operand, a 2^k x 2^k matrix
    (2^k <= CHUNK) or a length-2^k diagonal for k targets. A diagonal becomes (view, multiplier),
    its operand spread onto _diag_layout's view. A matrix reads _matrix_layout's
    view with the controls fixed: on one target it becomes (view, D0, D1, axis,
    reverse, chunks), axis the target's and D0 and D1 each a complex when its
    entries are equal, else its entry pair as _scale takes it; on more, (view,
    matrix, perm, chunks). A generator: run as it is bound, each multiplier lives
    for one step; a list of it binds the whole program once, for several runs on
    the register, and keeps every diagonal step's multiplier."""
    n = state.num_qubits
    amps = state.amplitudes
    for operand, targets, controls in _fused(n, program) if fuse else program:
        if operand.ndim == 1:
            shape, index, spread = _diag_layout(n, targets, controls)
            yield amps.reshape(shape)[index], operand.take(spread)
            continue
        shape, index, perm, chunks, reverse, pair = _matrix_layout(n, targets, controls)
        view = amps.reshape(shape)[index]
        if len(targets) > 1:
            yield view, operand, perm, chunks
            continue
        (a, b), (c, d) = operand.tolist()
        d0 = a if a == d else (a, d) if pair is None else np.array((a, d)).reshape(pair)
        d1 = b if b == c else (b, c) if pair is None else np.array((b, c)).reshape(pair)
        yield view, d0, d1, perm[0], reverse, chunks


def _run(steps) -> None:
    """Apply bound steps in order: a diagonal multiplies its view in place; a
    one-target gate [[a, b], [c, d]] sets its view, or each of its chunks, to
    D0 x + D1 flip(x), D0 = diag(a, d) and D1 = diag(b, c); a wider matrix
    replaces each chunk, transposed to put its targets first, by one matrix
    product."""
    for step in steps:
        if len(step) == 2:
            view, multiplier = step
            view *= multiplier
            del step, multiplier  # so that it is freed before the next step is bound
        elif len(step) == 6:
            view, d0, d1, axis, reverse, chunks = step
            for sub in (view,) if chunks is None else (view[c] for c in chunks):
                # take would first copy a strided chunk whole; a reversed slice reads it once.
                flipped = sub.take(_FLIP, axis=axis) if sub.flags.c_contiguous else sub[reverse].copy()
                _scale(flipped, d1)
                _scale(sub, d0)
                sub += flipped
                del flipped  # before the next chunk's is made
        else:
            view, matrix, perm, chunks = step
            for sub in (view,) if chunks is None else (view[c] for c in chunks):
                sub = sub.transpose(perm)
                sub[...] = (matrix @ sub.reshape(len(matrix), -1)).reshape(sub.shape)


def _scale(x: np.ndarray, d) -> None:
    """x *= D in place: a complex, an entry pair along the target's axis, or a
    tuple pair, each half of x (along its first axis) times its entry; numpy
    buffers a contiguous x of up to 8192 amplitudes to broadcast a pair."""
    if type(d) is tuple:
        x[0] *= d[0]
        x[1] *= d[1]
    else:
        x *= d


def marginal_vector(state: StateVector, qubits: list[int] | tuple[int, ...]) -> np.ndarray:
    """Marginal probabilities over the given qubits as a 2^k array: bit k-1-j
    of the outcome index is qubits[j], so qubits[0] is the most significant."""
    qubits = tuple(qubits)
    if len(qubits) == 0:
        raise ValueError("qubit list must be non-empty")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    _check_qubits(qubits, state.num_qubits)
    return _marginal(state, qubits)


def _marginal(state: StateVector, qubits: tuple[int, ...]) -> np.ndarray:
    """marginal_vector unchecked: _square_sums of _matrix_layout's view of qubits."""
    shape, _, perm, chunks, *_ = _matrix_layout(state.num_qubits, qubits[::-1], ())
    return _square_sums(state.amplitudes.reshape(shape), perm, len(qubits), chunks).reshape(-1)


def marginal_probabilities(state: StateVector, qubits: list[int] | tuple[int, ...] | None = None) -> OutcomeDistribution:
    """Marginal distribution over the given qubits (default: all, MSB-first),
    keyed by outcome bitstring; zero-probability outcomes are left out."""
    if qubits is None:
        qubits = range(state.num_qubits - 1, -1, -1)
    qubits = tuple(qubits)
    width = len(qubits)
    flat = marginal_vector(state, qubits).tolist()
    return OutcomeDistribution(qubits, {format(i, f"0{width}b"): p for i, p in enumerate(flat) if p > 0.0})


def multinomial_draw(probs, shots: int, seed: int) -> np.ndarray:
    """Seeded multinomial counts over the entries of probs, renormalised;
    zero entries draw nothing and leave the stream of the others unchanged.
    shots and seed pass _check_int in [1, MAX_SHOTS] and [0, inf)."""
    _check_int("shots", shots, 1, MAX_SHOTS)
    _check_int("seed", seed, 0)
    pvals = np.asarray(probs, dtype=float)
    return np.random.default_rng(seed).multinomial(shots, pvals / pvals.sum())


def sample_counts(distribution: OutcomeDistribution, shots: int, seed: int) -> ShotCounts:
    """Multinomial draw from a distribution; deterministic for a given seed."""
    keys = sorted(distribution.probabilities)
    draws = multinomial_draw([distribution.probabilities[k] for k in keys], shots, seed)
    counts = {k: int(c) for k, c in zip(keys, draws) if c > 0}
    return ShotCounts(distribution.qubit_indices, counts, shots, seed)


def derive_seed(master_seed: int, *path: int) -> int:
    """Counter-based split of a master seed into independent streams.

    The same (master_seed, path) always yields the same child seed, no
    matter in which order streams are requested.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return int(seq.generate_state(1, dtype=np.uint64)[0])

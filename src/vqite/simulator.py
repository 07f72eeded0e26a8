"""Exact statevector simulation of circuits of one- and controlled
one-qubit gates.

A gate is its read-only 2x2 matrix, a target qubit and an optional
control qubit; Rx, Ry, Rz, H, X, Y, Z, CNOT and CZ are built as such, and
a controlled Pauli string c-(s1 s2 ...) is the list of its controlled
single-letter factors c-s1, c-s2, ..., as the reference circuits
decompose it.  Gates run on a stack of raw amplitude tensors (one state
is a stack of one), and norms are checked once per circuit.  There is one
gate kernel: gate_plan checks a gate's qubits and resolves its axis order,
and apply_planned applies a matrix by that plan, as one np.dot over the
stack, or per_state one matmul per state, which rounds each state as
alone; a rotation may hold one (2, 2) matrix per row of a stack of B
ansatz rows.  The width rule, a fact of OpenBLAS zgemm (which rounds
widths 1 and 2 unlike wider ones): the np.dot rounds each state as alone
too if its 2^(n-1) amplitudes, halved by a control, are a multiple of 4.
A gate leaves its input unchanged and writes only arrays of its own (a
controlled gate its control-1 half of a copy).  apply_gate plans and
applies one gate as one np.dot, run_gates a list of them; a compiled
circuit keeps its plans, copies the gates' results into one buffer, and
can record the numpy calls of that sweep (call) to repeat at new matrices.
Qubit ordering follows vqite.pauli (q0 = most significant bit).
measure_z_expectation draws only from caller-supplied seeded generators.
DensityMatrix holds the mixed states of the CMF reduction and the lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .pauli import NORM_TOL, PAULI_MATRICES, PauliString, check_density, read_only

HADAMARD = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
EYE = read_only(np.eye(2))


@dataclass(frozen=True, slots=True)
class StateVector:
    """Normalized pure state on n qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size & (amps.size - 1) or amps.size < 2:
            raise ValueError(f"amplitude vector length {amps.size} is not 2^n")
        check_norms(np.linalg.norm(amps))
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state on n qubits."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.elements, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"density matrix shape {m.shape} is not square 2^n")
        object.__setattr__(self, "elements", check_density(m))

    @property
    def n_qubits(self) -> int:
        return self.elements.shape[0].bit_length() - 1


def basis_state(bits) -> StateVector:
    """|b0 b1 ...> with b0 on qubit q0.  Accepts '10' or [1, 0]."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    n = len(bits)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[sum(int(b) << (n - 1 - q) for q, b in enumerate(bits))] = 1.0
    return StateVector(amps)


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    """A 2x2 unitary on qubit `target`, applied only on the control=|1>
    branch when `control` is set.  The matrix is made read-only, as gates
    share their matrices across circuits."""

    matrix: np.ndarray
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise ValueError(f"gate control and target are both qubit {self.target}")
        read_only(self.matrix)


def rotation_matrix(axis, angle, out=None) -> np.ndarray:
    """R_n(a) = exp(-i a/2 sigma_n), written out in closed form (into `out`
    if given).  `axis` is a letter or a stack of Pauli matrices, broadcast
    against an array of angles."""
    sigma = PAULI_MATRICES[axis] if isinstance(axis, str) else axis
    half = np.asarray(angle, dtype=float)[..., None, None] / 2.0
    return np.subtract(np.cos(half) * EYE, 1j * np.sin(half) * sigma, out=out)


def rx(q: int, angle: float) -> Gate:
    return Gate(rotation_matrix("X", float(angle)), q)


def ry(q: int, angle: float) -> Gate:
    return Gate(rotation_matrix("Y", float(angle)), q)


def rz(q: int, angle: float) -> Gate:
    return Gate(rotation_matrix("Z", float(angle)), q)


def hadamard(q: int) -> Gate:
    return Gate(HADAMARD, q)


def x(q: int) -> Gate:
    return Gate(PAULI_MATRICES["X"], q)


def y(q: int) -> Gate:
    return Gate(PAULI_MATRICES["Y"], q)


def z(q: int) -> Gate:
    return Gate(PAULI_MATRICES["Z"], q)


def cnot(control: int, target: int) -> Gate:
    return Gate(PAULI_MATRICES["X"], target, control)


def cz(control: int, target: int) -> Gate:
    return Gate(PAULI_MATRICES["Z"], target, control)


def controlled_pauli(control: int, targets, letters: str) -> list[Gate]:
    """Controlled Pauli string as its controlled single-letter factors,
    c-s1 first; identity letters are skipped."""
    targets = tuple(targets)
    if len(targets) != len(letters):
        raise ValueError("one target qubit per Pauli letter required")
    PauliString(letters)  # validates the alphabet
    return [Gate(PAULI_MATRICES[c], q, control)
            for q, c in zip(targets, letters) if c != "I"]


@lru_cache(maxsize=256)
def _axis_plan(ndim: int, q: int, lead: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order bringing axis q to position `lead`, and its inverse."""
    order = (*range(lead), q, *(k for k in range(lead, ndim) if k != q))
    return order, tuple([order.index(k) for k in range(ndim)])


def gate_plan(gate: Gate, n: int, per_state: bool = True, axes: int = 1) -> tuple:
    """(control-1 index or None, axis order, inverse, per_state) of a gate on
    a stack of n-qubit tensors with `axes` stack axes, for apply_planned.
    Raises ValueError on a qubit outside 0..n-1: qubit q is axis q + axes,
    so -1 would land on a stack axis."""
    if not (0 <= gate.target < n and (gate.control is None or 0 <= gate.control < n)):
        raise ValueError(f"gate on qubits ({gate.target}, {gate.control}) outside 0..{n - 1}")
    if gate.control is None:
        return (None, *_axis_plan(n + axes, gate.target + axes, int(per_state)), per_state)
    return ((slice(None),) * (gate.control + axes) + (1,),
            *_axis_plan(n + axes - 1, gate.target + axes - (gate.target > gate.control),
                        int(per_state)), per_state)


def apply_planned(t: np.ndarray, m: np.ndarray, plan: tuple,
                  calls: list | None = None) -> np.ndarray:
    """The 2x2 matrix m applied by gate_plan `plan` to a stack of amplitude
    tensors t, shape (S,) + (2,)*n, as a transposed view: one np.dot of m
    with the target axis moved to the front and the rest flattened (bitwise
    the tensordot + moveaxis oracle), or per_state one matmul per state,
    which gives each state its bytes alone (as np.dot does under the width
    rule); m is then (2, 2) or a (B, 2, 2) stack, state s taking m[s % B].
    t is left unchanged: a controlled gate writes its control-1 half of a
    copy of t.  The numpy calls that move values are recorded into `calls`
    (call), a copy as dst.__setitem__(..., src), twice as fast as np.copyto."""
    control, order, inverse, per_state = plan
    whole, moves = t, []
    if control is not None:
        whole = t.copy()
        moves, t = [(whole, t)], whole[control]
    front = t.transpose(order)
    x = front.reshape(((len(t), 2, -1) if m.ndim == 2 else (-1, len(m), 2, t.size // (2 * len(t))))
                      if per_state else (2, -1))
    product = np.matmul if per_state else np.dot
    out = product(m, x)
    result = out.reshape(front.shape).transpose(inverse)
    if control is not None:
        whole[control] = result
    if calls is not None:   # the copies (reshape's too) and the product, to repeat
        moves += [(x.reshape(front.shape), front)] if not np.may_share_memory(x, front) else []
        calls += [(dst.__setitem__, (..., src)) for dst, src in moves] + [(product, (m, x, out))]
        calls += [(whole[control].__setitem__, (..., result))] if control is not None else []
    return result if control is None else whole


def call(calls: list | None, function, *args) -> None:
    """function(*args), also appended to `calls` (unless None) to repeat."""
    if calls is not None:
        calls.append((function, args))
    function(*args)


def apply_gate(t: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a stack of amplitude tensors, shape (S,) + (2,)*n,
    as one np.dot, leaving t unchanged; qubit q is axis q + 1.  Qubits
    checked as in gate_plan."""
    return apply_planned(t, gate.matrix, gate_plan(gate, t.ndim - 1, False))


def run_gates(t: np.ndarray, gates) -> np.ndarray:
    """The tensor stack t, shape (S,) + (2,)*n, after `gates` applied left to
    right by apply_gate, which raises ValueError on a gate outside qubits
    0..n-1 before applying it.
    """
    for g in gates:
        t = apply_gate(t, g)
    return t


def run_circuit(initial: StateVector, gates) -> StateVector:
    """Apply gates left to right in list order; norm is preserved by
    construction and checked once, on the final state."""
    t = initial.amplitudes.reshape((1,) + (2,) * initial.n_qubits)
    return StateVector(run_gates(t, gates).reshape(-1))


def check_norms(norms: np.ndarray) -> None:
    """Raise ValueError unless each state norm in `norms` (array or numpy scalar) is 1."""
    if not abs(norms - 1.0).max(initial=0.0) <= NORM_TOL:  # NaN fails too
        bad = np.ravel(norms)[~(abs(np.ravel(norms) - 1.0) <= NORM_TOL)][0]
        raise ValueError(f"state norm {bad} deviates from 1 beyond {NORM_TOL}")


def check_unit(rows: np.ndarray) -> None:   # check_norms of rows summed as np.linalg.norm
    check_norms(np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1)))


def projectors(v: np.ndarray) -> np.ndarray:
    """np.outer(v, v.conj()) of each row of a (B, d) stack once each |v| is 1:
    Hermitian and positive semidefinite as built, of trace |v|^2, a density."""
    check_unit(v)
    return v[:, :, None] * v.conj()[:, None, :]


def measure_z_expectation(states: np.ndarray, shots: int | None = None,
                          rng=None, sizes=None) -> np.ndarray:
    """<Z> of the last qubit of each state of a stack (leading axis),
    analytically (shots=None) or from a binomial sample, after checking each
    norm.  Each branch adds its |amplitude|^2 in index order, read in the
    stack's own layout (no copy of a run_gates view, as of a SampledRun pass
    built ancilla first).  Shot mode draws count ~ Binomial(shots, (1+<Z>)/2)
    per state in stack order, in one call equal to one draw per state in turn,
    and returns 2*count/shots - 1.  `rng` is a Generator or a seed, or with
    `sizes` a list of one per size, the r-th drawing for the next sizes[r]
    states (ValueError unless they are >= 0 and add up to the stack).
    """
    if shots is not None and not (shots > 0 and rng is not None):
        raise ValueError("shot mode needs a positive shot count and a seed or generator")
    if shots and sizes is not None and not (isinstance(rng, (list, tuple))
                                            and len(rng) == len(sizes)):
        raise ValueError("with sizes, rng must be a list of one generator per size")
    if shots and sizes is not None and (min(sizes, default=0) < 0 or sum(sizes) != len(states)):
        raise ValueError(f"sizes {sizes} must be non-negative and add up to the stack")
    halves = states.reshape(len(states), -1, 2).transpose(2, 0, 1)   # (2, S, 2^(N-1))
    marg = np.add.accumulate(np.abs(halves) ** 2, axis=2)[:, :, -1]   # in index order
    check_norms(np.sqrt(marg[0] + marg[1]))
    exact = marg[0] - marg[1]
    if shots is None:
        return exact
    p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
    rngs, sizes = ([rng], [len(p)]) if sizes is None else (rng, sizes)
    ends = [0, *accumulate(sizes)]
    counts = np.concatenate([np.random.default_rng(g).binomial(shots, p[a:b])
                             for g, a, b in zip(rngs, ends, ends[1:])])
    return 2.0 * counts / shots - 1.0

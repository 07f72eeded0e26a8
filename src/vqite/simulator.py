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
ansatz rows.  The np.dot rounds each state as alone too unless the width
rule (dot_rounds_apart) holds.  A gate leaves its input unchanged and
writes only arrays of its own (a controlled gate its control-1 half of a
copy).  apply_gate plans and applies one gate as one np.dot, run_gates a
list of them; a compiled circuit keeps its plans, copies the gates'
results into one buffer, and can record the numpy calls of that sweep
(call) to repeat at new matrices.
Qubit ordering follows vqite.pauli (q0 = most significant bit).
sample_z draws only from caller-supplied seeds, one per group of states.
DensityMatrix holds the mixed states of the CMF reduction and the lift.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .pauli import NORM_TOL, PAULI_MATRICES, Frozen, PauliString, check_density, read_only

HADAMARD = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
EYE = read_only(np.eye(2))


class StateVector(Frozen):
    """Normalized pure state on n qubits."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size & (amps.size - 1) or amps.size < 2:
            raise ValueError(f"amplitude vector length {amps.size} is not 2^n")
        check_unit(amps[None])
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


class DensityMatrix(Frozen):
    """Hermitian, unit-trace, positive-semidefinite state on n qubits."""

    __slots__ = ("elements",)

    def __init__(self, elements) -> None:
        m = np.asarray(elements, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"density matrix shape {m.shape} is not square 2^n")
        object.__setattr__(self, "elements", check_density(m))


def basis_state(bits) -> StateVector:
    """|b0 b1 ...> with b0 on qubit q0.  Accepts '10' or [1, 0]."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    n = len(bits)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[sum(int(b) << (n - 1 - q) for q, b in enumerate(bits))] = 1.0
    return StateVector(amps)


class Gate(Frozen):
    """A 2x2 unitary on qubit `target`, applied only on the control=|1>
    branch when `control` is set.  The matrix is made read-only, as gates
    share their matrices across circuits; a gate equals only itself."""

    __slots__ = ("matrix", "target", "control")

    def __init__(self, matrix: np.ndarray, target: int, control: int | None = None) -> None:
        if control == target:
            raise ValueError(f"gate control and target are both qubit {target}")
        object.__setattr__(self, "matrix", read_only(matrix))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "control", control)


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


def dot_rounds_apart(n: int, controlled: bool) -> bool:
    """The width rule, a fact of OpenBLAS zgemm (which rounds widths 1 and 2 unlike
    wider ones): a gate's shared np.dot over a stack of n-qubit states rounds a state
    unlike the state alone while its 2^(n-1) amplitudes, halved by a control, are under 4."""
    return 2 ** (n - 1 - controlled) < 4


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


def check_shots(shots):   # shots, else ValueError; None is exact mode, int64 a binomial's count
    if shots is not None and not (isinstance(shots, (int, np.integer)) and 1 <= shots < 2 ** 63
                                  and not isinstance(shots, bool)):
        raise ValueError(f"shots must be >= 1 and < 2**63 and an int (or None), not {shots!r}")
    return shots


def z_marginals(states: np.ndarray) -> np.ndarray:
    """(2, S) probabilities of the last qubit's 0 and 1 in each state of a stack, each
    the |amplitude|^2 added in index order in the stack's own layout (no copy)."""
    p = np.abs(states.reshape(len(states), -1, 2)).transpose(1, 2, 0) ** 2   # (2^(N-1), 2, S)
    return sum(p[1:], p[0])     # left to right over the stack, not pairwise as .sum adds


def sample_z(marg: np.ndarray, shots: int | None, rngs, sizes) -> np.ndarray:
    """<Z> of each state from its z_marginals, norms checked: marg[0] - marg[1], or
    2*count/shots - 1, count ~ Binomial(shots, (1+<Z>)/2) per state in stack order,
    generator rngs[r] (a Generator or seed) drawing for the next sizes[r] >= 0 states
    in one call.  ValueErrors come before any draw."""
    check_shots(shots)
    if shots is not None and not (isinstance(rngs, (list, tuple)) and len(rngs) == len(sizes)
                                  and all(g is not None for g in rngs)):
        raise ValueError("shot mode needs rngs: one seed or generator for each of the sizes")
    if shots is not None and (min(sizes, default=0) < 0 or sum(sizes) != marg.shape[1]):
        raise ValueError(f"sizes {sizes} must be non-negative and add up to the stack")
    check_norms(np.sqrt(marg[0] + marg[1]))
    exact = marg[0] - marg[1]
    if shots is None:
        return exact
    p = np.clip((1.0 + exact) / 2.0, 0.0, 1.0)
    ends = [0, *accumulate(sizes)]
    n = np.full(len(p), shots)   # the int's draws, with less argument checking per call
    counts = np.concatenate([np.random.default_rng(g).binomial(n[a:b], p[a:b])
                             for g, a, b in zip(rngs, ends, ends[1:])])
    return 2.0 * counts / shots - 1.0


def measure_z_expectation(states, shots: int | None = None, rng=None) -> np.ndarray:
    """<Z> of the last qubit of each state: sample_z of its z_marginals, one group, `rng`'s."""
    return sample_z(z_marginals(states), shots, [rng], [len(states)])

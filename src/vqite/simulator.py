"""Exact statevector / density-matrix simulation of the package's gate set.

Gate kinds: Rx, Ry, Rz, H, X, Y, Z, CNOT, CZ and controlled Pauli strings.
A controlled string c-(s1 s2 ...) is applied by chaining single controlled
Pauli factors, c-s2 . c-s1, which is also how the reference circuits
decompose it.  Qubit ordering follows vqite.pauli (q0 = most significant
bit).  Shot-mode measurements draw from a caller-supplied seeded generator
so that every sampled result is reproducible from (seed, shots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PAULI_MATRICES, PauliString, apply_on_axis

NORM_TOL = 1e-10

_SQ = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": PAULI_MATRICES["X"],
    "Y": PAULI_MATRICES["Y"],
    "Z": PAULI_MATRICES["Z"],
}

ROTATION_AXES = {"Rx": "X", "Ry": "Y", "Rz": "Z"}


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on n qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size & (amps.size - 1) or amps.size < 2:
            raise ValueError(f"amplitude vector length {amps.size} is not 2^n")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state on n qubits."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.elements, dtype=complex)
        dim = m.shape[0]
        if m.shape != (dim, dim) or dim & (dim - 1):
            raise ValueError(f"density matrix shape {m.shape} is not square 2^n")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > NORM_TOL:
            raise ValueError("density matrix trace deviates from 1 beyond 1e-10")
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        object.__setattr__(self, "elements", m)

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


@dataclass(frozen=True)
class Gate:
    """One gate of the simulator's fixed set.

    `targets` lists the qubits acted on (for controlled Pauli strings, the
    string's qubits in order); `control` is the control qubit when present;
    `angle` is in radians for rotations; `letters` carries the Pauli word
    of a controlled string.
    """

    kind: str
    targets: tuple[int, ...]
    control: int | None = None
    angle: float | None = None
    letters: str | None = None

    def __post_init__(self) -> None:
        qubits = list(self.targets) + ([self.control] if self.control is not None else [])
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate {self.kind} has colliding qubit indices {qubits}")


def rx(q: int, angle: float) -> Gate:
    return Gate("Rx", (q,), angle=float(angle))


def ry(q: int, angle: float) -> Gate:
    return Gate("Ry", (q,), angle=float(angle))


def rz(q: int, angle: float) -> Gate:
    return Gate("Rz", (q,), angle=float(angle))


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (target,), control=control)


def cz(control: int, target: int) -> Gate:
    return Gate("CZ", (target,), control=control)


def controlled_pauli(control: int, targets, letters: str) -> Gate:
    """Controlled Pauli string; identity letters are allowed and skipped."""
    targets = tuple(targets)
    if len(targets) != len(letters):
        raise ValueError("one target qubit per Pauli letter required")
    PauliString(letters)  # validates the alphabet
    return Gate("CP", targets, control=control, letters=letters)


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """R_n(a) = exp(-i a/2 sigma_n), written out in closed form."""
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return c * np.eye(2) - 1j * s * PAULI_MATRICES[axis]


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind in ROTATION_AXES:
        return rotation_matrix(ROTATION_AXES[gate.kind], gate.angle)
    return _SQ[gate.kind]


def _apply_controlled_single(t: np.ndarray, m: np.ndarray, control: int,
                             target: int) -> np.ndarray:
    """Apply m to `target` on the control=|1> slice only."""
    t = t.copy()
    sl = [slice(None)] * t.ndim
    sl[control] = 1
    q_sub = target if target < control else target - 1
    t[tuple(sl)] = apply_on_axis(t[tuple(sl)], m, q_sub)
    return t


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate; norm is preserved by construction."""
    n = state.n_qubits
    qubits = list(gate.targets) + ([gate.control] if gate.control is not None else [])
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"gate {gate.kind} addresses qubit outside 0..{n - 1}")
    t = state.amplitudes.reshape((2,) * n)
    if gate.kind in ("Rx", "Ry", "Rz", "H", "X", "Y", "Z"):
        t = apply_on_axis(t, _single_qubit_matrix(gate), gate.targets[0])
    elif gate.kind == "CNOT":
        t = _apply_controlled_single(t, _SQ["X"], gate.control, gate.targets[0])
    elif gate.kind == "CZ":
        t = _apply_controlled_single(t, _SQ["Z"], gate.control, gate.targets[0])
    elif gate.kind == "CP":
        for q, letter in zip(gate.targets, gate.letters):
            if letter != "I":
                t = _apply_controlled_single(t, _SQ[letter], gate.control, q)
    else:
        raise ValueError(f"unknown gate kind '{gate.kind}'")
    return StateVector(t.reshape(-1))


def run_circuit(initial: StateVector, gates) -> StateVector:
    """Apply gates left to right in list order."""
    state = initial
    for g in gates:
        state = apply_gate(state, g)
    return state


def fidelity(a, b) -> float:
    """State fidelity; with a pure reference this is Tr(rho_a rho_b).

    Pure/pure: |<a|b>|^2.  Pure/mixed: <pure|rho|pure>.  Mixed/mixed:
    Tr(rho_a rho_b), the overlap the reference experiments report.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        if a.elements.shape != b.elements.shape:
            raise ValueError("fidelity arguments differ in dimension")
        val = np.trace(a.elements @ b.elements).real
    else:
        if isinstance(a, DensityMatrix):
            a, b = b, a
        if isinstance(b, DensityMatrix):
            if a.amplitudes.size != b.elements.shape[0]:
                raise ValueError("fidelity arguments differ in dimension")
            val = np.vdot(a.amplitudes, b.elements @ a.amplitudes).real
        else:
            if a.amplitudes.size != b.amplitudes.size:
                raise ValueError("fidelity arguments differ in dimension")
            val = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return float(min(max(val, 0.0), 1.0))


def z_expectation_exact(state: StateVector, qubit: int) -> float:
    probs = np.abs(state.amplitudes.reshape((2,) * state.n_qubits)) ** 2
    marg = probs.sum(axis=tuple(i for i in range(state.n_qubits) if i != qubit))
    return float(marg[0] - marg[1])


def measure_z_expectation(state: StateVector, qubit: int, shots: int | None = None,
                          rng=None) -> float:
    """<Z_qubit>, analytically (shots=None) or from a binomial sample.

    Shot mode draws count ~ Binomial(shots, (1+<Z>)/2) and returns
    2*count/shots - 1.  `rng` is a numpy Generator or an integer seed.
    """
    if qubit < 0 or qubit >= state.n_qubits:
        raise ValueError(f"qubit {qubit} outside 0..{state.n_qubits - 1}")
    exact = z_expectation_exact(state, qubit)
    if shots is None:
        return exact
    if shots <= 0:
        raise ValueError("shots must be a positive integer")
    if rng is None:
        raise ValueError("shot mode needs a seeded generator or seed")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    p = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
    count = rng.binomial(shots, p)
    return 2.0 * count / shots - 1.0


def apply_readout_error(p_truth: float, f_g: float, f_e: float) -> float:
    """Probability of reading ground given true ground probability p_truth.

    f_g and f_e are the ground/excited readout fidelities; the optional
    noise-study mode is the only caller.
    """
    if not (0.0 <= f_g <= 1.0 and 0.0 <= f_e <= 1.0):
        raise ValueError("readout fidelities must lie in [0, 1]")
    return f_g * p_truth + (1.0 - f_e) * (1.0 - p_truth)


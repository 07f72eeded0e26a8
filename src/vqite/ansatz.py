"""Builders for the reference parameterized circuits.

Three families are provided: the one-parameter UCC circuit for H2, the
two-parameter UCC circuit for LiH, and the depth-1 hardware-efficient
circuit on two qubits.  Gate lists follow the published operator products
read right-to-left, i.e. the rightmost factor is the first gate applied.

Each parameter carries a derivative descriptor: the derivative of a
rotation gate R_n(t) is (-i/2) sigma_n R_n(t), so differentiating the
full circuit amounts to inserting sigma_n next to the rotation, with the
prefactor DERIVATIVE_PREFACTOR = -i/2 shared by every parameter.
Descriptors place the insertion immediately after the parameterized
gate; sigma_n commutes with its own rotation, so this matches the
operator-product ordering of the A/B matrix elements.

A family's reference state, descriptors and fixed gates are built once,
on first use, and shared by every build; a build makes only its rotation
gates.  A circuit runs its gates once, on first use, through
simulator.run_gates, keeping the read-only tensor after each; state() is
the last one, and a derivative applies sigma_n to the one at its
insertion point and runs only the gates after it.  Insertion points are
non-decreasing, so the Hadamard-test circuits are slices of `gates`.

Note on the UCC exponential forms: with R_n(a) = exp(-i a/2 sigma_n) and
the standard CNOT, the printed H2 gate sequence realizes
exp(-i Y0 X1 theta/2); on the Hartree-Fock reference orbit this is the
exp(-i X0 Y1 t) family with t rescaled by the published 2 theta -> theta
reset and traversed with reversed sign.  The variational manifold is
identical either way; tests pin the realized unitary against a dense
matrix-exponential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .pauli import PauliString, read_only
from .simulator import (Gate, StateVector, basis_state, cnot, rotation_matrix,
                        run_circuit, run_gates, rx, ry)


DERIVATIVE_PREFACTOR = -0.5j


@dataclass(frozen=True, slots=True)
class DerivativeDescriptor:
    """How to differentiate one circuit parameter.

    `insertion_point` is the gate-list index at which `sigma`, a
    full-width Pauli string, is inserted (immediately after the
    parameterized gate), with prefactor DERIVATIVE_PREFACTOR.
    """

    insertion_point: int
    sigma: PauliString


@dataclass(frozen=True)
class AnsatzCircuit:
    """A parameterized circuit with reference state and derivative data."""

    gates: tuple[Gate, ...]
    parameters: np.ndarray
    descriptors: tuple[DerivativeDescriptor, ...]
    reference_state: StateVector
    n_system_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "parameters", np.asarray(self.parameters, dtype=float).reshape(-1)
        )
        if len(self.descriptors) != self.parameters.size:
            raise ValueError("one derivative descriptor per parameter required")
        points = [0, *(d.insertion_point for d in self.descriptors), len(self.gates)]
        if points != sorted(points):
            raise ValueError(f"insertion points not in order within 0..{len(self.gates)}")

    @property
    def n_parameters(self) -> int:
        return self.parameters.size

    @cached_property
    def _forward(self) -> tuple[np.ndarray, ...]:
        """Read-only amplitudes before and after each gate; the last is flat."""
        ref = self.reference_state
        tensors = run_gates([ref.amplitudes.reshape((1,) + (2,) * ref.n_qubits)], self.gates)
        tensors[-1] = tensors[-1].reshape(-1)
        for t in tensors:
            t.flags.writeable = False
        return tuple(tensors)

    def state(self) -> StateVector:
        return StateVector(self._forward[-1])

    def derivative_state(self, i: int) -> np.ndarray:
        """d|psi>/d theta_i as raw amplitudes (not normalized)."""
        desc = self.descriptors[i]
        s = StateVector(desc.sigma.apply(self._forward[desc.insertion_point]))
        s = run_circuit(s, self.gates[desc.insertion_point:])
        return DERIVATIVE_PREFACTOR * s.amplitudes


def _axis_string(axis: str, q: int, n: int) -> PauliString:
    return PauliString("".join(axis if i == q else "I" for i in range(n)))


def _ucc_block(control: int, target: int) -> list:
    """One exponentiated-excitation block; its Rz slot takes the parameter
    itself after the published 2theta -> theta reset."""
    return [ry(target, -np.pi / 2), rx(control, +np.pi / 2), cnot(control, target),
            ("Z", target),
            cnot(control, target), ry(target, +np.pi / 2), rx(control, -np.pi / 2)]


@lru_cache(maxsize=None)
def _template(family: str) -> tuple:
    """(slots, descriptors, reference state) of a family, built once.

    A slot is a fixed gate, shared by every build, or the (axis, qubit)
    of the next parameter's rotation; that parameter's descriptor inserts
    the axis string right after it.
    """
    if family == "ucc-h2":
        slots, bits = _ucc_block(0, 1), "10"
    elif family == "ucc-lih":
        slots, bits = _ucc_block(0, 1) + _ucc_block(0, 2), "100"
    else:
        slots = [("X", 0), ("X", 1), cnot(0, 1), ("Z", 0), ("Z", 1), ("X", 0), ("X", 1)]
        bits = "00"
    descs = tuple(DerivativeDescriptor(k + 1, _axis_string(*slot, len(bits)))
                  for k, slot in enumerate(slots) if isinstance(slot, tuple))
    return tuple(slots), descs, StateVector(read_only(basis_state(bits).amplitudes))


def _build(family: str, theta) -> AnsatzCircuit:
    """The family's circuit at angles theta: only the rotations are new."""
    slots, descs, reference = _template(family)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != len(descs):
        raise ValueError(f"{family} takes {len(descs)} parameters, got {theta.size}")
    angles = iter(theta)
    gates = tuple([slot if isinstance(slot, Gate)
                   else Gate(rotation_matrix(slot[0], float(next(angles))), slot[1])
                   for slot in slots])
    return AnsatzCircuit(gates, theta, descs, reference, reference.n_qubits)


def build_ucc_h2(theta) -> AnsatzCircuit:
    """UCC circuit for H2: 2 system qubits, 1 parameter, reference |10>."""
    return _build("ucc-h2", theta)


def build_ucc_lih(theta) -> AnsatzCircuit:
    """UCC circuit for LiH: 3 system qubits, 2 parameters, reference |100>.

    The theta_1 block (qubits q0, q1) is applied first, then the theta_2
    block (q0, q2), matching the rightmost-first reading of the operator
    product.
    """
    return _build("ucc-lih", theta)


def build_hardware_efficient(theta) -> AnsatzCircuit:
    """Depth-1 hardware-efficient circuit on 2 qubits, reference |00>.

    Six parameters, applied as Rx(t1) Rx(t2) CNOT Rz(t3) Rz(t4) Rx(t5) Rx(t6).
    """
    return _build("he", theta)

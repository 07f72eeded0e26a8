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

A circuit runs its gates once, on first use, through
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
from functools import cached_property

import numpy as np

from .pauli import PauliString
from .simulator import (Gate, StateVector, basis_state, cnot, run_circuit,
                        run_gates, rx, ry, rz)


DERIVATIVE_PREFACTOR = -0.5j


@dataclass(frozen=True)
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
        tensors = run_gates([ref.amplitudes.reshape((2,) * ref.n_qubits)], self.gates)
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


def _ucc_block(control: int, target: int, theta: float) -> list[Gate]:
    """One exponentiated-excitation block; the Rz angle is the parameter
    itself after the published 2theta -> theta reset."""
    return [
        ry(target, -np.pi / 2),
        rx(control, +np.pi / 2),
        cnot(control, target),
        rz(target, theta),
        cnot(control, target),
        ry(target, +np.pi / 2),
        rx(control, -np.pi / 2),
    ]


def build_ucc_h2(theta) -> AnsatzCircuit:
    """UCC circuit for H2: 2 system qubits, 1 parameter, reference |10>."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gates = _ucc_block(0, 1, theta[0])
    desc = DerivativeDescriptor(4, _axis_string("Z", 1, 2))
    return AnsatzCircuit(tuple(gates), theta, (desc,), basis_state("10"), 2)


def build_ucc_lih(theta) -> AnsatzCircuit:
    """UCC circuit for LiH: 3 system qubits, 2 parameters, reference |100>.

    The theta_1 block (qubits q0, q1) is applied first, then the theta_2
    block (q0, q2), matching the rightmost-first reading of the operator
    product.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 2:
        raise ValueError("UCC-LiH takes exactly two parameters")
    gates = _ucc_block(0, 1, theta[0]) + _ucc_block(0, 2, theta[1])
    descs = (
        DerivativeDescriptor(4, _axis_string("Z", 1, 3)),
        DerivativeDescriptor(11, _axis_string("Z", 2, 3)),
    )
    return AnsatzCircuit(tuple(gates), theta, descs, basis_state("100"), 3)


def build_hardware_efficient(theta) -> AnsatzCircuit:
    """Depth-1 hardware-efficient circuit on 2 qubits, reference |00>.

    Six parameters, applied as Rx(t1) Rx(t2) CNOT Rz(t3) Rz(t4) Rx(t5) Rx(t6).
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 6:
        raise ValueError(f"the hardware-efficient ansatz takes 6 parameters, "
                         f"got {theta.size}")
    rotations = ((rx, "X", 0), (rx, "X", 1), (rz, "Z", 0), (rz, "Z", 1),
                 (rx, "X", 0), (rx, "X", 1))
    gates: list[Gate] = []
    descs: list[DerivativeDescriptor] = []
    for k, ((builder, axis, q), value) in enumerate(zip(rotations, theta)):
        if k == 2:
            gates.append(cnot(0, 1))
        gates.append(builder(q, value))
        descs.append(DerivativeDescriptor(len(gates), _axis_string(axis, q, 2)))
    return AnsatzCircuit(tuple(gates), theta, tuple(descs), basis_state("00"), 2)

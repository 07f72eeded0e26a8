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

Each family compiles once into a template, its circuit at zero angles run
through AnsatzCircuit's checks, which holds each branch's join: insertion
point and sigma_n as a signed permutation (src, phase).  A build, at one
angle vector or a (B, gamma) array of B rows, copies it with only the
rotation stack new, from one rotation_matrix call.  One sweep writes the B
forward rows and each branch (sigma_n of the forward rows at its insertion
point) into one (B (1 + gamma), 2^n) buffer, each gate running once over
the rows written so far; states alone sweep the forward rows.  Insertion
points are non-decreasing, so the Hadamard-test circuits are slices of `gates`.

Note on the UCC exponential forms: with R_n(a) = exp(-i a/2 sigma_n) and
the standard CNOT, the printed H2 gate sequence realizes
exp(-i Y0 X1 theta/2); on the Hartree-Fock reference orbit this is the
exp(-i X0 Y1 t) family with t rescaled by the published 2 theta -> theta
reset and traversed with reversed sign.  The variational manifold is
identical either way; tests pin the realized unitary against a dense
matrix-exponential oracle.
"""

from __future__ import annotations

import copy
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .pauli import PAULI_MATRICES, PauliString, _signed_permutation, read_only
from .simulator import (Gate, StateVector, basis_state, check_norms, cnot,
                        rotation_matrix, run_gates, rx, ry)


DERIVATIVE_PREFACTOR = -0.5j


class DerivativeDescriptor(NamedTuple):
    """How to differentiate one circuit parameter.

    `insertion_point` is the gate-list index at which `sigma`, a
    full-width Pauli string, is inserted (immediately after the
    parameterized gate), with prefactor DERIVATIVE_PREFACTOR.
    """

    insertion_point: int
    sigma: PauliString


class AnsatzCircuit:
    """A parameterized circuit with reference state and derivative data, at
    one angle vector (`parameters` of shape (gamma,)) or at B rows of angles
    ((B, gamma); each rotation gate then holds a (B, 2, 2) matrix stack)."""

    def __init__(self, gates: tuple[Gate, ...], parameters,
                 descriptors: tuple[DerivativeDescriptor, ...],
                 reference_state: StateVector, n_system_qubits: int) -> None:
        theta = np.asarray(parameters, dtype=float)
        self.gates, self.descriptors, self.reference_state = gates, descriptors, reference_state
        self.parameters = theta if theta.ndim == 2 else theta.reshape(-1)
        self.n_system_qubits, self._states = n_system_qubits, None
        if len(descriptors) != self.parameters.shape[-1]:
            raise ValueError("one derivative descriptor per parameter required")
        points = [0, *(d.insertion_point for d in descriptors), len(gates)]
        if points != sorted(points):
            raise ValueError(f"insertion points not in order within 0..{len(gates)}")
        self._joins = tuple(   # (insertion point, src, phase) of each branch
            [(d.insertion_point, *_signed_permutation(d.sigma.letters)) for d in descriptors])

    @property
    def n_parameters(self) -> int:
        return self.parameters.shape[-1]

    def _sweep(self, joins) -> np.ndarray:
        """(B (1 + len(joins)), 2^n): the B forward rows, then each join's
        branch, in one buffer; each gate is one per-state matmul over the rows
        written so far, so every row keeps its bytes alone.  The first sweep's
        forward rows, norm-checked, are states()."""
        ref, rows = self.reference_state, len(self.parameters) if self.parameters.ndim == 2 else 1
        shape = (-1,) + (2,) * ref.n_qubits
        stack = np.empty((rows * (1 + len(joins)), ref.amplitudes.size), dtype=complex)
        stack[:rows], k, end = ref.amplitudes, 0, rows
        for point, src, phase in joins:
            head = stack[:end].reshape(shape)
            head[...] = run_gates(head, self.gates[k:point], per_state=True)
            np.multiply(phase, stack[:rows].take(src, axis=1), out=stack[end:end + rows])
            k, end = point, end + rows
        stack = run_gates(stack.reshape(shape), self.gates[k:], per_state=True).reshape(end, -1)
        psi = stack[:rows]          # its norms as np.linalg.norm sums them
        check_norms(np.sqrt(np.add.reduce((psi.conj() * psi).real, axis=1)))
        if self._states is None:
            self._states = read_only(psi)
        return stack

    def states(self) -> np.ndarray:
        """(B, 2^n) read-only amplitudes, one row per angle row: the head of
        the derivative sweep if it ran first, else a sweep of the B rows."""
        if self._states is None:
            self._sweep(())
        return self._states

    def state(self) -> StateVector:
        """The state of a circuit at one angle vector."""
        return StateVector(self.states().reshape(-1))

    @cached_property
    def derivatives(self) -> np.ndarray:
        """(gamma, B, 2^n) read-only d|psi>/d theta_i of every row (not
        normalized), from one sweep of the forward rows and every branch."""
        stack, rows = self._sweep(self._joins), len(self.states())
        return read_only(DERIVATIVE_PREFACTOR * stack[rows:].reshape(-1, rows, stack.shape[1]))

    def derivative_state(self, i: int) -> np.ndarray:
        """d|psi>/d theta_i of a circuit at one angle vector (not normalized)."""
        return self.derivatives[i, 0]


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
    """(checked circuit at zero angles, rotation slots, rotation axes) of a
    family.  A slot is a fixed gate, shared by every build, or the (axis,
    qubit) of the next parameter's rotation, whose descriptor inserts the
    axis string right after it; the axes stack the rotations' Paulis."""
    if family == "ucc-h2":
        slots, bits = _ucc_block(0, 1), "10"
    elif family == "ucc-lih":
        slots, bits = _ucc_block(0, 1) + _ucc_block(0, 2), "100"
    else:
        slots = [("X", 0), ("X", 1), cnot(0, 1), ("Z", 0), ("Z", 1), ("X", 0), ("X", 1)]
        bits = "00"
    rotations = [(k, slot) for k, slot in enumerate(slots) if isinstance(slot, tuple)]
    descs = tuple(DerivativeDescriptor(k + 1, _axis_string(*slot, len(bits)))
                  for k, slot in rotations)
    axes = read_only(np.array([PAULI_MATRICES[axis] for _, (axis, _) in rotations]))
    gates = tuple(Gate(rotation_matrix(s[0], 0.0), s[1]) if isinstance(s, tuple) else s
                  for s in slots)
    reference = StateVector(read_only(basis_state(bits).amplitudes))
    return (AnsatzCircuit(gates, np.zeros(len(descs)), descs, reference, len(bits)),
            tuple(k for k, _ in rotations), axes)


def _build(family: str, theta) -> AnsatzCircuit:
    """The family's circuit at angles theta, a vector or a (B, gamma) array
    of B rows: the checked template with new rotations, each a (2, 2)
    matrix or a (B, 2, 2) stack."""
    template, rotations, axes = _template(family)
    theta = np.asarray(theta, dtype=float)
    theta = theta if theta.ndim == 2 else theta.reshape(-1)
    if theta.shape[-1] != len(rotations):
        raise ValueError(f"{family} takes {len(rotations)} parameters, got {theta.shape[-1]}")
    gates = list(template.gates)
    for k, matrix in zip(rotations, rotation_matrix(axes, theta).swapaxes(-3, 0)):
        gates[k] = Gate(matrix, gates[k].target)
    circuit = copy.copy(template)    # the template's checks hold; it is never swept
    circuit.gates, circuit.parameters = tuple(gates), theta
    return circuit


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

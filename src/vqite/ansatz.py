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

A circuit is a fixed gate program plus one rotation stack, the matrices
of the gates just before the insertion points.  Each family compiles once
into a template, its circuit at zero angles; a build, at one angle vector
or a (B, gamma) array of B rows, is the template with the rotation stack
of one rotation_matrix call, its `gates` made only when read.  One sweep
writes the B forward rows and each branch (sigma_n of the forward rows at
its insertion point) into one buffer, only by joins and copies, each gate
running once over the rows written so far; a QITE run records the numpy
calls of its first sweep and repeats them at each iteration's rotation
stack (mclachlan.ExactRun).  Insertion points are increasing, so the
Hadamard-test circuits are slices of `gates`.

Note on the UCC exponential forms: with R_n(a) = exp(-i a/2 sigma_n) and
the standard CNOT, the printed H2 gate sequence realizes
exp(-i Y0 X1 theta/2); on the Hartree-Fock reference orbit this is the
exp(-i X0 Y1 t) family with t rescaled by the published 2 theta -> theta
reset and traversed with reversed sign.  The variational manifold is
identical either way; tests pin the realized unitary against a dense
matrix-exponential oracle.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .pauli import PAULI_MATRICES, PauliString, _signed_permutation, read_only
from .simulator import (Gate, StateVector, apply_planned, basis_state, call, check_unit,
                        cnot, dot_rounds_apart, gate_plan, rotation_matrix, rx, ry)


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
    ((B, gamma)).  Its steps are per gate (matrix, or index into the
    (gamma, [B,] 2, 2) rotation stack for a rotation; gate_plan) and per
    descriptor a join (None, sigma_i as _join gives it)."""

    def __init__(self, gates: tuple[Gate, ...], parameters,
                 descriptors: tuple[DerivativeDescriptor, ...],
                 reference_state: StateVector) -> None:
        theta = np.asarray(parameters, dtype=float)
        self.parameters = theta if theta.ndim == 2 else theta.reshape(-1)
        self.descriptors, self.reference_state = descriptors, reference_state
        if len(descriptors) != self.n_parameters:
            raise ValueError("one derivative descriptor per parameter required")
        points = [0, *(d.insertion_point for d in descriptors), len(gates) + 1]
        if any(a >= b for a, b in zip(points, points[1:])):   # each after its own rotation
            raise ValueError(f"insertion points not increasing within 1..{len(gates)}")
        self._fixed, rotated = tuple(gates), [gates[p - 1] for p in points[1:-1]]
        self._rotations = read_only(np.array([g.matrix for g in rotated]))
        self._axes = read_only(np.array([PAULI_MATRICES[d.sigma.letters[g.target]] for g, d
                                         in zip(rotated, descriptors)]).reshape(-1, 2, 2))
        self._steps = _program(self._fixed, tuple(descriptors), reference_state.n_qubits)

    @property
    def n_system_qubits(self) -> int:
        return self.reference_state.n_qubits

    @property
    def n_parameters(self) -> int:
        return self.parameters.shape[-1]

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gate sequence, made when read: the fixed gates, shared by every
        build, and a Gate on each rotation matrix (or stack)."""
        gates = list(self._fixed)
        for k, matrix in zip((d.insertion_point - 1 for d in self.descriptors), self._rotations):
            gates[k] = Gate(matrix, gates[k].target, gates[k].control)
        return tuple(gates)

    def sweep(self, rotations, stack: np.ndarray, branches: bool, calls=None) -> None:
        """Write the B forward rows at the rotation stack `rotations`, then with
        `branches` each join's branch, into the head of `stack` (an (S, 2^n) array
        owning its memory), and record each numpy call into `calls`; the caller
        checks the rows' norms.  A gate runs by its _program plan into an array of
        its own, each row keeping its bytes alone; a copy brings it into the buffer."""
        rows = len(self.parameters) if self.parameters.ndim == 2 else 1
        tensors = stack.reshape((-1,) + (2,) * self.n_system_qubits)   # one tensor per row
        call(calls, stack[:rows].__setitem__, ..., self.reference_state.amplitudes)
        t, end = tensors[:rows], rows
        for source, step in self._steps:
            if source is not None:
                t = apply_planned(t, source if isinstance(source, np.ndarray)
                                  else rotations[source], step, calls)
            elif branches:
                if t.base is not stack:   # back into the buffer, in natural order
                    call(calls, tensors[:end].__setitem__, ..., t)
                call(calls, np.multiply, step[1], tensors[:rows][step[0]], tensors[end:end + rows])
                end += rows
                t = tensors[:end]
        if t.base is not stack:
            call(calls, tensors[:end].__setitem__, ..., t)

    def _sweep(self, branches: bool) -> np.ndarray:
        """The sweep into a read-only buffer of its own, (1 [+ gamma], B, 2^n)."""
        rows = len(self.parameters) if self.parameters.ndim == 2 else 1
        stack = np.empty((rows * (1 + branches * self.n_parameters),
                          self.reference_state.amplitudes.size), dtype=complex)
        self.sweep(self._rotations, stack, branches)
        check_unit(stack[:rows])
        return read_only(stack.reshape(-1, rows, stack.shape[1]))

    def states(self) -> np.ndarray:
        """(B, 2^n) read-only amplitudes, one row per angle row, from a sweep
        of the B rows."""
        return self._sweep(False)[0]

    def state(self) -> StateVector:
        """The state of a circuit at one angle vector."""
        return StateVector(self.states().reshape(-1))

    @cached_property
    def derivatives(self) -> np.ndarray:
        """(gamma, B, 2^n) read-only d|psi>/d theta_i of every row (not
        normalized), from one sweep of the forward rows and every branch."""
        return read_only(DERIVATIVE_PREFACTOR * self._sweep(True)[1:])

    def derivative_state(self, i: int) -> np.ndarray:
        """d|psi>/d theta_i of a circuit at one angle vector (not normalized)."""
        return self.derivatives[i, 0]


@lru_cache(maxsize=8)
def _program(gates, descriptors, n: int, axes: int = 1) -> list:
    """The sweep steps of a circuit on n qubits: per gate its matrix (or, for
    the gate before descriptor i's insertion point, i) and gate_plan, each
    after a join (None, sigma_i as (src, phase)) per descriptor there.  A
    rotation runs per state (one stack axis) or per row (two, (B rows, K
    states)), a shared gate as one np.dot, but per state on one axis where
    the width rule (dot_rounds_apart) holds."""
    slots, steps = {d.insertion_point - 1: i for i, d in enumerate(descriptors)}, []
    for k, gate in enumerate((*gates, None)):
        steps += [(None, _join(d.sigma.letters)) for d in descriptors if d.insertion_point == k]
        if gate is not None:
            per_state = k in slots or axes == 1 and dot_rounds_apart(n, gate.control is not None)
            steps.append((slots.get(k, gate.matrix), gate_plan(gate, n, per_state, axes)))
    return steps


def _join(letters: str) -> tuple:
    """sigma as (index, phase) on state tensors, their qubits last: the
    signed permutation's src, j ^ xmask, reverses the axis of each X or Y."""
    flips = [slice(None, None, -1 if c in "XY" else 1) for c in letters]
    return (..., *flips), _signed_permutation(letters)[1].reshape((2,) * len(letters))


def _ucc_block(control: int, target: int) -> list:
    """One exponentiated-excitation block; its Rz slot takes the parameter
    itself after the published 2theta -> theta reset."""
    return [ry(target, -np.pi / 2), rx(control, +np.pi / 2), cnot(control, target),
            ("Z", target),
            cnot(control, target), ry(target, +np.pi / 2), rx(control, -np.pi / 2)]


@lru_cache(maxsize=None)
def _template(family: str) -> tuple:
    """The fields of a family's checked circuit at zero angles.  A slot is a
    fixed gate, shared by every build, or the (axis, qubit) of the next
    parameter's rotation, whose descriptor inserts the axis string right
    after it (and gives the rotation's Pauli to the axes)."""
    if family == "ucc-h2":
        slots, bits = _ucc_block(0, 1), "10"
    elif family == "ucc-lih":
        slots, bits = _ucc_block(0, 1) + _ucc_block(0, 2), "100"
    else:
        slots = [("X", 0), ("X", 1), cnot(0, 1), ("Z", 0), ("Z", 1), ("X", 0), ("X", 1)]
        bits = "00"
    descs = tuple(DerivativeDescriptor(k + 1, PauliString("".join(
                      slot[0] if q == slot[1] else "I" for q in range(len(bits)))))
                  for k, slot in enumerate(slots) if isinstance(slot, tuple))
    gates = tuple(Gate(rotation_matrix(s[0], 0.0), s[1]) if isinstance(s, tuple) else s
                  for s in slots)
    reference = StateVector(read_only(basis_state(bits).amplitudes))
    return vars(AnsatzCircuit(gates, np.zeros(len(descs)), descs, reference))


def _build(family: str, theta) -> AnsatzCircuit:
    """The family's circuit at angles theta, a vector or a (B, gamma) array
    of B rows: the template's fields with its rotation stack."""
    template, theta = _template(family), np.asarray(theta, dtype=float)
    axes = template["_axes"]
    theta = theta if theta.ndim == 2 else theta.reshape(-1)
    if theta.shape[-1] != len(axes):
        raise ValueError(f"{family} takes {len(axes)} parameters, got {theta.shape[-1]}")
    circuit = object.__new__(AnsatzCircuit)
    circuit.__dict__.update(template, parameters=theta,
                            _rotations=read_only(rotation_matrix(axes, theta).swapaxes(-3, 0)))
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

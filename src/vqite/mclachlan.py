"""Estimation of the McLachlan linear system A theta-dot = B.

Two interchangeable routes are provided.  The exact route evaluates the
defining inner products directly on statevectors:

    A_ij = Re <d_i psi | d_j psi>
    B_i  = -Re <d_i psi | H | psi>

with |d_i psi> built from the ansatz derivative descriptors, for one
circuit or for the B rows of a batched one at once (A and B stacked): one
product per pair i <= j and per B entry.  ExactRun makes once per run what
does not depend on theta (its term columns and weighted terms, the pair
indices, one buffer that each call sweeps at new angles, its first sweep
recorded, then repeated) and gives H|psi> for the energies; compute_exact is
one call of it.  The Hadamard route expands the same sums into one ancilla
test circuit per A entry and per (Hamiltonian term, B entry); the ancilla
is prepared in (|0> + e^{i phi} |1>)/sqrt(2) with phi absorbing the complex
prefactor of the summand, and the ancilla Z expectation then yields the
summand's real part.  A test circuit is three slices of the ansatz gate
tuple with controlled Pauli gates between them.  Up to its closing H it is
two system-qubit half-states, one per ancilla branch, and its jobs share
them: one estimate (hadamard_z), for one circuit or the B rows of a batched
one, sweeps each ansatz gate once over the distinct half-states; each row
draws from its own generator, every value and draw bitwise that of the
test run alone.  Evaluated without sampling, the two routes agree to
machine precision; with shots they agree statistically.

The linear solve uses an eigenvalue pseudo-inverse with a relative cutoff
(1e-8 exact route, 1e-3 shot route, where noise inflates the small
eigenvalues), one stacked eigh for all rows (one row is a stack of one);
a fully degenerate A yields a zero update flagged as stationary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit, _program
from .pauli import PauliHamiltonian, _term_stack, apply_sums, term_columns, weighted_terms
from .simulator import (Gate, StateVector, apply_planned, check_norms, controlled_pauli,
                        hadamard, measure_z_expectation, rotation_matrix, run_gates, x)

EXACT_EIG_CUTOFF = 1e-8
SHOT_EIG_CUTOFF = 1e-3
PASS_ROWS = 8                       # rows per measured pass of hadamard_z
ABS_EIG_FLOOR = 1e-12


class McLachlanSystem(NamedTuple):
    """A and B of the variational linear system, with their provenance."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    route: str = "exact"            # "exact" or "hadamard"
    shots: int | None = None


class HadamardTestCircuit(NamedTuple):
    """One ancilla test: phased ancilla, gate list, Z measurement.

    The ancilla, the last qubit, is prepared in (|0> + e^{i ancilla_phase}
    |1>)/sqrt(2) and measured; the system qubits start in `system_reference`.
    """

    gates: tuple[Gate, ...]
    ancilla_phase: float
    system_reference: StateVector


class HadamardJob(NamedTuple):
    """A test circuit plus its weight and destination entry."""

    circuit: HadamardTestCircuit
    weight: float
    destination: tuple              # ("A", i, j) with i <= j, or ("B", i)


def compute_exact(ansatz: AnsatzCircuit, h) -> McLachlanSystem:
    """A and B by direct statevector inner products (ExactRun), for a circuit
    at one angle vector and its Hamiltonian, or at B angle rows and B
    Hamiltonians (A and B stacked)."""
    batch = ansatz.parameters.ndim == 2
    _, a, b, _ = ExactRun(ansatz, h if batch else [h])()
    return McLachlanSystem(a if batch else a[0], b if batch else b[0])


class ExactRun:
    """The exact route over B fixed Hamiltonians, made once per run: the row
    checks, their term columns and weighted terms, the pair indices and one
    buffer.  A call at (B, gamma) angles is the circuit's rotation stack
    rewritten, one sweep into the buffer (the first call in each mode records
    its numpy calls, later ones repeat them), one H|psi> gather and one pair
    product of (1, L) @ (L, 1) matmuls, bitwise np.vdot: (states, A, B,
    H|psi>), or the states alone without `system`, as views of the buffer
    until the next call."""

    def __init__(self, ansatz: AnsatzCircuit, hs) -> None:
        _check_rows(ansatz, hs := list(hs))
        n, gamma, rows = ansatz.n_system_qubits, ansatz.n_parameters, len(hs)
        self.ansatz, self.pairs, self.programs = ansatz, _pairs(gamma), {}
        self.columns = term_columns(hs)
        self.terms = weighted_terms(*self.columns, n)
        self.stack = np.empty(((gamma + 2) * rows, 2 ** n), dtype=complex)
        # the forward rows, then each d_i and H|psi>; the rotations calls rewrite
        self.psi, self.kets = self.stack[:rows], self.stack[rows:].reshape(gamma + 1, rows, -1)
        self.rotations = np.array(ansatz._rotations)

    def __call__(self, theta=None, system: bool = True) -> tuple:
        if theta is not None:   # new angles of the circuit's rotations
            rotation_matrix(self.ansatz._axes, theta, self.rotations.swapaxes(0, -3))
        if system in self.programs:
            for function, args in self.programs[system]:
                function(*args)
        else:   # the first sweep records its numpy calls for the next ones
            self.ansatz.sweep(self.rotations, self.stack, system,
                              self.programs.setdefault(system, []))
        if not system:
            return self.psi, None, None, None
        kets, (bra, ket, a_cols, b_cols, *_) = self.kets, self.pairs
        np.multiply(DERIVATIVE_PREFACTOR, kets[:-1], out=kets[:-1])   # branch i -> d_i
        apply_sums(*self.columns, self.psi, self.terms, kets[-1])
        # v[b, k] = <d_i|d_j> of the k-th pair i <= j, then <d_i|H|psi>, of row b;
        # take makes A and B C-contiguous, as BLAS must read them
        v = (kets[bra].conj()[:, :, None, :] @ kets[ket][:, :, :, None])[..., 0, 0].real.T
        return self.psi, v.take(a_cols, axis=1), -v.take(b_cols, axis=1), kets[-1]


@lru_cache(maxsize=16)
def _pairs(gamma: int) -> tuple[np.ndarray, ...]:
    """(bra, ket) indices of the A pairs (i, j), i <= j, then of (i, gamma)
    for B; the pair of each A entry and of each B entry; the A pairs' i and j."""
    i, j = np.triu_indices(gamma)
    a_cols = np.empty((gamma, gamma), dtype=np.intp)
    a_cols[i, j] = a_cols[j, i] = np.arange(len(i))
    return np.r_[i, :gamma], np.r_[j, [gamma] * gamma], a_cols, len(i) + np.arange(gamma), i, j


def _layout(gamma: int, coeffs: list[float]) -> list:
    """Each A/B summand of one row with `gamma` parameters and Hamiltonian
    coefficients `coeffs`, in job order, as (word, phase, weight,
    destination).  Its circuit cuts the ansatz gates g at the insertion
    points p_i (ctrl, anti and final of _inserted_gates):

    A(i, j), i <= j: g[:p_i] + anti_i + g[p_i:p_j] + ctrl_j + g[p_j:] + final,
    no word, prefactor conj(p) p.  B(i, l): g[:p_i] + anti_i + g[p_i:] +
    c-h_l + final, word l (the l-th Hamiltonian word controlled on the
    ancilla), prefactor -conj(p) h_l.  p is DERIVATIVE_PREFACTOR; phase and
    weight are the prefactor's angle and modulus.
    """
    p = DERIVATIVE_PREFACTOR
    sums = [(float(np.angle(c)), float(abs(c)))
            for c in [np.conj(p) * p] + [-np.conj(p) * h_l for h_l in coeffs]]
    jobs = [(None, *sums[0], ("A", i, j)) for i in range(gamma) for j in range(i, gamma)]
    return jobs + [(l, *sums[l + 1], ("B", i)) for i in range(gamma) for l in range(len(coeffs))]


def _check_rows(ansatz: AnsatzCircuit, hs) -> None:
    rows = len(ansatz.parameters) if ansatz.parameters.ndim == 2 else 1
    if len(hs) != rows:
        raise ValueError(f"{rows} angle rows but {len(hs)} Hamiltonians")
    if any(h.n_qubits != ansatz.n_system_qubits for h in hs):
        raise ValueError("ansatz and Hamiltonian qubit counts disagree")


def build_hadamard_circuits(ansatz: AnsatzCircuit,
                            h: PauliHamiltonian) -> list[HadamardJob]:
    """One weighted test circuit per A/B summand of _layout."""
    _check_rows(ansatz, [h])
    n, g, descs = ansatz.n_system_qubits, tuple(ansatz.gates), ansatz.descriptors
    ctrl = [tuple(controlled_pauli(n, range(n), d.sigma.letters)) for d in descs]
    anti, final = [(x(n), *c, x(n)) for c in ctrl], (hadamard(n),)
    tails = [tuple(controlled_pauli(n, range(n), w)) for w in h.words]
    pts, jobs = [d.insertion_point for d in descs], []
    for word, phase, weight, (kind, i, *j) in _layout(len(descs), h.coeffs.tolist()):
        pj, tail = (pts[j[0]], ctrl[j[0]] + g[pts[j[0]]:]) if j else (len(g), tails[word])
        gates = g[:pts[i]] + anti[i] + g[pts[i]:pj] + tail + final
        jobs.append(HadamardJob(HadamardTestCircuit(gates, phase, ansatz.reference_state),
                                weight, (kind, i, *j)))
    return jobs


@lru_cache(maxsize=2)
def _table(descriptors, n: int, labels: tuple[str, ...], rows: int, coeff_bytes: bytes) -> tuple:
    """The Hadamard jobs of B rows whose Hamiltonians have the (B, L)
    coefficients `coeff_bytes` over the union words `labels` (term_columns),
    compiled once per run for hadamard_z: they depend only on these values
    and the ansatz family.  (phases, head, zero, one, words, src, sign, entry,
    weight, sizes).  A row's terms are its nonzero coefficients.

    Each row sweeps K = head + 2 gamma half-states of the system qubits,
    one ancilla branch each: F0 = ref/sqrt(2) (ancilla 0), F1 = e^{i phi}
    ref/sqrt(2) (ancilla 1) per distinct phase phi, the A phase first, and
    on 2 qubits a copy of F0 if that makes K even; then per descriptor j
    B_j = sigma_j F0 and C_j = sigma_j F1[A phase], joined at p_j.  Job k of
    all rows, in row-major job order, takes half-state zero[k] (row b's
    B_i, b K + head + 2 i) for ancilla 0 and one[k] for ancilla 1: C_j for
    A(i, j), F1 of its phase for B(i, l), gathered through union word
    words[k] (-1: the identity appended to the word stack).  It adds its
    weighted value to entry[k] of A (B, gamma, gamma) and then B (B, gamma),
    flattened.  sizes: each row's job count."""
    gamma, coeffs = len(descriptors), np.frombuffer(coeff_bytes).reshape(rows, len(labels))
    kept = [np.flatnonzero(c).tolist() for c in coeffs]
    jobs = [_layout(gamma, c[k].tolist()) for c, k in zip(coeffs, kept)]
    phases = list(dict.fromkeys([job[1] for row in jobs for job in row]))
    head = 1 + len(phases)
    head += head % 2 * (n < 3)      # K even: see hadamard_z
    cols, width = [], head + 2 * gamma
    for b, (k, row) in enumerate(zip(kept, jobs)):
        cols += [(b * width + head + 2 * i,
                  b * width + (head + 2 * j[0] + 1 if j else 1 + phases.index(phase)),
                  -1 if word is None else k[word],
                  (b * gamma + i) * gamma + j[0] if j else (rows * gamma + b) * gamma + i, w)
                 for word, phase, w, (kind, i, *j) in row]
    zero, one, words, entry = np.array([c[:4] for c in cols], dtype=np.intp).T
    return (phases, head, zero, one, words, *_term_stack((*labels, "I" * n), n), entry,
            np.array([c[4] for c in cols]), [len(row) for row in jobs])


def _start(ref: StateVector, phases) -> np.ndarray:
    """ref (x) (|0> + e^{i phi} |1>)/sqrt(2) per phase, a norm-checked tensor stack."""
    amps = np.stack([ref.amplitudes[:, None] * (np.array([1.0, np.exp(1j * phi)], dtype=complex)
                                                / np.sqrt(2.0)) for phi in phases])
    check_norms(np.linalg.norm(amps.reshape(len(phases), -1), axis=1))
    return amps.reshape((len(phases),) + (2,) * (ref.n_qubits + 1))


def evaluate_circuit(circuit: HadamardTestCircuit, shots: int | None = None,
                     rng=None) -> float:
    """Run one test circuit and return the ancilla Z expectation."""
    start = _start(circuit.system_reference, [circuit.ancilla_phase])
    return float(measure_z_expectation(run_gates(start, circuit.gates), shots, rng)[0])


def hadamard_z(ansatz: AnsatzCircuit, h, shots: int | None = None, rng=None) -> tuple:
    """(_table of the rows, ancilla <Z> of every job) of a circuit at one
    angle vector and its Hamiltonian, or at B angle rows and B Hamiltonians;
    `rng` lists one Generator (or seed) per row, or is None for shots=None.

    Until the closing H the ansatz acts on each ancilla branch of a test
    alone.  One forward sweep runs each ansatz gate once over the (B, K)
    stack of the rows' distinct half-states (_table): a (B, 2, 2) rotation
    as one matmul per row over its K half-states, a shared gate as one
    np.dot, each join a signed permutation.  Then, PASS_ROWS rows at a time,
    each job's state is built from its two half-states (a B job's word
    gathered on the ancilla-1 one; products by +-1 or +-i are exact), and
    the final H and the draws run, each row drawing in its job order.  A
    job's gate on its own state is a product 2^n wide, and BLAS rounds every
    width that is a multiple of 4 alike (not 2 K on 2 qubits with K odd,
    hence K even there), so each value and draw is bitwise that of the
    job's circuit run alone.
    """
    batch = ansatz.parameters.ndim == 2
    hs, n = list(h) if batch else [h], ansatz.n_system_qubits
    _check_rows(ansatz, hs)
    labels, coeffs = term_columns(hs)
    table = _table(ansatz.descriptors, n, labels, len(hs), coeffs.tobytes())
    phases, head, zero, one, words, src, sign, *_, sizes = table
    amps = _start(ansatz.reference_state, phases).reshape(len(phases), -1, 2)
    halves = np.concatenate([amps[:1, :, 0], amps[:, :, 1], amps[:head - 1 - len(phases), :, 0]])
    t = halves[None].repeat(len(hs), axis=0).reshape((len(hs), head) + (2,) * n)
    for source, step in _program(ansatz._fixed, ansatz.descriptors, n, 2):
        if source is None:      # B_j, C_j: sigma_j of F0 and F1[A phase]
            t = np.concatenate([t, step[1] * t[:, :2][step[0]]], axis=1)
        else:
            t = apply_planned(t, source if isinstance(source, np.ndarray)
                              else ansatz._rotations[source], step)
    t, ends, values, final = t.reshape(-1, 2 ** n), np.cumsum([0, *sizes]), [], (hadamard(n),)
    for r in range(0, len(hs), PASS_ROWS):
        ks = slice(ends[r], ends[min(r + PASS_ROWS, len(hs))])
        out = np.stack([t[zero[ks]], sign[words[ks]] * t[one[ks, None], src[words[ks]]]], -1)
        out = run_gates(out.reshape((len(out),) + (2,) * (n + 1)), final)
        values.append(measure_z_expectation(out, shots, rng and rng[r:r + PASS_ROWS],
                                            sizes[r:r + PASS_ROWS]))
    return table, np.concatenate(values)


def compute_sampled(ansatz: AnsatzCircuit, h, shots: int | None,
                    seed=None) -> McLachlanSystem:
    """A and B from the Hadamard-test circuits (hadamard_z), for one angle
    vector and Hamiltonian or for B rows (A and B stacked).

    shots=None evaluates every circuit analytically (the exact-mode
    switch); otherwise each ancilla expectation is a binomial estimate
    with the given shot count, drawn from `seed` (ValueError if missing):
    an integer seed or a numpy Generator, then drawn from in place, one
    per row for a batch.  A and B add the weighted values from 0.0 in job order.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1 (or None for exact mode)")
    batch, gamma = ansatz.parameters.ndim == 2, ansatz.n_parameters
    seeds = seed if batch and seed is not None else [seed]
    if shots is not None and any(s is None for s in seeds):
        raise ValueError("shot mode needs a seed or generator for every row")
    rng = None if shots is None else list(map(np.random.default_rng, seeds))
    (*_, entry, weight, sizes), values = hadamard_z(ansatz, h, shots, rng)
    ab, cut = np.zeros(len(sizes) * (gamma + 1) * gamma), len(sizes) * gamma * gamma
    np.add.at(ab, entry, weight * values)
    a, (*_, i, j) = ab[:cut].reshape(-1, gamma, gamma), _pairs(gamma)
    a[:, j, i] = a[:, i, j]
    b = ab[cut:].reshape(-1, gamma)
    return McLachlanSystem(a if batch else a[0], b if batch else b[0], "hadamard", shots)


class UpdateResult(NamedTuple):
    delta_theta: np.ndarray
    stationary: bool


def solve_update(sys: McLachlanSystem, dtau) -> UpdateResult:
    """delta theta = dtau * pinv(A) B via eigen-decomposition, for one system
    or a stack (A of shape (..., gamma, gamma), dtau a scalar or one per
    system): one stacked eigh, bitwise per system.  Eigenvalues below the
    route's relative cutoff times the max eigenvalue are dropped; if the
    whole spectrum sits below the absolute floor the update is zero and the
    result is flagged stationary.  For a 1x1 system this is (B/A) * dtau.
    """
    dtau = np.asarray(dtau, dtype=float)
    if not all(0 < t < np.inf for t in dtau.ravel().tolist()):  # NaN fails too
        raise ValueError("dtau must be positive and finite")
    eps_cut = SHOT_EIG_CUTOFF if (sys.route == "hadamard" and sys.shots) else EXACT_EIG_CUTOFF
    lam, vec = np.linalg.eigh(sys.a_matrix)
    lam_max = lam[..., -1:]                     # eigh sorts ascending
    keep = lam > eps_cut * lam_max
    inv = keep / np.where(keep, lam, 1.0)       # 1/lam where kept, else 0.0
    coef = inv[..., None] * (vec.swapaxes(-1, -2) @ sys.b_vector[..., None])
    delta = dtau[..., None] * (vec @ coef)[..., 0]
    stationary = lam_max[..., 0] < ABS_EIG_FLOOR
    delta[stationary] = 0.0
    return UpdateResult(delta, stationary)

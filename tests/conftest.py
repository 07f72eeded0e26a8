import contextlib
import ctypes
import hashlib
import io
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest

from vqite import (PauliHamiltonian, PauliString, build_hadamard_circuits, hamiltonian_at,
                   load_h2_synthetic_table, load_lih_table)
from vqite.mclachlan import McLachlanSystem
from vqite.pauli import _merge_plan, _signed_permutation, apply_sums, weighted_terms


@pytest.fixture(scope="session")
def lih_table():
    return load_lih_table()


@pytest.fixture(scope="session")
def h2_table():
    return load_h2_synthetic_table()


@pytest.fixture(scope="session")
def lih_r15(lih_table):
    return hamiltonian_at(lih_table, 1.5)


@pytest.fixture(scope="session")
def h2_r07(h2_table):
    return hamiltonian_at(h2_table, 0.7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, n_qubits):
    amps = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return amps / np.linalg.norm(amps)


def random_hamiltonian_pairs(rng, n_qubits, n_terms):
    """Random real Pauli sum as (coefficient, letters) pairs."""
    letters = "IXYZ"
    pairs = []
    for _ in range(n_terms):
        word = "".join(rng.choice(list(letters)) for _ in range(n_qubits))
        pairs.append((float(rng.normal()), word))
    return pairs


PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}


def pauli_kron(word):
    """Dense matrix of a Pauli word: Kronecker product, letter 0 outermost."""
    return embed({q: PAULI[c] for q, c in enumerate(word)}, len(word))


def embed(ops, n_qubits):
    """Kronecker product with ops[q] on qubit q and identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for q in range(n_qubits):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def gate_unitary(gate, n_qubits):
    """Dense 2^n x 2^n unitary of one gate by Kronecker embedding:
    |0><0|_c (x) I + |1><1|_c (x) M_t for a controlled gate."""
    if gate.control is None:
        return embed({gate.target: gate.matrix}, n_qubits)
    return (embed({gate.control: np.diag([1.0, 0.0])}, n_qubits)
            + embed({gate.control: np.diag([0.0, 1.0]), gate.target: gate.matrix},
                    n_qubits))


def circuit_unitary(gates, n_qubits):
    """Dense unitary of a whole gate list."""
    u = np.eye(2 ** n_qubits, dtype=complex)
    for g in gates:
        u = gate_unitary(g, n_qubits) @ u
    return u


def tensordot_on_axis(t, m, q):
    """2x2 matrix m on axis q of an amplitude tensor by np.tensordot and
    np.moveaxis: the form the gate kernel must match bitwise and in layout."""
    return np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)


def tensordot_gate(t, gate):
    """One gate on an amplitude tensor through tensordot_on_axis; a
    controlled gate acts on the control=|1> slice of a copy."""
    if gate.control is None:
        return tensordot_on_axis(t, gate.matrix, gate.target)
    t = t.copy()
    branch = (slice(None),) * gate.control + (1,)
    t[branch] = tensordot_on_axis(t[branch], gate.matrix,
                                  gate.target - (gate.target > gate.control))
    return t


def apply_word(letters, amplitudes):
    """A Pauli word applied to the last axis of (..., 2^n) amplitudes through
    its signed permutation, without building the matrix."""
    src, phase = _signed_permutation(letters)
    return phase * np.asarray(amplitudes, dtype=complex).take(src, axis=-1)


def apply(h, amplitudes):
    """H |psi>, as apply_sums of one row."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(1, 2 ** h.n_qubits)
    return apply_sums(weighted_terms(h.words, h.coeffs[None], h.n_qubits), psi)[0]


def term_loop(h, psi):
    """H|psi> as a loop over the terms, summed from zero."""
    out = np.zeros(psi.shape, dtype=complex)
    for c, word in zip(h.coeffs.tolist(), h.words):
        out += c * apply_word(word, psi)
    return out


def coefficient(h, letters):
    """Coefficient of one Pauli word in a Hamiltonian, 0.0 when absent."""
    return float(h.coeffs[h.words.index(letters)]) if letters in h.words else 0.0


def from_pairs(pairs, n_qubits=None):
    """A PauliHamiltonian from (coefficient, letters) pairs."""
    pairs = list(pairs)
    return PauliHamiltonian([w for _, w in pairs], [c for c, _ in pairs], n_qubits)


def term_columns(hamiltonians):
    """The sorted union of the words of B Hamiltonians and their (B, L)
    coefficients, 0.0 where a Hamiltonian lacks the word: the merge plan of
    all their words gives each coefficient its column.  The oracle of the
    stacked PauliHamiltonian constructor."""
    hs = list(hamiltonians)
    labels, column = _merge_plan(tuple(chain.from_iterable([h.words for h in hs])), hs[0].n_qubits)
    coeffs = np.zeros((len(hs), len(labels)))
    coeffs[np.arange(len(hs)).repeat([len(h.words) for h in hs]), column] = np.concatenate(
        [h.coeffs for h in hs])
    return labels, coeffs


def stacked(hamiltonians):
    """One-row Hamiltonians joined into one stack over the union of their words."""
    hs = list(hamiltonians)
    return PauliHamiltonian(*term_columns(hs), hs[0].n_qubits)


def row_views(h):
    """The one-row Hamiltonians of the rows of a stack."""
    return [PauliHamiltonian(h.words, c, h.n_qubits) for c in h.coeffs]


def canonical_oracle(pairs, n_qubits=0):
    """The canonical form of (coefficient, letters) pairs by a dict merge, the
    reference for PauliHamiltonian's constructor: (words, coefficients) with
    duplicates added from 0.0 in input order, |c| <= 1e-14 dropped and the
    words sorted; ValueError on a bad word, width or coefficient."""
    terms = [(float(c), PauliString(s)) for c, s in pairs]
    if not terms and n_qubits <= 0:
        raise ValueError("empty Hamiltonian needs an explicit n_qubits")
    n = n_qubits or terms[0][1].n_qubits
    merged = {}
    for coeff, ps in terms:
        if ps.n_qubits != n:
            raise ValueError(f"term '{ps.letters}' has {ps.n_qubits} qubits, expected {n}")
        if not np.isfinite(coeff):
            raise ValueError(f"term '{ps.letters}' has non-finite coefficient {coeff}")
        merged[ps.letters] = merged.get(ps.letters, 0.0) + float(coeff)
    canon = [(s, c) for s, c in sorted(merged.items()) if abs(c) > 1e-14]
    return tuple([s for s, _ in canon]), np.array([c for _, c in canon])


def table_coefficient(table, r, label):
    """One cell of a coefficient table: the row at exactly r, column label."""
    return dict(table.rows)[r][table.pauli_labels.index(label)]


def serialize_table(table):
    """Canonical comma-delimited text; parse_table(serialize_table(t)) == t."""
    lines = []
    if table.molecule_name:
        lines.append(f"# molecule: {table.molecule_name}")
    lines.append(",".join(("R",) + table.pauli_labels))
    for r, coeffs in table.rows:
        lines.append(",".join([repr(r)] + [repr(c) for c in coeffs]))
    return "\n".join(lines) + "\n"


def term_bytes(h):
    """Every term as (float.hex of its coefficient, letters): equal bit for bit."""
    return [(c.hex(), word) for c, word in zip(h.coeffs.tolist(), h.words)]


# Oracles in the dense matrix-product form the signed-permutation kernel
# replaced; the kernel must match them bit for bit.

def dense_oracle(h):
    """Dense matrix of a Hamiltonian as a sum of Kronecker products, from zero."""
    out = np.zeros((2 ** h.n_qubits,) * 2, dtype=complex)
    for c, word in zip(h.coeffs.tolist(), h.words):
        out += c * pauli_kron(word)
    return out


def partial_trace_oracle(h, keep, rho):
    """Tr_b((I_a x rho) H) with Tr(rho sigma_b) taken as np.trace(rho @ sigma_b)."""
    keep = sorted(keep)
    comp = [q for q in range(h.n_qubits) if q not in keep]
    pairs = []
    for c, word in zip(h.coeffs.tolist(), h.words):
        sigma = pauli_kron("".join(word[q] for q in comp))
        scalar = complex(np.trace(rho @ sigma))
        pairs.append((c * scalar.real, "".join(word[q] for q in keep)))
    return from_pairs(pairs, n_qubits=len(keep))


def decompose_oracle(m):
    """Pauli expansion with h_l = np.trace(sigma_l @ m) / 2^k."""
    dim = m.shape[0]
    k = dim.bit_length() - 1
    pairs = []
    for letters in map("".join, product("IXYZ", repeat=k)):
        coeff = complex(np.trace(pauli_kron(letters) @ m)) / dim
        pairs.append((coeff.real, letters))
    return from_pairs(pairs, n_qubits=k)


def spectrum_oracle(m):
    """Ascending eigenvalues, eigenvectors and degeneracy flags of one dense
    Hermitian matrix, column by column: each eigenvector scaled by
    conj(pivot) / abs(pivot) at its largest-magnitude entry."""
    vals, vecs = np.linalg.eigh(m)
    cols = []
    for k in range(vals.size):
        vec = vecs[:, k]
        pivot = vec[int(np.argmax(np.abs(vec)))]
        cols.append(vec if abs(pivot) == 0.0 else vec * (pivot.conj() / abs(pivot)))
    flags = tuple(bool((k > 0 and vals[k] - vals[k - 1] < 1e-9)
                       or (k + 1 < vals.size and vals[k + 1] - vals[k] < 1e-9))
                  for k in range(vals.size))
    return vals, np.column_stack(cols), flags


def check_gershgorin(m, bound):
    """bound.e_max is max_i(Re m_ii + sum_{j!=i} |m_ij|) of the dense matrix
    m within 1e-12, and no eigenvalue of m lies above it."""
    n = len(m)
    oracle = max(m[i][i].real + sum(abs(m[i][j]) for j in range(n) if j != i)
                 for i in range(n))
    assert abs(bound.e_max - oracle) <= 1e-12
    assert all(lam <= bound.e_max + 1e-9 for lam in np.linalg.eigvalsh(m))


def gershgorin_oracle(m):
    """The Gershgorin bound as a loop over rows: max_i Re m_ii + (sum_j |m_ij|
    - |m_ii|), each row summed by np.sum and |m_ii| taken on the scalar."""
    return max(float(m[i, i].real) + (float(np.sum(np.abs(m[i]))) - abs(m[i, i]))
               for i in range(m.shape[0]))


# Pre-change forms of the kernels that the one-row excited work rewrote,
# kept verbatim: each rewrite must give their bytes, compared by tobytes()
# or float.hex() (np.array_equal counts -0.0 and 0.0 as equal), and raise
# where they raised.

def select_basis_before(h_dense, cands, second, notes):
    """cmf._select_basis with its Gram-Schmidt writing only the kept rows
    (gathered by nonzero, scattered at size[kept]) and its norms through the
    helper _norms; the expansion by pauli_decompose_before."""
    from vqite.cmf import GRAM_RANK_TOL, EffectiveHamiltonian, _project

    def _norms(w):
        re, im = w.real, w.imag
        return np.sqrt((re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im)[:, 0, 0])

    v = cands[:, 0, :, :, None]
    energy = (v.conj().swapaxes(-1, -2) @ (h_dense[:, None] @ v))[..., 0, 0].real
    keys = np.round(np.concatenate([cands.real, cands.imag], axis=-1), 12)
    order = np.lexsort((*np.moveaxis(keys, -1, 0)[::-1], np.stack([energy, second], axis=1)))
    cands = cands[np.arange(len(cands))[:, None, None], np.arange(2)[:, None], order]
    cands = cands.reshape(len(cands), 8, 8, 1)
    iso = np.zeros((len(cands), 8, 4), dtype=complex)
    bras = np.zeros((len(cands), 4, 1, 8), dtype=complex)
    basis = [(bras[:, j], iso[:, :, j:j + 1]) for j in range(4)]
    size, used = np.zeros((2, len(cands)), dtype=np.intp)
    lo = hi = 0
    for cand in cands.swapaxes(0, 1):
        if lo == 4:
            break
        open_ = size < 4
        once = _project(basis[:hi], size, lo, cand)
        twice = _project(basis[:hi], size, lo, once)
        first, norms = _norms(np.concatenate([once, twice])).reshape(2, -1)
        kept = (keep := open_ & ~(first < GRAM_RANK_TOL)).nonzero()[0]
        column, at = twice[kept] / norms[kept, None, None], size[kept]
        iso[kept, :, at], bras[kept, at] = column[..., 0], column.conj().swapaxes(-1, -2)
        used += open_
        size += keep
        lo, hi = min(columns := size.tolist()), max(columns)
    if lo < 4:
        raise ValueError("candidate products span fewer than 4 dimensions")
    h_effs = pauli_decompose_before(iso.conj().swapaxes(-1, -2) @ h_dense @ iso)
    return [EffectiveHamiltonian(h, m, (*row, "gram_schmidt.candidates_used=4",
                                        f"gram_schmidt.rank_deficient_dropped={n - 4}",
                                        f"h_eff.terms={len(h.words)}"))
            for h, m, row, n in zip(h_effs, iso, notes, used.tolist())]


def pauli_decompose_before(m):
    """pauli.pauli_decompose with its Hermitian check through np.max and its
    rows through np.atleast_2d."""
    from vqite.pauli import HERMITIAN_TOL, _check_dense_cap, _row_sum, _term_stack

    m = np.asarray(m, dtype=complex)
    dim = m.shape[-1]
    if m.ndim not in (2, 3) or m.shape[-2] != dim or dim & (dim - 1):
        raise ValueError(f"matrix shape {m.shape} is not square power-of-two")
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0) <= HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    k = dim.bit_length() - 1
    _check_dense_cap(k)
    labels = tuple(map("".join, product("IXYZ", repeat=k)))
    src, phase = _term_stack(labels, k)
    coeffs = _row_sum(phase * m[..., src, np.arange(dim)]).real / dim
    hs = [PauliHamiltonian(labels, c, k) for c in np.atleast_2d(coeffs)]
    return hs if m.ndim == 3 else hs[0]


def check_norms_before(norms):
    """simulator.check_norms as a mask of the norms within 1e-10 of 1."""
    ok = abs(norms - 1.0) <= 1e-10
    if not (ok.all() if ok.ndim else ok):
        raise ValueError(f"state norm {norms[~ok][0]} deviates from 1 beyond 1e-10")


def real_part_before(value):
    """pauli.real_part as a mask of the residuals above 1e-10."""
    bad = np.abs(value.imag) > 1e-10
    if bad.any():
        raise ArithmeticError(f"expectation has imaginary residual {value.imag[bad][0]:.3e}")
    return value.real


def dense_matrices_add_at(labels, coeffs, n_qubits):
    """pauli.dense_matrices as np.add.at of the weighted terms into complex
    zeros, the form one np.bincount replaced."""
    src, terms = weighted_terms(labels, coeffs, n_qubits)
    out = np.zeros((len(coeffs), src.shape[1], src.shape[1]), dtype=complex)
    np.add.at(out, (slice(None), np.arange(src.shape[1]), src), terms)
    return out


def partial_traces_add_at(labels, coeffs, keep, rho):
    """pauli.partial_traces with its coefficients merged by np.add.at into zeros."""
    from vqite.pauli import COEFF_DROP_TOL, _row_sum, _trace_plan

    flat, phase, words, _ = _trace_plan(labels, keep, len(keep) + len(rho[0]).bit_length() - 1, 1)
    index = _merge_plan(tuple("".join(w[q] for q in keep) for w in labels), len(keep))[1]
    scalars = _row_sum(rho.reshape(len(rho), -1)[:, flat] * phase).real
    out = np.zeros((len(rho), len(words)))
    np.add.at(out, (slice(None), index), coeffs * scalars)
    return words, np.where(np.abs(out) <= COEFF_DROP_TOL, 0.0, out)


def sampled_ab_add_at(run, values):
    """A and B of a SampledRun call from its job values, added by np.add.at
    into zeros at the job table's entries."""
    from vqite.mclachlan import _pairs

    _, entry, weight, _, sizes = run.table
    rows, gamma = len(sizes), run.gamma
    ab, cut = np.zeros(rows * (gamma + 1) * gamma), rows * gamma * gamma
    np.add.at(ab, entry, weight * values)
    a, (*_, i, j) = ab[:cut].reshape(-1, gamma, gamma), _pairs(gamma)
    a[:, j, i] = a[:, i, j]
    return a, ab[cut:].reshape(-1, gamma)


def outcome(function, *args):
    """(exception type and message, or None; the result) of function(*args)."""
    try:
        return None, function(*args)
    except (ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc)), None


def coeff_key(vec):
    """The tie-break key of a CMF candidate: its coefficients rounded to 12
    decimals, real parts then imaginary."""
    return tuple(np.round(np.concatenate([vec.real, vec.imag]), 12))


def cmf_oracle(h):
    """The one-layer CMF reduction of one Hamiltonian, stage by stage on its
    own, from dense_oracle, partial_trace_oracle and spectrum_oracle:
    (isometry, h_eff, selection notes) as the batched reduction must give
    them, the notes written line by line in the form cmf_selection.txt holds."""
    from vqite.cmf import GRAM_RANK_TOL, INITIAL_RHO_B
    from vqite.simulator import DensityMatrix
    from vqite import pauli_decompose

    notes = ["partition.a=(0, 1)", "partition.b=(2,)"]
    h_dense = dense_oracle(h)

    def spectrum(keep, rho):
        return spectrum_oracle(dense_oracle(partial_trace_oracle(h, keep, rho)))

    vals, vecs, flags = spectrum((0, 1), INITIAL_RHO_B.elements)
    if flags[1]:
        notes.append("h_a0.tie_break=eigh-order (gap below 1e-09)")
    notes.append(f"h_a0.lowest={float(vals[0]):.12g},{float(vals[1]):.12g}")
    b_states = []
    for tag, av in zip(("a_g", "a_e"), (vecs[:, 0], vecs[:, 1])):
        rho_a = DensityMatrix(np.outer(av, av.conj())).elements
        bvals, bvecs, bflags = spectrum((2,), rho_a)
        if bflags[0]:
            notes.append(f"h_b({tag}).tie_break=eigh-order")
        b_states += [bvecs[:, 0], bvecs[:, 1]]
        notes.append(f"h_b({tag}).eigenvalues={bvals[0]:.12g},{bvals[1]:.12g}")
    primary, secondary = [], []
    for tag, bv in zip(("b_g(a_g)", "b_e(a_g)", "b_g(a_e)", "b_e(a_e)"), b_states):
        rho_b = DensityMatrix(np.outer(bv, bv.conj())).elements
        avals, avecs, aflags = spectrum((0, 1), rho_b)
        if aflags[1]:
            notes.append(f"h_a1({tag}).tie_break=eigh-order (gap below 1e-09)")
        notes.append(f"h_a1({tag}).lowest={float(avals[0]):.12g},{float(avals[1]):.12g}")
        primary.append(np.kron(avecs[:, 0], bv))
        secondary.append((float(avals[1]), np.kron(avecs[:, 1], bv)))

    def mean_energy(v):
        return float(np.vdot(v, h_dense @ v).real)

    ordered = sorted(primary, key=lambda v: (mean_energy(v), coeff_key(v)))
    fallback = [v for _, v in sorted(secondary, key=lambda t: (t[0], coeff_key(t[1])))]
    basis, used, dropped = [], 0, 0
    for cand in ordered + fallback:
        if len(basis) == 4:
            break
        w = cand.copy()
        for u in basis:
            w = w - np.vdot(u, w) * u
        if float(np.linalg.norm(w)) < GRAM_RANK_TOL:
            dropped += 1
            continue
        for u in basis:
            w = w - np.vdot(u, w) * u
        basis.append(w / np.linalg.norm(w))
        used += 1
    if len(basis) < 4:
        raise ValueError("candidate products span fewer than 4 dimensions")
    notes += [f"gram_schmidt.candidates_used={used}",
              f"gram_schmidt.rank_deficient_dropped={dropped}"]
    iso = np.column_stack(basis)
    h_eff = pauli_decompose(iso.conj().T @ h_dense @ iso)
    notes.append(f"h_eff.terms={len(h_eff.words)}")
    return iso, h_eff, tuple(notes)


def reduction_bytes(iso, h_eff, notes):
    """A reduction as bytes: isometry tobytes(), h_eff term_bytes, selection notes."""
    return iso.tobytes(), term_bytes(h_eff), notes


def reduction_rows(eff):
    """reduction_bytes of each row of a stacked reduction (of the one row of
    cmf_reduce's), its h_eff row as the one Hamiltonian the constructor makes
    of it and its notes as cmf.selection_notes formats them."""
    from vqite.cmf import selection_notes

    if eff.basis_isometry.ndim == 2:
        return [reduction_bytes(eff.basis_isometry, eff.h_eff, *selection_notes(eff))]
    return [reduction_bytes(iso, h, notes) for iso, h, notes in
            zip(eff.basis_isometry, row_views(eff.h_eff), selection_notes(eff), strict=True)]


def per_stage_cmf(hs):
    """The batched reduction of every row of hs with steps 1-3 as seven
    passes, one per conditioned Hamiltonian (the form the stacked stages
    replaced), and the step 4 candidates built by np.kron per row: one
    stacked EffectiveHamiltonian, its record's pass stacks stacked from the
    seven passes' eigenvalues."""
    from vqite.cmf import INITIAL_RHO_B, _select_basis
    from vqite.pauli import check_density, dense_matrices, partial_traces
    from vqite.spectra import stacked_spectrum

    labels, coeffs = term_columns(hs)
    stages = []

    def conditioned(keep, rho):
        words, reduced = partial_traces(labels, coeffs, keep, check_density(rho))
        vals, vecs = stacked_spectrum(dense_matrices(words, reduced, len(keep)))
        stages.append(vals)
        return vals, vecs

    def outer(v):
        return v[:, :, None] * v.conj()[:, None, :]

    seed = np.broadcast_to(INITIAL_RHO_B.elements, (len(hs), 2, 2))
    _, a_vecs = conditioned((0, 1), seed)
    b_states = []
    for av in (a_vecs[:, :, 0], a_vecs[:, :, 1]):
        _, vecs = conditioned((2,), outer(av))
        b_states += [vecs[:, :, 0], vecs[:, :, 1]]
    pairs = []
    for bv in b_states:
        vals, vecs = conditioned((0, 1), outer(bv))
        pairs.append((vecs, bv, vals))
    eigenvalues = tuple(np.stack(stages[a:b]) for a, b in ((0, 1), (1, 3), (3, 7)))
    cands = np.array([[[np.kron(a[b, :, k], bv[b]) for a, bv, _ in pairs] for k in (0, 1)]
                      for b in range(len(hs))])
    second = np.array([[v[b, 1] for _, _, v in pairs] for b in range(len(hs))])
    return _select_basis(dense_matrices(labels, coeffs, 3), cands, second, eigenvalues)


def per_state_gates(t, gates):
    """The tensor stack t, shape (S,) + (2,)*n, after `gates` applied left to
    right, each as one matmul per state (gate_plan's per_state)."""
    from vqite.simulator import apply_planned, gate_plan

    for g in gates:
        t = apply_planned(t, g.matrix, gate_plan(g, t.ndim - 1))
    return t


def forward_then_branches(ansatz):
    """(states, derivatives) of a circuit in the two-pass form the single
    sweep replaced: the forward pass of the B rows keeping the stack after
    every gate, then one stack of the derivative branches, branch i joining
    with sigma_i applied to the forward stack at its insertion point and
    running the gates after it, every gate per state (per_state_gates)."""
    from vqite.ansatz import DERIVATIVE_PREFACTOR

    ref = ansatz.reference_state
    rows, shape = len(np.atleast_2d(ansatz.parameters)), (-1,) + (2,) * ref.n_qubits
    forward = [ref.amplitudes.reshape(shape).repeat(rows, axis=0)]
    for gate in ansatz.gates:
        forward.append(per_state_gates(forward[-1], [gate]))
    stack = np.empty((0, 2 ** ref.n_qubits), dtype=complex)
    for k, gate in enumerate((*ansatz.gates, None)):
        new = [apply_word(d.sigma.letters, forward[k].reshape(rows, -1))
               for d in ansatz.descriptors if d.insertion_point == k]
        stack = np.concatenate([stack, *new]) if new else stack
        if gate is not None and len(stack):
            stack = per_state_gates(stack.reshape(shape), [gate])
            stack = stack.reshape(len(stack), -1)
    return (forward[-1].reshape(rows, -1),
            DERIVATIVE_PREFACTOR * stack.reshape(ansatz.n_parameters, rows, -1))


def analytic_shot_route(monkeypatch):
    """Make a run's SampledRun evaluate every circuit at shots=None, so that a
    loop given a shot count takes A and B from the analytic Hadamard tests."""
    import vqite.engine
    from vqite.mclachlan import SampledRun
    monkeypatch.setattr(vqite.engine, "SampledRun",
                        lambda run, shots, seeds: SampledRun(run, None, seeds))


# The per-job Hadamard route: each test circuit on its own unstacked
# tensor, measured one by one, and each job drawn alone by a scalar draw.

JOB_TOL = 1e-14     # |<Z> of a job - <Z> of its circuit|: its weighted value within JOB_TOL weight


def scalar_draw(z, shots=None, rng=None):
    """z, or with shots one scalar binomial estimate of it drawn from the Generator `rng`."""
    if shots is None:
        return z
    p = min(max((1.0 + z) / 2.0, 0.0), 1.0)
    return 2.0 * rng.binomial(shots, p) / shots - 1.0


def scalar_z(tensor, shots=None, rng=None):
    """Ancilla <Z> of one final amplitude tensor (2,)*N, ancilla last: the
    marginal over every other axis of the contiguous probabilities, then
    scalar_draw."""
    probs = np.abs(np.ascontiguousarray(tensor)) ** 2
    marg = probs.sum(axis=tuple(range(tensor.ndim - 1)))
    return scalar_draw(float(marg[0] - marg[1]), shots, rng)


def ancilla_state(phase):
    """(|0> + e^{i phase} |1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * phase)], dtype=complex) / np.sqrt(2.0)


def start_tensor(circuit):
    """Reference state (x) phased ancilla, by np.kron, as a (2,)*N tensor."""
    amps = np.kron(circuit.system_reference.amplitudes, ancilla_state(circuit.ancilla_phase))
    return amps.reshape((2,) * (amps.size.bit_length() - 1))


def scratch_z(circuit):
    """Exact ancilla <Z> of one test circuit run from its start through tensordot_gate."""
    t = start_tensor(circuit)
    for g in circuit.gates:
        t = tensordot_gate(t, g)
    return scalar_z(t)


def assemble_system(jobs, values, gamma, route, shots):
    """A and B from per-job values: weight * value added from 0.0 in job
    order, then A mirrored below the diagonal."""
    a = np.zeros((gamma, gamma))
    b = np.zeros(gamma)
    for job, z in zip(jobs, values):
        if job.destination[0] == "A":
            _, i, j = job.destination
            a[i, j] += job.weight * z
        else:
            _, i = job.destination
            b[i] += job.weight * z
    for i in range(gamma):
        for j in range(i + 1, gamma):
            a[j, i] = a[i, j]
    return McLachlanSystem(a, b, route=route, shots=shots)


def circuit_values(jobs):
    """The exact ancilla <Z> of each job's circuit, as scratch_z: per ancilla
    phase, a circuit resumes from the longest gate prefix it shares by
    identity with the last circuit of that phase (the per-job memo)."""
    memo, values = {}, []
    for job in jobs:
        c = job.circuit
        done, states = memo.get(c.ancilla_phase, ((), [start_tensor(c)]))
        k = 0
        while k < min(len(done), len(c.gates)) and done[k] is c.gates[k]:
            k += 1
        states = states[:k + 1]
        for g in c.gates[k:]:
            states.append(tensordot_gate(states[-1], g))
        memo[c.ancilla_phase] = (c.gates, states)
        values.append(scalar_z(states[-1]))
    return np.array(values)


def sampled_oracle(ansatz, h, runs):
    """compute_sampled(ansatz, h, shots, rng) for each (shots, rng) of
    `runs`, as a loop over the jobs of build_hadamard_circuits.

    Each job's exact ancilla <Z> and its mark (drawn, or known: one value at
    every angle, which test_mclachlan proves on the 3^gamma grid) are those
    of a one-row SampledRun at shots=None; each value must lie within
    JOB_TOL of its circuit's (circuit_values; else AssertionError).  Each
    drawn job is then drawn alone by scalar_draw from the Generator `rng` in
    job order, each known job keeps its exact value, and A and B are added
    up by assemble_system.
    """
    from vqite.mclachlan import ExactRun, SampledRun

    jobs, run = build_hadamard_circuits(ansatz, h), SampledRun(ExactRun(ansatz, h), None, [None])
    values, drawn = run()[0], run.table[3]
    assert len(values) == len(jobs)
    assert np.abs(values - circuit_values(jobs)).max() <= JOB_TOL
    return [assemble_system(jobs, [scalar_draw(z, shots if d else None, rng)
                                   for z, d in zip(values.tolist(), drawn.tolist())],
                            ansatz.n_parameters, "hadamard", shots)
            for shots, rng in runs]


def grid_spread(builder, gamma, words, n_qubits):
    """(spread, value): the (gamma, gamma + L) <Z> spread over the 3^gamma
    grid theta_k in {0, 2 pi/3, 4 pi/3}, and the value at its first row, of
    each Hadamard job column over `words` at unit coefficients (inf and 0.0
    where no job lies).  A job's <Z> is a trigonometric polynomial of degree
    <= 1 in each theta_k, so it is constant exactly when its grid spread is
    0, up to rounding."""
    from vqite.mclachlan import ExactRun, SampledRun, _jobs

    grid = np.array(list(product(2 * np.pi * np.arange(3) / 3, repeat=gamma)))
    unit = PauliHamiltonian(words, np.ones((len(grid), len(words))), n_qubits)
    assert unit.words == tuple(words)
    z = SampledRun(ExactRun(builder(grid), unit), None, [None] * len(grid))()[0]
    z = z.reshape(len(grid), -1)
    _, i, k, _ = _jobs(gamma, unit.words, unit.coeffs[:1])
    shape = (gamma, gamma + len(words))
    spread, value = np.full(shape, np.inf), np.zeros(shape)
    spread[i, k], value[i, k] = z.max(axis=0) - z.min(axis=0), z[0]
    return spread, value


# Golden outputs: recorded CLI runs, replayed through vqite.cli.main.

def run_cli(argv, out_dir=None):
    """(exit code, stdout, sha256 of every file written to out_dir) of one
    in-process `vqite` call, with `--out out_dir` appended when out_dir is
    given (`spectrum` and `excited` write no files)."""
    from vqite.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(out_dir)] if out_dir else argv)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(Path(out_dir).iterdir())} if out_dir else {}
    return code, stdout.getvalue(), files


OPENBLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def golden_platform():
    """What the bytes of a shot-route run depend on besides the code: the
    numpy version and the BLAS numpy runs with.  For OpenBLAS built with
    DYNAMIC_ARCH, the configuration string read from the loaded library
    names the kernel set picked for this CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25, or a build without the record
        config = "unknown"
    runtime = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        get = next((getattr(dll, s) for s in OPENBLAS_CONFIG if hasattr(dll, s)), None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            runtime = " ".join(get().decode().split())
            break
    return {"numpy": np.__version__, "blas": config, "blas_runtime": runtime}

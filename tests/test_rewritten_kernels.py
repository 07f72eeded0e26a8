"""Kernels rewritten to cut fixed numpy work from one `excited` call, held
to their pre-change forms (conftest): every output byte, compared by
tobytes() or float.hex() so that -0.0 and 0.0 differ, and every refusal,
on the 50 LiH rows and on drawn stacks that include degenerate ones."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (check_norms_before, dense_matrices_add_at, from_pairs, outcome,
                      partial_traces_add_at, pauli_decompose_before, real_part_before,
                      reduction_bytes, reduction_rows, row_views, sampled_ab_add_at,
                      select_basis_before, stacked, term_bytes)
from vqite import (PauliHamiltonian, build_hardware_efficient, build_ucc_h2, build_ucc_lih, cmf,
                   cmf_reduce, cmf_reduce_rows, hamiltonian_at, mclachlan, pauli, simulator,
                   to_dense_matrix)
from vqite.engine import EnergyMap, QiteConfig, run_qite_rows
from vqite.mclachlan import ExactRun, SampledRun
from vqite.simulator import check_norms, projectors

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)
AMPLITUDE = st.complex_numbers(max_magnitude=1.0)
# H = H_a x I_b + h_x I_a x X_b (rank-deficient candidates) and H on a alone (tied ones)
PRODUCT = from_pairs([(0.7, "ZII"), (-0.4, "IZI"), (0.3, "XXI"), (0.25, "IIX")])
TIED = from_pairs([(0.5, "ZII"), (1.0, "IZI"), (1.5, "XII")])


def selections(hs):
    """The _select_basis arguments of one cmf_reduce_rows call on hs."""
    real, seen = cmf._select_basis, []

    def spy(*args):
        seen.append(args)
        return real(*args)
    cmf._select_basis = spy
    try:
        cmf_reduce_rows(stacked(hs))
    finally:
        cmf._select_basis = real
    return seen[0]


def same_selection(h_dense, cands, second, eigenvalues=None):
    """_select_basis and its pre-change form: equal bytes and equal notes
    after the pass notes (the Gram-Schmidt counts and the term count), or the
    same refusal.  `eigenvalues`: the record's pass stacks, by default zeros
    shaped as a reduction's."""
    rows = len(cands)
    if eigenvalues is None:
        eigenvalues = tuple(np.zeros((t, rows, k)) for t, k in ((1, 4), (2, 2), (4, 4)))
    got = outcome(lambda: [(iso, h, notes[-3:]) for iso, h, notes in reduction_rows(
        cmf._select_basis(h_dense, cands, second, eigenvalues))])
    fresh = [[] for _ in range(rows)]
    want = outcome(lambda: [reduction_bytes(e.basis_isometry, e.h_eff, e.selection)
                            for e in select_basis_before(h_dense, cands, second, fresh)])
    return got == want


def test_select_basis_is_pre_change_form_on_lih_rows(lih_table):
    # All 50 rows as one batch, each row alone as `excited` reduces it, and
    # the rank-deficient and tied one-row cases.
    hs = [hamiltonian_at(lih_table, r) for r in lih_table.bond_distances]
    cases = [hs] + [[h] for h in hs] + [[PRODUCT], [TIED], [PRODUCT, TIED, hs[0]]]
    for batch in cases:
        assert same_selection(*selections(batch)), len(batch)


def unit(v):
    return v / np.linalg.norm(v)


@st.composite
def candidate_stacks(draw):
    """(h_dense, cands, second) of 1-3 rows, each candidate drawn from a pool
    of basis vectors and 0-3 drawn unit vectors, so that candidates repeat
    and rows run out of rank; Hamiltonians drawn, zero or a multiple of the
    identity (every mean energy tied); second eigenvalues from a few values."""
    rows = draw(st.integers(1, 3))
    pool = list(np.eye(8, dtype=complex))
    pool += [unit(v) for v in draw(st.lists(arrays(complex, 8, elements=AMPLITUDE).filter(
        lambda v: np.linalg.norm(v) > 0.1), max_size=3))]
    picks = draw(arrays(np.intp, (rows, 2, 4), elements=st.integers(0, len(pool) - 1)))
    cands = np.array(pool)[picks]
    kind = draw(st.sampled_from(["drawn", "zero", "identity"]))
    if kind == "drawn":
        a = draw(arrays(complex, (rows, 8, 8), elements=AMPLITUDE))
        h_dense = a + a.conj().swapaxes(-1, -2)
    else:
        h_dense = np.zeros((rows, 8, 8), dtype=complex) + (kind == "identity") * np.eye(8)
    second = draw(arrays(float, (rows, 4), elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5])))
    return h_dense, cands, second


@PROPERTY
@given(candidate_stacks())
def test_select_basis_is_pre_change_form_on_drawn_stacks(case):
    h_dense, cands, second = case
    assert same_selection(h_dense, cands, second)


def decompositions(m):
    """term_bytes of pauli_decompose and of its pre-change form, or the refusals."""
    def expand(decompose):
        hs = decompose(m)
        hs = hs if isinstance(hs, list) else row_views(hs) if hs.coeffs.ndim == 2 else [hs]
        return [term_bytes(h) for h in hs]
    return outcome(expand, pauli.pauli_decompose), outcome(expand, pauli_decompose_before)


def test_decompose_is_pre_change_form_on_lih_rows(lih_table):
    # The reduced Hamiltonians as projected and the lifted ones of `excited`,
    # each alone and stacked, and the rows' own 8 x 8 matrices.
    hs = [hamiltonian_at(lih_table, r) for r in lih_table.bond_distances]
    eff = cmf_reduce_rows(stacked(hs))
    projected = np.array([iso.conj().T @ to_dense_matrix(h) @ iso
                          for iso, h in zip(eff.basis_isometry, hs)])
    lifted = []
    for h_eff in row_views(eff.h_eff):
        dense = to_dense_matrix(h_eff)
        vals, vecs = np.linalg.eigh(dense)
        g = vecs[:, 0]
        lifted.append(dense + (vals[-1] + 1.0 - vals[0]) * np.outer(g, g.conj()))
    dense = np.array([to_dense_matrix(h) for h in hs])
    for stack in (projected, np.array(lifted), dense):
        got, want = decompositions(stack)
        assert got == want and got[0] is None
        for m in stack:
            assert decompositions(m)[0] == decompositions(m)[1]


@st.composite
def hermitian_stacks(draw):
    """A (B, 2^k, 2^k) stack or one matrix: drawn Hermitian, zero, -0.0
    everywhere, a multiple of the identity, a repeated matrix, or one that
    is not Hermitian or holds a NaN."""
    k, rows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    a = draw(arrays(complex, (rows, 2 ** k, 2 ** k), elements=AMPLITUDE))
    kind = draw(st.sampled_from(["drawn", "zero", "negative zero", "identity", "repeated",
                                 "not hermitian", "nan"]))
    m = a + a.conj().swapaxes(-1, -2)
    if kind == "zero":
        m = np.zeros_like(a)
    elif kind == "negative zero":
        m = np.full_like(a, complex(-0.0, -0.0))
    elif kind == "identity":
        m = np.zeros_like(a) + draw(st.floats(-2.0, 2.0)) * np.eye(2 ** k)
    elif kind == "repeated":
        m = np.repeat(m[:1], rows, axis=0)
    elif kind == "not hermitian":
        m = m + 1j * np.eye(2 ** k)
    elif kind == "nan":
        m[0, 0, 0] = np.nan
    return m[0] if draw(st.booleans()) else m


@PROPERTY
@given(hermitian_stacks())
def test_decompose_is_pre_change_form_on_drawn_stacks(m):
    got, want = decompositions(m)
    assert got == want


def spied(monkeypatch, module, name, calls):
    """module.name wrapped to record its argument arrays (copied) in `calls`."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda v: calls.append(np.array(v)) or real(v))


def test_checks_are_pre_change_form_on_lih_runs(lih_table, monkeypatch):
    # Every norm and expectation a 50-row CMF + HE scan, a 50-row UCC-LiH
    # scan and one `excited` reduction check, checked again by the old forms.
    norms, values = [], []
    for module in (simulator, mclachlan):   # the states' checks, and ExactRun's own
        spied(monkeypatch, module, "check_norms", norms)
    for module in (pauli, mclachlan):    # expectations, and ExactRun's pair product
        spied(monkeypatch, module, "real_part", values)
    h = lih_table.hamiltonians(range(50))
    eff = cmf_reduce_rows(h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_qite_rows(eff.h_eff, build_hardware_efficient, QiteConfig((0.5,) * 6),
                      EnergyMap(eff, h))
        run_qite_rows(h, build_ucc_lih, QiteConfig((1.0, 1.0)))
    cmf_reduce(hamiltonian_at(lih_table, lih_table.rows[10][0]))
    monkeypatch.undo()
    assert len(norms) > 10 and len(values) > 10
    for n in norms:
        assert outcome(check_norms, n) == outcome(check_norms_before, n) == (None, None)
    for v in values:
        assert pauli.real_part(v).tobytes() == real_part_before(v).tobytes()


NEAR_ONE = st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 2e-10, 1.0 - 2e-10,
                            np.nextafter(1.0 + 1e-10, 2.0), 0.0, -1.0, np.nan, np.inf, -np.inf])


@PROPERTY
@given(st.one_of(arrays(float, st.integers(0, 5), elements=st.one_of(NEAR_ONE, st.floats())),
                 NEAR_ONE.map(np.float64)))
def test_check_norms_is_pre_change_form(norms):
    # The same arrays and numpy scalars pass, and the same first offender is named.
    assert outcome(check_norms, norms) == outcome(check_norms_before, norms)


RESIDUAL = st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 2e-10, -2e-10, np.nan, np.inf, 1.0])


@PROPERTY
@given(arrays(complex, st.integers(0, 5), elements=st.builds(
    complex, st.one_of(st.floats(), RESIDUAL), st.one_of(RESIDUAL, st.floats()))))
def test_real_part_is_pre_change_form(value):
    got, want = outcome(pauli.real_part, value), outcome(real_part_before, value)
    assert got[0] == want[0]
    if got[0] is None:
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("builder,rows", [(build_hardware_efficient, 1),
                                          (build_hardware_efficient, 50), (build_ucc_lih, 50)])
def test_recorded_copies_are_copyto(builder, rows, lih_table, rng):
    # A recorded sweep copies by dst.__setitem__(..., src); replaying it with
    # each copy made by np.copyto(dst, src) instead leaves every byte as it is.
    h = lih_table.hamiltonians(range(rows))
    if builder is build_hardware_efficient:
        h = cmf_reduce_rows(h).h_eff
    gamma = 6 if builder is build_hardware_efficient else 2
    run = ExactRun(builder(rng.uniform(-np.pi, np.pi, (rows, gamma))), h)
    for system in (True, False):
        run(rng.uniform(-np.pi, np.pi, (rows, gamma)), system)
        program = run.programs[system]
        copies = [(f.__self__, args[1]) for f, args in program
                  if getattr(f, "__name__", "") == "__setitem__"]
        assert copies and all(args[0] is Ellipsis for f, args in program
                              if getattr(f, "__name__", "") == "__setitem__")
        for function, args in program:
            function(*args)
        replayed = run.stack.tobytes()
        for function, args in program:
            if getattr(function, "__name__", "") == "__setitem__":
                np.copyto(function.__self__, args[1])
            else:
                function(*args)
        assert run.stack.tobytes() == replayed


# The Pauli scatters as one np.bincount, held to the np.add.at forms they
# replaced (conftest): B in {1, 2, 50} rows, repeated words, and entries of
# +-0.0 and +-1e-14 among ordinary ones.
SCATTER_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1e-14, -1e-14]), st.floats(-2.0, 2.0))
ROWS = st.sampled_from([1, 2, 50])


@st.composite
def term_rows(draw, n_qubits):
    """(labels, (B, L) coefficients): words drawn with repeats from a few."""
    few = draw(st.lists(st.text("IXYZ", min_size=n_qubits, max_size=n_qubits),
                        min_size=1, max_size=5))
    labels = tuple(draw(st.lists(st.sampled_from(few), min_size=1, max_size=9)))
    return labels, draw(arrays(float, (draw(ROWS), len(labels)), elements=SCATTER_COEFF))


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_rows(n))))
def test_dense_matrices_bincount_is_add_at(case):
    n, (labels, coeffs) = case
    assert (pauli.dense_matrices(labels, coeffs, n).tobytes()
            == dense_matrices_add_at(labels, coeffs, n).tobytes())


@PROPERTY
@given(term_rows(3), st.sampled_from([(0, 1), (2,), (0,), (1, 2), (0, 2), (1,)]),
       st.integers(0, 2 ** 32 - 1))
def test_partial_traces_bincount_is_add_at(case, keep, seed):
    labels, coeffs = case
    v = np.random.default_rng(seed).normal(size=(len(coeffs), 2 ** (3 - len(keep)), 2))
    v = v.view(complex)[..., 0]
    rho = projectors(v / np.linalg.norm(v, axis=1, keepdims=True))
    got, want = (f(labels, coeffs, keep, rho) for f in
                 (pauli.partial_traces, partial_traces_add_at))
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


@PROPERTY
@given(ROWS, st.sampled_from([build_hardware_efficient, build_ucc_h2]),
       st.lists(st.tuples(st.text("IXYZ", min_size=2, max_size=2), SCATTER_COEFF),
                min_size=1, max_size=12),
       st.sampled_from([None, 100]), st.integers(0, 2 ** 32 - 1))
def test_sampled_run_bincount_is_add_at(rows, builder, pairs, shots, seed):
    # The Hamiltonian stack as a run receives it: repeated words merged,
    # entries of +-1e-14 set to 0.0 by the constructor.
    rng = np.random.default_rng(seed)
    scale = rng.choice([-1.0, 0.0, 1.0, 0.3, 1e-15], size=(rows, len(pairs)))
    h = PauliHamiltonian([w for w, _ in pairs], scale * [c for _, c in pairs], 2)
    gamma = 6 if builder is build_hardware_efficient else 1
    run = SampledRun(ExactRun(builder(rng.uniform(-np.pi, np.pi, (rows, gamma))), h), shots,
                     [(seed, b) for b in range(rows)])
    values, a, b = run()
    want_a, want_b = sampled_ab_add_at(run, values)
    assert a.tobytes() == want_a.tobytes()
    assert b.tobytes() == want_b.tobytes()

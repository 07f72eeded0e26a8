"""Cluster-mean-field reduction against dense oracles."""

import numpy as np
import pytest

from conftest import (cmf_oracle, from_pairs, per_stage_cmf, random_state, reduction_bytes,
                      reduction_rows, stacked)
from vqite import (cmf, cmf_reduce, cmf_reduce_rows, exact_spectrum, hamiltonian_at,
                   lift_amplitudes, to_dense_matrix)
from vqite.cmf import INITIAL_RHO_B, selection_notes


def test_default_seed_state_is_plus_x():
    expected = 0.5 * np.array([[1, 1], [1, 1]])
    assert np.max(np.abs(INITIAL_RHO_B.elements - expected)) < 1e-12


# H = H_a x I_b + h_x I_a x X_b, whose candidates are rank-deficient.
PRODUCT = from_pairs([(0.7, "ZII"), (-0.4, "IZI"), (0.3, "XXI"), (0.25, "IIX")])


def test_product_hamiltonian_is_exact():
    # The reduction must capture the two lowest levels exactly (mean field is
    # exact for product systems).
    eff = cmf_reduce(PRODUCT)
    full = np.linalg.eigvalsh(to_dense_matrix(PRODUCT))
    reduced = np.linalg.eigvalsh(to_dense_matrix(eff.h_eff))
    assert reduced[0] == pytest.approx(full[0], abs=1e-10)
    assert reduced[1] == pytest.approx(full[1], abs=1e-10)


def test_isometry_invariants(lih_r15):
    eff = cmf_reduce(lih_r15)
    iso = eff.basis_isometry
    assert iso.shape == (8, 4)
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(4))) < 1e-10
    projected = iso.conj().T @ to_dense_matrix(lih_r15) @ iso
    assert np.max(np.abs(to_dense_matrix(eff.h_eff) - projected)) < 1e-9


def test_lih_r15_ground_state_quality(lih_r15):
    eff = cmf_reduce(lih_r15)
    spec = exact_spectrum(lih_r15)
    eff_spec = exact_spectrum(eff.h_eff)
    lifted = lift_amplitudes(eff, eff_spec.ground_state)
    fid = abs(np.vdot(spec.ground_state, lifted)) ** 2
    assert fid > 0.999
    assert abs(eff_spec.ground_energy - spec.ground_energy) < 1e-3


def test_spectral_containment_all_rows(lih_table):
    for r in lih_table.bond_distances:
        h = hamiltonian_at(lih_table, r)
        full = np.linalg.eigvalsh(to_dense_matrix(h))
        eff = cmf_reduce(h)
        reduced = np.linalg.eigvalsh(to_dense_matrix(eff.h_eff))
        assert reduced[0] >= full[0] - 1e-9
        assert reduced[-1] <= full[-1] + 1e-9


def test_lift_state_basis_column(lih_r15):
    eff = cmf_reduce(lih_r15)
    lifted = lift_amplitudes(eff, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.max(np.abs(lifted - eff.basis_isometry[:, 0])) < 1e-12


def test_lift_ground_energy_consistency(lih_r15):
    eff = cmf_reduce(lih_r15)
    eff_spec = exact_spectrum(eff.h_eff)
    lifted = lift_amplitudes(eff, eff_spec.ground_state)
    energy = np.vdot(lifted, to_dense_matrix(lih_r15) @ lifted).real
    assert energy == pytest.approx(eff_spec.ground_energy, abs=1e-10)


def test_energy_consistency_random_states(lih_r15, rng):
    eff = cmf_reduce(lih_r15)
    h_eff_dense = to_dense_matrix(eff.h_eff)
    h_dense = to_dense_matrix(lih_r15)
    for _ in range(10):
        amps = random_state(rng, 2)
        lifted = lift_amplitudes(eff, amps)
        lhs = np.vdot(lifted, h_dense @ lifted).real
        rhs = np.vdot(amps, h_eff_dense @ amps).real
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_determinism_bit_identical(lih_r15):
    a = cmf_reduce(lih_r15)
    b = cmf_reduce(lih_r15)
    assert selection_notes(a) == selection_notes(b)
    assert [v.tobytes() for v in a.selection[0]] == [v.tobytes() for v in b.selection[0]]
    assert np.array_equal(a.basis_isometry, b.basis_isometry)
    assert a.h_eff.words == b.h_eff.words
    assert a.h_eff.coeffs.tobytes() == b.h_eff.coeffs.tobytes()


def test_provenance_records_selection(lih_r15):
    eff = cmf_reduce(lih_r15)
    text = "\n".join(*selection_notes(eff))
    assert "h_a0.lowest=" in text
    assert "gram_schmidt.candidates_used=" in text


def test_reduce_rejects_wrong_size():
    h = from_pairs([(1.0, "ZZ")])
    with pytest.raises(ValueError):
        cmf_reduce(h)


@pytest.mark.parametrize("stage", [0, 1], ids=["a states", "b states"])
def test_non_unit_eigenvector_is_refused(lih_r15, stage, monkeypatch):
    # Steps 2 and 3 weigh by v v^dagger of eigenvectors, valid densities
    # only for unit v: one eigenvector of the pass scaled by 1 + 1e-6 fails
    # the norm check that replaced the density check.
    real, calls = cmf.stacked_spectrum, []

    def scaled(m):
        vals, vecs = real(m)
        if len(calls) == stage:
            vecs = vecs.copy()
            vecs[0, :, 0] *= 1 + 1e-6
        calls.append(len(m))
        return vals, vecs

    monkeypatch.setattr(cmf, "stacked_spectrum", scaled)
    with pytest.raises(ValueError, match="state norm"):
        cmf_reduce(lih_r15)
    assert len(calls) == stage + 1


@pytest.fixture(scope="module")
def lih_oracle(lih_table):
    """(Hamiltonian, cmf_oracle bytes) of each of the 50 LiH rows, by R."""
    hs = {r: hamiltonian_at(lih_table, r) for r in lih_table.bond_distances}
    return {r: (h, reduction_bytes(*cmf_oracle(h))) for r, h in hs.items()}


def test_batched_rows_equal_per_row_oracle_bitwise(lih_oracle):
    # All 50 rows in one batch, including the 11-term rows R = 4.9 and 5.0;
    # selection_notes writes each row's notes as the oracle writes them.
    hs = [h for h, _ in lih_oracle.values()]
    assert {len(h.words) for h in hs} == {11, 13}
    rows = reduction_rows(cmf_reduce_rows(stacked(hs)))
    for (r, (_, want)), got in zip(lih_oracle.items(), rows, strict=True):
        assert got == want, r


# H on subsystem a alone: the b states, and so the candidates' energies, tie.
TIED = from_pairs([(0.5, "ZII"), (1.0, "IZI"), (1.5, "XII")])


def test_one_row_reductions_equal_oracle_bitwise(lih_oracle, rng):
    # The one-row reduction that every `excited` call runs, of each LiH row,
    # of PRODUCT, whose candidates take the rank-deficient fallback, and of
    # TIED, whose candidates are ordered on their coefficients.  A LiH row's
    # lift of a random state through it is that row's lift through the 50-row
    # stacked reduction, as run_qite_rows lifts a scan's states, byte for byte.
    cases, effs = [(r, h, want) for r, (h, want) in lih_oracle.items()], {}
    for r, h, want in cases + [(name, h, reduction_bytes(*cmf_oracle(h)))
                               for name, h in (("PRODUCT", PRODUCT), ("TIED", TIED))]:
        effs[r] = eff = cmf_reduce(h)
        assert reduction_rows(eff) == [want], r
    amps = np.array([random_state(rng, 2) for _ in lih_oracle])
    lifted = lift_amplitudes(cmf_reduce_rows(stacked([h for _, h, _ in cases])), amps)
    for r, a, got in zip(lih_oracle, amps, lifted, strict=True):
        assert got.tobytes() == lift_amplitudes(effs[r], a).tobytes(), r


@pytest.mark.parametrize("rows", [1, 50])
def test_stacked_stages_equal_per_stage_form(rows, lih_table, monkeypatch):
    # Steps 1-3 make one stacked pass each (B, 2B and 4B weights) where the
    # per-stage form made seven, and every row's reduction keeps its bytes.
    rs = lih_table.bond_distances if rows > 1 else (1.5,)
    hs = [hamiltonian_at(lih_table, r) for r in rs]
    real, sizes = cmf.stacked_spectrum, []
    monkeypatch.setattr(cmf, "stacked_spectrum", lambda m: sizes.append(len(m)) or real(m))
    eff = cmf_reduce_rows(stacked(hs))
    monkeypatch.undo()
    assert sizes == [rows, 2 * rows, 4 * rows]
    per_stage = per_stage_cmf(hs)
    assert [v.tobytes() for v in eff.selection[0]] == [
        v.tobytes() for v in per_stage.selection[0]]
    got, want = reduction_rows(eff), reduction_rows(per_stage)
    for b, r in enumerate(rs):
        assert got[b] == want[b], r


def test_mixed_batch_selects_bases_in_one_pass(lih_table, monkeypatch):
    # LiH rows of 13 and 11 terms beside the product Hamiltonian, whose
    # candidates take the rank-deficient fallback: steps 4-5 make one pass,
    # one Pauli expansion of all rows, and every row keeps its oracle bytes.
    hs = [hamiltonian_at(lih_table, r) for r in (0.5, 4.9, 1.5, 5.0)]
    hs.insert(2, PRODUCT)
    assert [len(h.words) for h in hs] == [13, 11, 4, 13, 11]
    real, sizes = cmf.pauli_decompose, []
    monkeypatch.setattr(cmf, "pauli_decompose", lambda m: sizes.append(len(m)) or real(m))
    eff = cmf_reduce_rows(stacked(hs))
    monkeypatch.undo()
    assert sizes == [len(hs)]
    assert eff.selection[1].tolist() == [4, 4, 7, 4, 4]
    dropped = [next(n for n in notes if n.startswith("gram_schmidt.rank_deficient"))
               for notes in selection_notes(eff)]
    assert [n.rsplit("=", 1)[1] for n in dropped] == ["0", "0", "3", "0", "0"]
    for h, got in zip(hs, reduction_rows(eff), strict=True):
        assert got == reduction_bytes(*cmf_oracle(h)), h


def test_stacked_reduction_notes_each_row_term_count(lih_table):
    # One stack of rows whose reductions keep 10, 3 and 2 terms: h_eff is one
    # (3, 10) stack, 0.0 where a row lacks a word, and each row's notes, its
    # own h_eff.terms count included, are those of cmf_reduce of the row alone.
    hs = [hamiltonian_at(lih_table, 1.5), PRODUCT, TIED]
    eff, alone = cmf_reduce_rows(stacked(hs)), [cmf_reduce(h) for h in hs]
    assert [len(e.h_eff.words) for e in alone] == [10, 3, 2]
    assert eff.h_eff.coeffs.shape == (3, 10) and eff.basis_isometry.shape == (3, 8, 4)
    assert selection_notes(eff) == tuple(notes for e in alone for notes in selection_notes(e))
    assert [n[-1] for n in selection_notes(eff)] == ["h_eff.terms=10", "h_eff.terms=3",
                                                     "h_eff.terms=2"]
    assert reduction_rows(eff) == [row for e in alone for row in reduction_rows(e)]


def test_gram_schmidt_keeps_a_small_residual_and_drops_a_tiny_one():
    # GRAM_RANK_TOL (1e-8) decides a drop: the primary candidate
    # e0 + eps e3, sorted right after e0, leaves a residual of norm eps.  At
    # eps = 1e-6 it is kept and the 4 primaries make the basis; at 1e-10 it
    # is dropped and the lowest secondary candidate takes its place.
    eye = np.eye(8, dtype=complex)
    h_dense = np.diag(np.arange(8.0)).astype(complex)[None].repeat(2, axis=0)
    cands = np.empty((2, 2, 4, 8), dtype=complex)
    for row, eps in enumerate((1e-6, 1e-10)):
        near = (eye[0] + eps * eye[3]) / np.sqrt(1 + eps ** 2)
        cands[row] = [[eye[0], near, eye[1], eye[2]], eye[4:]]
    eigenvalues = tuple(np.zeros((t, 2, k)) for t, k in ((1, 4), (2, 2), (4, 4)))
    eff = cmf._select_basis(h_dense, cands, np.arange(4.0)[None].repeat(2, axis=0), eigenvalues)
    assert eff.selection[1].tolist() == [4, 5]
    assert [next(n for n in notes if n.startswith("gram_schmidt.rank_deficient"))
            for notes in selection_notes(eff)] == ["gram_schmidt.rank_deficient_dropped=0",
                                                   "gram_schmidt.rank_deficient_dropped=1"]
    assert abs(eff.basis_isometry[0, 3, 1]) == pytest.approx(1.0)
    assert abs(eff.basis_isometry[1, 4, 3]) == pytest.approx(1.0)

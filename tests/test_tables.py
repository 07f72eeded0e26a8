"""Coefficient-table ingestion, validation, and the bundled data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (check_gershgorin, coefficient, serialize_table, table_coefficient,
                      term_bytes)
from vqite import (PauliHamiltonian, exact_spectrum, gershgorin_emax, hamiltonian_at,
                   load_h2_synthetic_table, load_lih_table, load_table, parse_table,
                   to_dense_matrix)
from vqite.tables import MoleculeTable, TableFormatError


def test_bundle_shape(lih_table):
    assert len(lih_table.rows) == 50
    assert lih_table.n_qubits == 3
    assert lih_table.pauli_labels == (
        "III", "ZII", "IZI", "IIZ", "YYI", "XXI", "YIY", "XIX",
        "ZZI", "ZIZ", "IYY", "IXX", "IZZ")
    assert lih_table.bond_distances[0] == pytest.approx(0.1)
    assert lih_table.bond_distances[-1] == pytest.approx(5.0)
    assert lih_table.molecule_name == "LiH"


def test_bundle_reference_cells(lih_table):
    assert table_coefficient(lih_table, 0.7, "IZI") == pytest.approx(-0.2332)
    assert table_coefficient(lih_table, 5.0, "YYI") == 0.0
    assert table_coefficient(lih_table, 1.5, "III") == pytest.approx(-7.0632)


def test_bundle_rows_hermitian_within_gershgorin(lih_table):
    for r in lih_table.bond_distances:
        dense = to_dense_matrix(hamiltonian_at(lih_table, r))
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
        check_gershgorin(dense, gershgorin_emax(dense))


def test_parse_toy_table_comma_and_tab():
    for sep in (",", "\t"):
        text = "# molecule: toy\n" + sep.join(["R", "I", "Z"]) + "\n" \
               + sep.join(["0.5", "1.0", "-0.25"]) + "\n"
        table = parse_table(text)
        assert table.molecule_name == "toy"
        assert table.rows == ((0.5, (1.0, -0.25)),)


def test_parse_reports_bad_label():
    with pytest.raises(TableFormatError, match="line 1.*column 3"):
        parse_table("R,Z,Q\n0.5,1.0,2.0\n")


def test_parse_reports_arity():
    with pytest.raises(TableFormatError, match="line 2"):
        parse_table("R,ZI,IZ\n0.5,1.0\n")


def test_parse_reports_non_numeric():
    with pytest.raises(TableFormatError, match="line 3"):
        parse_table("R,Z\n0.5,1.0\n0.7,abc\n")


def test_parse_reports_non_increasing_r():
    with pytest.raises(TableFormatError, match="line 3"):
        parse_table("R,Z\n0.5,1.0\n0.5,2.0\n")


@pytest.mark.parametrize("row", ["0.7,1.0,nan", "0.7,inf,1.0", "0.7,1.0,-inf",
                                 "nan,1.0,2.0"])
def test_parse_reports_non_finite_cell(row):
    with pytest.raises(TableFormatError, match="line 3: non-finite cell"):
        parse_table(f"R,ZI,IZ\n0.5,1.0,2.0\n{row}\n")


def test_parse_reports_repeated_label():
    with pytest.raises(TableFormatError, match="line 1: column 3: label 'ZI' repeated"):
        parse_table("R,ZI,ZI\n0.5,1.0,2.0\n")


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_hamiltonian_rejects_non_finite_coefficient(coeff):
    with pytest.raises(ValueError, match="'IZ' has non-finite coefficient"):
        PauliHamiltonian.from_pairs([(1.0, "ZI"), (coeff, "IZ")])


def test_parse_requires_r_header():
    with pytest.raises(TableFormatError, match="header"):
        parse_table("Z,I\n0.5,1.0\n")


def test_parse_mixed_label_lengths_rejected():
    with pytest.raises(TableFormatError, match="length differs"):
        parse_table("R,Z,ZZ\n0.5,1.0,2.0\n")


def test_round_trip(lih_table):
    text = serialize_table(lih_table)
    again = parse_table(text)
    assert again == lih_table
    assert serialize_table(again) == text


def test_bundled_tables_parsed_once(tmp_path):
    # A bundled table is parsed once and shared; a table read from a path is not cached.
    assert load_lih_table() is load_lih_table()
    assert load_h2_synthetic_table() is load_h2_synthetic_table()
    path = tmp_path / "lih.csv"
    path.write_text(serialize_table(load_lih_table()))
    first, second = load_table(path), load_table(path)
    assert first == second == load_lih_table() and first is not second


def test_hamiltonian_at_exact_match(lih_table):
    h = hamiltonian_at(lih_table, 1.5)
    assert h.n_terms == 13
    assert coefficient(h, "III") == pytest.approx(-7.0632)
    with pytest.raises(ValueError, match="no row at R=1.49"):
        hamiltonian_at(lih_table, 1.49)


def test_hamiltonian_at_reads_each_row(lih_table):
    # Each row, also looked up up to 1e-9 away, gives its own coefficients.
    for r, coeffs in lih_table.rows:
        want = term_bytes(PauliHamiltonian.from_pairs(zip(coeffs, lih_table.pauli_labels)))
        for probe in (r, r - 5e-10, r + 5e-10):
            assert term_bytes(hamiltonian_at(lih_table, probe)) == want, probe


def first_row_within(table, r):
    """The row the lookup must find, by a scan: the first within 1e-9 of r."""
    return next((k for k, (d, _) in enumerate(table.rows) if abs(d - r) < 1e-9), None)


def found_row(table, r):
    """The row hamiltonian_at reads, on a table whose row k holds k + 1.0."""
    try:
        return int(hamiltonian_at(table, r).coeffs[0]) - 1
    except ValueError as exc:
        assert str(exc) == f"no row at R={r:g}"
        return None


@pytest.mark.parametrize("probe,row", [
    (0.1, 0), (0.1 - 9e-10, 0), (5.0, 49), (5.0 + 9e-10, 49), (1.5 + 9e-10, 14),
    (0.15, None), (4.95, None), (0.1 - 1.1e-9, None), (5.0 + 1.1e-9, None),
    (float("nan"), None), (float("inf"), None), (-float("inf"), None),
], ids=["first", "first-9e-10", "last", "last+9e-10", "inner+9e-10", "between-first",
        "between-last", "below-first", "above-last", "nan", "inf", "-inf"])
def test_hamiltonian_at_row_lookup(lih_table, probe, row):
    # The row within 1e-9 of R, found at either end and inside; R between two
    # rows, beyond the ends or not a number names itself in the ValueError.
    if row is None:
        with pytest.raises(ValueError, match=r"^no row at R="):
            hamiltonian_at(lih_table, probe)
        return
    r, coeffs = lih_table.rows[row]
    want = PauliHamiltonian.from_pairs(zip(coeffs, lih_table.pauli_labels))
    assert term_bytes(hamiltonian_at(lih_table, probe)) == term_bytes(want)
    assert first_row_within(lih_table, probe) == row


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.floats(-2.0, 2.0),
       st.lists(st.sampled_from([5e-10, 1e-9, 1.5e-9, 2e-9, 0.25]), max_size=6),
       st.integers(0, 6), st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -2e-9]))
def test_hamiltonian_at_is_first_row_within(start, gaps, at, offset):
    # The bisections find the rows of the scans they replaced: every row within
    # 1e-9 (rows_within, which validate_manifest resolves a selection by) and
    # the first of them (hamiltonian_at), also where rows lie closer together
    # than 2e-9.
    distances = [start]
    for gap in gaps:
        distances.append(distances[-1] + gap)
    table = MoleculeTable("", 1, ("Z",), tuple((d, (k + 1.0,)) for k, d in enumerate(distances)))
    probe = distances[min(at, len(distances) - 1)] + offset
    assert found_row(table, probe) == first_row_within(table, probe)
    assert list(table.rows_within(probe)) == [
        k for k, d in enumerate(distances) if abs(probe - d) < 1e-9]


def test_zero_coefficient_dropped_from_hamiltonian(lih_table):
    # The R=5.0 row lists YYI as 0.0000; canonicalization drops the term.
    h = hamiltonian_at(lih_table, 5.0)
    assert coefficient(h, "YYI") == 0.0
    assert "YYI" not in h.words


def test_synthetic_h2_properties(h2_table, h2_r07):
    assert h2_table.n_qubits == 2
    assert {"ZI", "IZ", "ZZ", "XX"} <= set(h2_table.pauli_labels)
    spec = exact_spectrum(h2_r07)
    # |10> is the exact, non-degenerate ground state by construction.
    assert not spec.ground_degenerate
    assert abs(spec.ground_state[2]) == pytest.approx(1.0, abs=1e-12)


def test_lih_ground_energy_discontinuity_is_data(lih_table):
    # The trailing rows break the smooth trend; they are ingested verbatim
    # and only flagged downstream, never corrected.
    e48 = exact_spectrum(hamiltonian_at(lih_table, 4.8)).ground_energy
    e49 = exact_spectrum(hamiltonian_at(lih_table, 4.9)).ground_energy
    assert abs(e49 - e48) > 0.05

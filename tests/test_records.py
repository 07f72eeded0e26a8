"""The record types: constructor checks, read-only fields, equality."""

import functools

import numpy as np
import pytest

from vqite import (DensityMatrix, Gate, MoleculeTable, PauliString, QiteConfig, StateVector,
                   load_lih_table, parse_table)
from vqite.cli import RunManifest
from vqite.pauli import PAULI_MATRICES

TABLE_TEXT = "# molecule: toy\nR,ZI,XX\n0.5,-1.0,0.25\n1.0,-0.5,0.125\n"


@pytest.mark.parametrize("kwargs, message", [
    ({"iterations": 0}, "iterations must be >= 1"),
    ({"dtau": "fixed"}, "dtau must be a positive number or 'auto'"),
    ({"shots": 100}, "shot mode needs a seed"),
])
def test_qite_config_checks(kwargs, message):
    with pytest.raises(ValueError, match=message):
        QiteConfig((0.5,), **kwargs)


def test_qite_config_normalizes_angles():
    config = QiteConfig(np.array([1, 2]), 3, 0.25, 100, 7)
    assert config.initial_theta == (1.0, 2.0) and type(config.initial_theta[0]) is float
    assert (config.iterations, config.dtau, config.shots, config.seed) == (3, 0.25, 100, 7)
    assert QiteConfig(0.5).initial_theta == (0.5,)
    assert QiteConfig((0.5,)).seed is None      # exact A and B need no seed


@pytest.mark.parametrize("letters, message", [
    ("", "at least one letter"),
    ("XQZ", r"invalid Pauli letters \['Q'\] in 'XQZ'"),
    ("ab", r"invalid Pauli letters \['a', 'b'\]"),
])
def test_pauli_string_checks(letters, message):
    with pytest.raises(ValueError, match=message):
        PauliString(letters)


def test_gate_control_is_not_target():
    with pytest.raises(ValueError, match="control and target are both qubit 1"):
        Gate(PAULI_MATRICES["X"], 1, 1)


@pytest.mark.parametrize("amplitudes", [[1.0], [1.0, 0.0, 0.0], np.eye(1, 6)])
def test_state_vector_length_is_a_power_of_two(amplitudes):
    with pytest.raises(ValueError, match="is not 2\\^n"):
        StateVector(amplitudes)


def frozen_records():
    """One instance of each read-only record type, with a field to write."""
    return [
        (StateVector([1.0, 0.0]), "amplitudes"),
        (DensityMatrix(np.diag([1.0, 0.0])), "elements"),
        (Gate(PAULI_MATRICES["X"], 0), "target"),
        (PauliString("XZ"), "letters"),
        (QiteConfig((0.5,)), "iterations"),
        (load_lih_table(), "rows"),
        (RunManifest(), "seed"),
    ]


@pytest.mark.parametrize("record, field", frozen_records(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_records_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_pauli_strings_are_equal_by_letters():
    a, b = PauliString("XYZ"), PauliString("".join(["XY", "Z"]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PauliString("XYI") and a != "XYZ"
    assert {a: 1}[b] == 1

    @functools.lru_cache(maxsize=None)
    def width(sigma):
        return sigma.n_qubits
    assert width(a) == width(b) == 3 and width.cache_info().hits == 1


def test_gates_are_equal_by_identity():
    g, h = Gate(PAULI_MATRICES["X"], 0), Gate(PAULI_MATRICES["X"], 0)
    assert g == g and g != h and len({g, h}) == 2


def test_tables_are_equal_by_value():
    a, b = parse_table(TABLE_TEXT), parse_table(TABLE_TEXT)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_table(TABLE_TEXT.replace("toy", "other"))
    assert a == MoleculeTable("toy", 2, ("ZI", "XX"), ((0.5, (-1.0, 0.25)), (1.0, (-0.5, 0.125))))
    assert a.coefficients is a.coefficients and not a.coefficients.flags.writeable
    assert a == b      # made coefficients leave equality alone

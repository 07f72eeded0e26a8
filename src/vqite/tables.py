"""Molecular Hamiltonian coefficient tables.

File format: UTF-8 text, comma- or tab-delimited.  The first non-comment
line is the header; its first column is literally `R`, the remaining
columns are Pauli labels.  Each following line holds a bond distance in
Angstrom and one coefficient per label, in Hartree.  Lines starting with
`#` are comments; `# molecule: NAME` names the table.  R values must be
strictly increasing, labels distinct and every cell finite.

Two tables ship with the package:

    lih_sto6g.csv     the published LiH coefficients, 50 bond distances,
                      13 Pauli terms, transcribed verbatim (including the
                      anomalous trailing rows -- see the README)
    h2_synthetic.csv  a synthetic 2-qubit table for structural H2 tests;
                      real H2 coefficients are user-supplied
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .pauli import PauliHamiltonian, PauliString


class TableFormatError(ValueError):
    """Malformed table input; message carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class MoleculeTable:
    molecule_name: str
    n_qubits: int
    pauli_labels: tuple[str, ...]
    rows: tuple[tuple[float, tuple[float, ...]], ...]

    @property
    def bond_distances(self) -> tuple[float, ...]:
        return tuple([r for r, _ in self.rows])

    def rows_within(self, r: float) -> range:
        """Indices of all rows within 1e-9 of R = r (hamiltonian_at reads the first)."""
        lo = bisect.bisect_left(self.rows, True, key=lambda x: x[0] - r > -1e-9)
        return range(lo, bisect.bisect_left(self.rows, True, lo, key=lambda x: x[0] - r >= 1e-9))


def parse_table(source) -> MoleculeTable:
    """Parse and validate a coefficient table from text or a stream."""
    text = source.read() if hasattr(source, "read") else source
    labels: tuple[str, ...] | None = None
    delimiter = ","
    name = ""
    rows: list[tuple[float, tuple[float, ...]]] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("molecule:"):
                name = body.split(":", 1)[1].strip()
            continue
        if labels is None:
            delimiter = "\t" if "\t" in line else ","
            cells = [c.strip() for c in line.split(delimiter)]
            if not cells or cells[0] != "R":
                raise TableFormatError(lineno, "header must start with column 'R'")
            if len(cells) < 2:
                raise TableFormatError(lineno, "header lists no Pauli labels")
            width = len(cells[1])
            for col, label in enumerate(cells[1:], start=2):
                try:
                    ps = PauliString(label)
                except ValueError as exc:
                    raise TableFormatError(lineno, f"column {col}: {exc}") from exc
                if ps.n_qubits != width:
                    raise TableFormatError(
                        lineno, f"column {col}: label '{label}' length differs"
                    )
                if label in cells[1:col - 1]:
                    raise TableFormatError(lineno, f"column {col}: label '{label}' repeated")
            labels = tuple(cells[1:])
            continue
        cells = [c.strip() for c in line.split(delimiter)]
        if len(cells) != len(labels) + 1:
            raise TableFormatError(
                lineno, f"expected {len(labels) + 1} cells, found {len(cells)}"
            )
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise TableFormatError(lineno, f"non-numeric cell in {cells!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise TableFormatError(lineno, f"non-finite cell in {cells!r}")
        r = values[0]
        if rows and r <= rows[-1][0]:
            raise TableFormatError(
                lineno, f"R={r:g} does not increase past R={rows[-1][0]:g}"
            )
        rows.append((r, tuple(values[1:])))
    if labels is None:
        raise TableFormatError(0, "no header line found")
    if not rows:
        raise TableFormatError(0, "table has no data rows")
    return MoleculeTable(name, len(labels[0]), labels, tuple(rows))


def hamiltonian_at(table: MoleculeTable, r: float) -> PauliHamiltonian:
    """Hamiltonian of the first row within 1e-9 of bond distance r (bisection)."""
    k = bisect.bisect_left(table.rows, True, key=lambda row: row[0] - r > -1e-9)
    if k == len(table.rows) or not abs(table.rows[k][0] - r) < 1e-9:
        raise ValueError(f"no row at R={r:g}")
    return PauliHamiltonian(table.pauli_labels, table.rows[k][1], table.n_qubits)


def load_table(path) -> MoleculeTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh)


@lru_cache(maxsize=None)
def _bundled(name: str) -> MoleculeTable:
    """A shipped table, parsed once (MoleculeTable is frozen and holds tuples)."""
    text = resources.files(__package__).joinpath("data", name).read_text("utf-8")
    return parse_table(text)


def load_lih_table() -> MoleculeTable:
    """The published LiH table (STO-6G, 50 bond distances, 13 terms)."""
    return _bundled("lih_sto6g.csv")


def load_h2_synthetic_table() -> MoleculeTable:
    """The synthetic 2-qubit table used for structural H2 tests."""
    return _bundled("h2_synthetic.csv")

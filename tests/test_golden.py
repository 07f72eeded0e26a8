"""Golden outputs: recorded runs replayed byte for byte.

The files under tests/golden/shots/ (the seeded shot route) and
tests/golden/exact/ (the exact route, `excited` and `spectrum`) come from
tests/golden/regenerate.py.  They are compared only on the platform they
were recorded on: a seeded binomial draw flips when a probability moves by
one ulp, and numpy's version and the BLAS kernels it runs (OpenBLAS picks
them per CPU) decide the last bit of every amplitude.  On another platform
the test skips and names both platforms.
"""

import json
from pathlib import Path

import pytest

from conftest import golden_platform, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def replay(root: Path, tmp_path: Path) -> None:
    manifest = json.loads((root / "manifest.json").read_text())
    here = golden_platform()
    if here != manifest["platform"]:
        pytest.skip(f"goldens recorded on {manifest['platform']}, this host is {here}")
    for run in manifest["runs"]:
        recorded = root / run["name"]
        out = tmp_path / run["name"] if run["argv"][0] in ("scan", "point") else None
        code, stdout, files = run_cli(run["argv"], out)
        assert code == run["exit"], run["name"]
        assert stdout == (recorded / "stdout.txt").read_text(), run["name"]
        if (recorded / "curve.csv").exists():
            assert ((out / "curve.csv").read_text()
                    == (recorded / "curve.csv").read_text()), run["name"]
            del files["curve.csv"]
        assert files == run["files"], run["name"]


def test_shot_route_goldens(tmp_path):
    replay(GOLDEN / "shots", tmp_path)


def test_exact_route_goldens(tmp_path):
    replay(GOLDEN / "exact", tmp_path)

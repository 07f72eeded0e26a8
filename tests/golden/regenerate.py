"""Rewrite the golden outputs under tests/golden/shots/ and tests/golden/exact/.

Run from the repository root with the code to record on the path:

    PYTHONPATH=src python tests/golden/regenerate.py

Each run keeps its exit code, stdout and curve.csv as text and a sha256 of
every other file it writes (`spectrum` and `excited` take no --out and
write none); each set's manifest.json also records golden_platform(), the
numpy and BLAS configuration the bytes were made with.
tests/test_golden.py replays the runs only on a matching platform.  A
change that rewrites a golden file lists it in CHANGES.md with its reason.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import golden_platform, run_cli  # noqa: E402

UCC_LIH = ["scan", "--table", "lih", "--ansatz", "ucc-lih", "--route", "shots:10000",
           "--r", "all", "--seed"]
SHOTS = {
    "ucc-lih-shots10000-seed0": UCC_LIH + ["0"],
    "ucc-lih-shots10000-seed1000003": UCC_LIH + ["1000003"],
    "ucc-lih-shots10000-seed2000006": UCC_LIH + ["2000006"],
    "cmf-he-shots1000-seed7": ["scan", "--table", "lih", "--ansatz", "he", "--cmf",
                               "--route", "shots:1000", "--r", "1.0,1.5,3.0",
                               "--seed", "7", "--trace"],
}
EXACT = {
    "cmf-he-trace": ["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "all",
                     "--trace"],
    "ucc-lih": ["scan", "--table", "lih", "--ansatz", "ucc-lih", "--r", "all"],
    "point-ucc-lih-dtau5": ["point", "--table", "lih", "--ansatz", "ucc-lih", "--r", "1.5",
                            "--dtau", "5", "--trace"],
    "h2-synthetic": ["scan", "--table", "h2-synthetic", "--ansatz", "ucc-h2", "--r", "all"],
    **{f"{cmd}-R{r}": [cmd, "--table", "lih", "--r", r]
       for cmd in ("excited", "spectrum") for r in ("0.5", "1.5", "3.0", "4.9")},
    "excited-all": ["excited", "--table", "lih", "--r", "all"],
}
WRITES_FILES = ("scan", "point")


def record(root: Path, runs_by_name: dict) -> int:
    shutil.rmtree(root, ignore_errors=True)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs_by_name.items():
            out = Path(tmp) / name if argv[0] in WRITES_FILES else None
            code, stdout, files = run_cli(argv, out)
            (root / name).mkdir(parents=True)
            (root / name / "stdout.txt").write_text(stdout)
            if "curve.csv" in files:
                (root / name / "curve.csv").write_text((out / "curve.csv").read_text())
                del files["curve.csv"]
            runs.append({"name": name, "argv": argv, "exit": code, "files": files})
    manifest = {"platform": golden_platform(), "runs": runs}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return len(runs)


def main() -> None:
    for name, runs in (("shots", SHOTS), ("exact", EXACT)):
        print(f"wrote {record(HERE / name, runs)} runs to {HERE / name}")


if __name__ == "__main__":
    main()

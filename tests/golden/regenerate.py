"""Rewrite the shot-route golden outputs under tests/golden/shots/.

Run from the repository root with the code to record on the path:

    PYTHONPATH=src python tests/golden/regenerate.py

Each run keeps its exit code, stdout and curve.csv as text and a sha256 of
every other file it writes; manifest.json also records golden_platform(),
the numpy and BLAS configuration the bytes were made with.
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
RUNS = {
    "ucc-lih-shots10000-seed0": UCC_LIH + ["0"],
    "ucc-lih-shots10000-seed1000003": UCC_LIH + ["1000003"],
    "ucc-lih-shots10000-seed2000006": UCC_LIH + ["2000006"],
    "cmf-he-shots1000-seed7": ["scan", "--table", "lih", "--ansatz", "he", "--cmf",
                               "--route", "shots:1000", "--r", "1.0,1.5,3.0",
                               "--seed", "7", "--trace"],
}


def main() -> None:
    root = HERE / "shots"
    shutil.rmtree(root, ignore_errors=True)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            out = Path(tmp) / name
            code, stdout, files = run_cli(argv, out)
            (root / name).mkdir(parents=True)
            (root / name / "stdout.txt").write_text(stdout)
            (root / name / "curve.csv").write_text((out / "curve.csv").read_text())
            del files["curve.csv"]
            runs.append({"name": name, "argv": argv, "exit": code, "files": files})
    manifest = {"platform": golden_platform(), "runs": runs}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {root}")


if __name__ == "__main__":
    main()

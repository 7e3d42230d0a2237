"""Digests of every artifact of the registered default experiments.

Usage: ``python tools/artifact_digests.py OUTDIR``

Runs every experiment registered in ``EXPERIMENTS`` at its defaults, on one
BLAS thread, with ``OUTDIR`` (absent or empty) as the output root; the
lattice jump ensemble runs 150 trajectories from seed 20260810.  Then prints
one line ``<sha256>  <path>`` per written file, paths relative to ``OUTDIR``
and sorted, leaving out ``config.json``.  A ``report.json`` holds run times, so
its line digests the report without ``runtime_s``.  Two checkouts that write
the same artifacts print the same lines, so comparing them is one ``diff``
of the two outputs.  The package is imported from the ``src`` directory of
the checkout this script sits in.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semilind.harness.config import ExperimentConfig  # noqa: E402
from semilind.harness.experiments import EXPERIMENTS, default_config, run_experiment  # noqa: E402

OVERRIDES = {"bose_hubbard_losses": {"n_trajectories": 150, "seed": 20260810}}


def digest(path: Path) -> str:
    """sha256 of a file, or of a report's canonical JSON without ``runtime_s``."""
    data = path.read_bytes()
    if path.name == "report.json":
        doc = {k: v for k, v in json.loads(data).items() if k != "runtime_s"}
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty; its old files would be digested too",
              file=sys.stderr)
        return 2
    for name in EXPERIMENTS:
        doc = {**default_config(name), **OVERRIDES.get(name, {})}
        run_experiment(ExperimentConfig.from_dict(doc), root)
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "config.json"):
        print(f"{digest(path)}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Optional MovieLens-1M experiment: teacher -> distill -> fine-tune on real data.

Point ``--ml-dir`` at an extracted MovieLens-1M directory (the one containing
``ratings.dat``, ``users.dat``, ``movies.dat``).  The script runs the frozen
recipe of ``dagfm.movielens.run_experiment``: it converts the files to the
seven-field CSV layout, trains a CrossNet teacher, distills a DAG student with
the rank-1 (outer) combiner, fine-tunes it, and reports the test AUC together
with its gap to the 0.8976 reference value.  The gap is informational: nothing
asserts on it.

Example:
    python3 scripts/run_movielens.py --ml-dir data/ml-1m --out runs/ml1m
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagfm.movielens import REFERENCE_AUC, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ml-dir", type=Path, required=True,
                        help="extracted MovieLens-1M directory")
    parser.add_argument("--out", type=Path, default=Path("runs/ml1m"),
                        help="output directory for CSV, logs, and report")
    args = parser.parse_args(argv)

    if not (args.ml_dir / "ratings.dat").exists():
        print(f"error: {args.ml_dir} does not look like an extracted MovieLens-1M "
              f"directory (no ratings.dat)", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    result = run_experiment(args.ml_dir, args.out)
    gap = abs(result.finetuned_auc - REFERENCE_AUC)
    print(result.summary())
    print(f"|gap to reference {REFERENCE_AUC}| = {gap:.4f} (informational)")

    report = {
        "teacher_auc": result.teacher_auc,
        "distilled_auc": result.distilled_auc,
        "finetuned_auc": result.finetuned_auc,
        "reference_auc": REFERENCE_AUC,
        "abs_gap": gap,
        "wall_time_s": time.perf_counter() - t0,
    }
    (args.out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.out / 'report.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

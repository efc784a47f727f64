#!/usr/bin/env python3
"""Optional MovieLens-1M experiment: teacher -> distill -> fine-tune on real data.

Point ``--ml-dir`` at an extracted MovieLens-1M directory (the one containing
``ratings.dat``, ``users.dat``, ``movies.dat``).  The script converts it to the
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

from dagfm.data import read_csv, split_dataset
from dagfm.distill import DistillPlan, StageConfig, run_pipeline
from dagfm.interactions import DagfmModel, DagfmSpec
from dagfm.movielens import convert_movielens
from dagfm.teachers import CrossNetModel, CrossNetSpec

REFERENCE_AUC = 0.8976
NUM_FIELDS = 7  # user_id, gender, age, occupation, zip, movie_id, genre


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ml-dir", type=Path, required=True,
                        help="extracted MovieLens-1M directory")
    parser.add_argument("--out", type=Path, default=Path("runs/ml1m"),
                        help="output directory for CSV, logs, and report")
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--teacher-epochs", type=int, default=6)
    parser.add_argument("--distill-epochs", type=int, default=8)
    parser.add_argument("--finetune-epochs", type=int, default=3)
    args = parser.parse_args(argv)

    if not (args.ml_dir / "ratings.dat").exists():
        print(f"error: {args.ml_dir} does not look like an extracted MovieLens-1M "
              f"directory (no ratings.dat)", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "ml1m.csv"
    n_rows = convert_movielens(args.ml_dir, csv_path)
    print(f"converted {n_rows} ratings -> {csv_path}")

    schema, dataset = read_csv(csv_path)
    split = split_dataset(dataset, seed=42)
    vocab = schema.vocab_sizes()
    print(f"split: train={len(split.train)} val={len(split.val)} test={len(split.test)}; "
          f"total vocabulary {sum(vocab)}")

    plan = DistillPlan(
        teacher_stage=StageConfig(epochs=args.teacher_epochs, lr=1e-3, batch_size=2048,
                                  patience=3, weight_decay=3e-4),
        distill_stages=(
            StageConfig(epochs=args.distill_epochs, lr=3e-3, batch_size=2048, patience=0),
        ),
        finetune_stage=StageConfig(epochs=args.finetune_epochs, lr=1e-4, batch_size=2048,
                                   patience=3),
    )
    teacher = CrossNetModel(
        CrossNetSpec(NUM_FIELDS, args.embed_dim, args.depth), vocab, seed=args.seed
    )
    student = DagfmModel(
        DagfmSpec("outer", NUM_FIELDS, args.embed_dim, args.depth), vocab, seed=args.seed
    )
    result = run_pipeline(teacher, student, split, plan, log_dir=args.out)
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

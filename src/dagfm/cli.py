"""Command-line entry point.

Subcommands mirror the pipeline stages plus utilities::

    dagfm train-teacher     train a CIN or cross-network teacher
    dagfm distill           distill a student from a teacher checkpoint
    dagfm finetune          fine-tune a distilled student
    dagfm eval              params/FLOPs report for a checkpoint, plus AUC and
                            log loss when a CSV is given
    dagfm oracle-check      propagation-vs-enumeration deviation table
    dagfm convert-movielens join ml-1m .dat files into the CSV layout

Exit codes: 0 success, 1 validation or oracle failure, 2 usage error.
Settings come from an INI config (``--config``) with explicit flags taking
precedence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .checkpoint import CheckpointError, build_model, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .data import (
    FieldSchema,
    ParseError,
    SchemaError,
    build_vocab,
    load_dataset,
    split_dataset,
)
from .distill import (
    StageConfig,
    distill_student,
    evaluate,
    finetune_student,
    train_teacher,
)
from .interactions import KINDS
from .metrics import UndefinedMetricError, efficiency_report
from .movielens import convert_movielens, convert_movielens_dir
from .numcore import ConfigurationError, TrainingDivergenceError
from .oracle import assert_dp_equivalence

_USER_ERRORS = (
    ConfigurationError,
    SchemaError,
    ParseError,
    CheckpointError,
    UndefinedMetricError,
    TrainingDivergenceError,
    FileNotFoundError,
)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "data", None) is not None:
        cfg.train_csv = args.data
    if getattr(args, "min_freq", None) is not None:
        cfg.min_freq = args.min_freq
    if getattr(args, "split", None) is not None:
        try:
            parts = tuple(float(p) for p in args.split.split(","))
        except ValueError:
            raise ConfigurationError(f"--split needs numbers, got {args.split!r}") from None
        if len(parts) != 3:
            raise ConfigurationError(f"--split needs three ratios, got {args.split!r}")
        cfg.split_ratios = parts
    return cfg


def _schema(cfg: RunConfig, args, model=None) -> FieldSchema:
    """The explicit schema, else (for a ``model`` loaded from ``--checkpoint``)
    the one saved next to it, else one built from the data; it must fit ``model``."""
    explicit = getattr(args, "schema", None) or cfg.schema_path
    near = Path(args.checkpoint).parent / "schema.json" if model is not None else None
    if explicit:
        schema = FieldSchema.load(explicit)
    elif near is not None and near.exists():
        schema = FieldSchema.load(near)
    elif cfg.train_csv is None:
        raise ConfigurationError("no schema file and no --data CSV to build one from")
    else:
        schema = build_vocab(cfg.train_csv, min_freq=cfg.min_freq)
    if model is not None and schema.vocab_sizes() != model.vocab_sizes:
        raise SchemaError(f"schema vocab sizes {schema.vocab_sizes()} do not match "
                          f"{args.checkpoint}'s {model.vocab_sizes}")
    return schema


def _split(cfg: RunConfig, schema: FieldSchema):
    if cfg.train_csv is None:
        raise ConfigurationError("--data (or [data] train_csv) is required")
    dataset = load_dataset(cfg.train_csv, schema)
    return split_dataset(dataset, ratios=cfg.split_ratios, seed=cfg.split_seed)


def _finish_stage(model, report, split, out_dir: Path, ckpt_name: str) -> int:
    """Save the checkpoint, record its path, score the test split and emit
    ``<stage>_report.json``."""
    ckpt = out_dir / ckpt_name
    save_checkpoint(model, ckpt)
    report.checkpoint_path = str(ckpt)
    test = evaluate(model, split.test)
    _emit(
        {
            "stage": report.stage,
            "epochs_run": len(report.epochs),
            "best_epoch": report.best_epoch,
            "best_val_auc": report.best_val_auc,
            "wall_time_s": report.wall_time_s,
            "checkpoint": report.checkpoint_path,
            "test_auc": test.auc,
            "test_logloss": test.logloss,
        },
        out_dir / f"{report.stage}_report.json",
    )
    return 0


def _emit(obj: dict, out_path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    print(text)


def _stage_override(stage: StageConfig, args) -> StageConfig:
    updates = {}
    for name in ("epochs", "lr", "batch_size"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return dataclasses.replace(stage, **updates) if updates else stage


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_train_teacher(args) -> int:
    cfg = _config(args)
    if args.teacher is not None:
        cfg.teacher_kind = args.teacher
    if args.d is not None:
        cfg.teacher_embed_dim = args.d
    if args.depth is not None:
        cfg.teacher_depth = args.depth
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema(cfg, args)
    schema.save(out_dir / "schema.json")
    split = _split(cfg, schema)
    model = build_model(cfg.teacher_spec(schema.m), schema.vocab_sizes(), seed=cfg.seed)
    stage = _stage_override(cfg.plan.teacher_stage, args)
    report = train_teacher(model, split, stage, log_path=out_dir / "teacher_epochs.jsonl")
    return _finish_stage(model, report, split, out_dir, "teacher.ckpt")


def _cmd_distill(args) -> int:
    cfg = _config(args)
    teacher = load_checkpoint(args.checkpoint)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema(cfg, args, model=teacher)
    schema.save(out_dir / "schema.json")
    split = _split(cfg, schema)
    if args.fn is not None:
        cfg.student_fn = args.fn
    if args.d is not None:
        cfg.student_embed_dim = args.d
    if args.depth is not None:
        cfg.student_layers = args.depth
    teacher_depth = getattr(teacher.spec, "num_layers", None)
    spec = cfg.student_spec(
        schema.m,
        default_embed_dim=teacher.embed_dim,
        default_layers=teacher_depth,
    )
    student = build_model(spec, schema.vocab_sizes(), seed=cfg.seed)
    alpha = args.alpha if args.alpha is not None else cfg.plan.alpha
    beta = args.beta if args.beta is not None else cfg.plan.beta
    (stage,) = cfg.plan.distill_stages  # an INI config holds one chunk
    stage = _stage_override(stage, args)
    report = distill_student(
        student,
        teacher,
        split,
        stage,
        alpha=alpha,
        beta=beta,
        kd_space=cfg.plan.kd_space,
        log_path=out_dir / "distill_epochs.jsonl",
    )
    return _finish_stage(student, report, split, out_dir, "student.ckpt")


def _cmd_finetune(args) -> int:
    cfg = _config(args)
    student = load_checkpoint(args.checkpoint)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = _schema(cfg, args, model=student)
    split = _split(cfg, schema)
    stage = _stage_override(cfg.plan.finetune_stage, args)
    report = finetune_student(
        student, split, stage, log_path=out_dir / "finetune_epochs.jsonl"
    )
    return _finish_stage(student, report, split, out_dir, "student_finetuned.ckpt")


def _cmd_eval(args) -> int:
    cfg = _config(args)
    if cfg.train_csv is None and args.schema is not None:
        raise ConfigurationError("--schema needs --data (or [data] train_csv) to score")
    model = load_checkpoint(args.checkpoint)
    payload = {"auc": None, "logloss": None, "n": None, **efficiency_report(model).as_dict()}
    if cfg.train_csv is not None:
        schema = _schema(cfg, args, model=model)
        result = evaluate(model, load_dataset(cfg.train_csv, schema))
        payload.update(auc=result.auc, logloss=result.logloss, n=result.n)
    _emit(payload, args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    report = assert_dp_equivalence(
        args.fn, args.m, args.d, args.depth, seed=args.seed,
        tol=args.tol, raise_on_fail=False,
    )
    print(report)
    return 0 if report.passed else 1


def _cmd_convert_movielens(args) -> int:
    if args.dir:
        n = convert_movielens_dir(args.dir, args.out)
    else:
        missing = [f for f in ("ratings", "users", "movies") if getattr(args, f) is None]
        if missing:
            raise ConfigurationError(
                f"convert-movielens needs --dir or all of --ratings/--users/--movies "
                f"(missing {missing})"
            )
        n = convert_movielens(args.ratings, args.users, args.movies, args.out)
    print(json.dumps({"instances": n, "out": str(args.out)}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, *, seed: bool = False, split: bool = False, checkpoint: bool = False) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument("--out", help="output directory or file")
    if seed:
        p.add_argument("--seed", type=int, help="model init seed")
    p.add_argument("--data", help="CSV dataset (label,f1,...,fm)")
    p.add_argument("--schema", help="schema JSON (else built from the data)")
    p.add_argument("--min-freq", type=int, dest="min_freq",
                   help="vocabulary frequency threshold")
    if split:
        p.add_argument("--split", help="train,val,test ratios, e.g. 0.8,0.1,0.1")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="model checkpoint path")


def _add_stage_overrides(p) -> None:
    p.add_argument("--epochs", type=int, help="override stage epochs")
    p.add_argument("--lr", type=float, help="override stage learning rate")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="override batch size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagfm", description="DAG factorization machine distillation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="stage 1: train a teacher")
    _add_common(p, seed=True, split=True)
    p.add_argument("--teacher", choices=("cin", "crossnet"))
    p.add_argument("--d", type=int, help="embedding dimension")
    p.add_argument("--depth", type=int, help="teacher depth")
    _add_stage_overrides(p)
    p.set_defaults(func=_cmd_train_teacher)

    p = sub.add_parser("distill", help="stage 2: distill a student")
    _add_common(p, seed=True, split=True, checkpoint=True)
    p.add_argument("--fn", choices=KINDS, help="student interaction function")
    p.add_argument("--d", type=int, help="student embedding dimension")
    p.add_argument("--depth", type=int, help="student propagation layers")
    p.add_argument("--alpha", type=float, help="KD loss weight")
    p.add_argument("--beta", type=float, help="CTR loss weight")
    _add_stage_overrides(p)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("finetune", help="stage 3: fine-tune a student")
    _add_common(p, split=True, checkpoint=True)
    _add_stage_overrides(p)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", help="params/FLOPs report, plus AUC/logloss with --data")
    _add_common(p, checkpoint=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle-check", help="propagation vs enumeration table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--fn", choices=KINDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("convert-movielens", help="join ml-1m .dat files into CSV")
    p.add_argument("--dir", help="ml-1m directory with ratings/users/movies.dat")
    p.add_argument("--ratings")
    p.add_argument("--users")
    p.add_argument("--movies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert_movielens)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull so that the
        # flush at interpreter shutdown does not raise again (the recipe in
        # the Python ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

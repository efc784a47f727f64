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
Settings come from an INI config (``--config``). Each settings flag is an
alias of one INI key (``--lr`` of ``distill`` is ``[stage.distill] lr``) and
beats the file's value; both go through one parse in :mod:`dagfm.config`.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import platform
import sys
from pathlib import Path

from .checkpoint import CheckpointError, build_model, load_checkpoint, save_checkpoint
from .config import TEACHER_KINDS, RunConfig, load_config, parse_config
from .data import (
    Dataset,
    FieldSchema,
    ParseError,
    SchemaError,
    load_dataset,
    read_csv,
    split_dataset,
)
from .distill import (
    distill_student,
    evaluate,
    finetune_student,
    train_teacher,
)
from .interactions import KINDS
from .metrics import UndefinedMetricError, efficiency_report
from .movielens import convert_movielens
from .numcore import ConfigurationError, TrainingDivergenceError
from .oracle import assert_dp_equivalence

_USER_ERRORS = (
    ConfigurationError,
    SchemaError,
    ParseError,
    CheckpointError,
    UndefinedMetricError,
    TrainingDivergenceError,
    # a path setting that names no readable file
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


# glibc's mallopt parameters, and the thresholds main pins: blocks from 32 MiB
# up are mapped, and the heap is trimmed only past 64 MiB free at its top
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _pin_malloc() -> None:
    """Fix glibc's malloc thresholds; nothing where there is no glibc.

    Left to itself, glibc raises the thresholds as large blocks are freed and
    trims the heap as soon as its top is free, so a model whose working set is
    freed between calls can have its pages trimmed and faulted in again on
    every call, as when ``eval`` scores an m=39 CSV tile by tile."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _config(args) -> RunConfig:
    """The ``--config`` file's settings with every flag given over them: each
    flag in ``args.keys`` is an alias of one INI key, parsed in one place."""
    flags = [
        (flag, section, key, getattr(args, _dest(flag)))
        for flag, (section, key) in args.keys.items()
        if getattr(args, _dest(flag)) is not None
    ]
    return load_config(args.config, flags) if args.config else parse_config("", flags)


def _read_data(cfg: RunConfig, args, model=None) -> tuple[FieldSchema, Dataset]:
    """The ``--data`` CSV's schema and dataset. The schema is the explicit
    one, else (for a ``model`` loaded from ``--checkpoint``) the one saved
    next to it, else the one the data defines, read in the same pass as the
    rows; it must fit ``model``."""
    near = Path(args.checkpoint).parent / "schema.json" if model is not None else None
    given = cfg.schema_path or (near if near is not None and near.exists() else None)
    if given:
        schema = FieldSchema.load(given)
    else:
        schema, dataset = read_csv(cfg.train_csv, min_freq=cfg.min_freq)
    if model is not None and schema.vocab_sizes() != model.vocab_sizes:
        raise SchemaError(f"schema vocab sizes {schema.vocab_sizes()} do not match "
                          f"{args.checkpoint}'s {model.vocab_sizes}")
    if given:
        dataset = load_dataset(cfg.train_csv, schema)
    return schema, dataset


def _stage_setup(args):
    """The prologue of every training stage: the config, the ``--checkpoint``
    model if the stage reads one, the schema, the seeded split, and then the
    output directory with the schema saved next to the stage's checkpoint.
    Every input is read and checked before anything is written."""
    cfg = _config(args)
    if cfg.train_csv is None:
        raise ConfigurationError("--data (or [data] train_csv) is required")
    model = load_checkpoint(args.checkpoint) if "checkpoint" in args else None
    schema, dataset = _read_data(cfg, args, model)
    split = split_dataset(dataset, ratios=cfg.split_ratios, seed=cfg.split_seed)
    for name, part in (("val", split.val), ("test", split.test)):  # the stage reports their AUCs
        if len(set(part.labels.tolist())) < 2:
            raise SchemaError(f"the {name} split holds one label at split {cfg.split_ratios} "
                              f"and split_seed {cfg.split_seed}: its AUC is undefined")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema.save(out_dir / "schema.json")
    return cfg, model, out_dir, schema, split


def _finish_stage(model, report, split, out_dir: Path, ckpt_name: str) -> int:
    """Save the checkpoint, score the test split and emit ``<stage>_report.json``."""
    ckpt = out_dir / ckpt_name
    save_checkpoint(model, ckpt)
    test = evaluate(model, split.test)
    _emit(
        {
            "stage": report.stage,
            "epochs_run": len(report.epochs),
            "best_epoch": report.best_epoch,
            "best_val_auc": report.best_val_auc,
            "wall_time_s": report.wall_time_s,
            "checkpoint": str(ckpt),
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_train_teacher(args) -> int:
    cfg, _, out_dir, schema, split = _stage_setup(args)
    model = build_model(cfg.teacher_spec(schema.m), schema.vocab_sizes(), seed=cfg.seed)
    report = train_teacher(
        model, split, cfg.plan.teacher_stage, log_path=out_dir / "teacher_epochs.jsonl"
    )
    return _finish_stage(model, report, split, out_dir, "teacher.ckpt")


def _cmd_distill(args) -> int:
    cfg, teacher, out_dir, schema, split = _stage_setup(args)
    student = build_model(cfg.student_spec(teacher.spec), schema.vocab_sizes(), seed=cfg.seed)
    (stage,) = cfg.plan.distill_stages  # an INI config holds one chunk
    report = distill_student(
        student,
        teacher,
        split,
        stage,
        alpha=cfg.plan.alpha,
        beta=cfg.plan.beta,
        log_path=out_dir / "distill_epochs.jsonl",
    )
    return _finish_stage(student, report, split, out_dir, "student.ckpt")


def _cmd_finetune(args) -> int:
    cfg, student, out_dir, _, split = _stage_setup(args)
    report = finetune_student(
        student, split, cfg.plan.finetune_stage, log_path=out_dir / "finetune_epochs.jsonl"
    )
    return _finish_stage(student, report, split, out_dir, "student_finetuned.ckpt")


def _cmd_eval(args) -> int:
    cfg = _config(args)
    if cfg.train_csv is None and cfg.schema_path is not None:
        raise ConfigurationError("--schema needs --data (or [data] train_csv) to score")
    model = load_checkpoint(args.checkpoint)
    payload = {"auc": None, "logloss": None, "n": None, **efficiency_report(model).as_dict()}
    if cfg.train_csv is not None:
        result = evaluate(model, _read_data(cfg, args, model)[1])
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
    n = convert_movielens(args.dir, args.out)
    print(json.dumps({"instances": n, "out": str(args.out)}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _key(p, flag: str, section: str, key: str, **kwargs) -> None:
    """Add ``flag`` as an alias of the INI key ``[section] key``."""
    p.add_argument(flag, dest=_dest(flag), **kwargs)
    p.set_defaults(keys={**p.get_default("keys"), flag: (section, key)})


def _add_common(p, stage: str | None = None, *, seed: bool = False,
                checkpoint: bool = False) -> None:
    """The shared flags; a training ``stage`` also gets ``--out``, ``--split``
    and the keys of its ``[stage.<stage>]`` section."""
    p.set_defaults(keys={})
    p.add_argument("--config", help="INI config file")
    if seed:
        _key(p, "--seed", "run", "seed", type=int, help="model init seed")
    _key(p, "--data", "data", "train_csv", help="CSV dataset (label,f1,...,fm)")
    _key(p, "--schema", "data", "schema", help="schema JSON (else built from the data)")
    _key(p, "--min-freq", "data", "min_freq", type=int,
         help="vocabulary frequency threshold")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    if stage is None:
        p.add_argument("--out", help="output file")
        return
    _key(p, "--out", "run", "out_dir", help="output directory")
    _key(p, "--split", "data", "split", help="train,val,test ratios, e.g. 0.8,0.1,0.1")
    section = f"stage.{stage}"
    _key(p, "--epochs", section, "epochs", type=int, help="stage epochs")
    _key(p, "--lr", section, "lr", type=float, help="stage learning rate")
    _key(p, "--batch-size", section, "batch_size", type=int, help="stage batch size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagfm", description="DAG factorization machine distillation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: a removed flag such as distill's old ``--d`` is an
    # unrecognised argument, not an abbreviation of ``--data`` or ``--depth``
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("train-teacher", help="stage 1: train a teacher")
    _add_common(p, "teacher", seed=True)
    _key(p, "--teacher", "teacher", "kind", choices=TEACHER_KINDS)
    _key(p, "--d", "teacher", "embed_dim", type=int, help="embedding dimension")
    _key(p, "--depth", "teacher", "depth", type=int, help="teacher depth")
    p.set_defaults(func=_cmd_train_teacher)

    p = add("distill", help="stage 2: distill a student")
    _add_common(p, "distill", seed=True, checkpoint=True)
    _key(p, "--fn", "student", "fn", choices=KINDS, help="student interaction function")
    _key(p, "--depth", "student", "num_layers", type=int, help="student propagation layers")
    _key(p, "--alpha", "kd", "alpha", type=float, help="KD loss weight")
    _key(p, "--beta", "kd", "beta", type=float, help="CTR loss weight")
    p.set_defaults(func=_cmd_distill)

    p = add("finetune", help="stage 3: fine-tune a student")
    _add_common(p, "finetune", checkpoint=True)
    p.set_defaults(func=_cmd_finetune)

    p = add("eval", help="params/FLOPs report, plus AUC/logloss with --data")
    _add_common(p, checkpoint=True)
    p.set_defaults(func=_cmd_eval)

    p = add("oracle-check", help="propagation vs enumeration table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--fn", choices=KINDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_oracle_check)

    p = add("convert-movielens", help="join ml-1m .dat files into CSV")
    p.add_argument("--dir", required=True, help="ml-1m directory with ratings/users/movies.dat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert_movielens)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _pin_malloc()
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

"""Three-stage teacher→student training pipeline.

Stage 1 trains a teacher on the CTR objective alone. Stage 2 copies the
teacher's embedding table into the student, freezes it (and never touches
the teacher), and trains the remaining student parameters against
``alpha * kd + beta * ctr``. Stage 3 unfreezes everything and fine-tunes the
student on the CTR objective. :func:`run_pipeline` runs the three stages of
a :class:`DistillPlan`, whose distill stage is a schedule of one or more
chunks.

Knowledge matching happens in logit space — mean squared error on
pre-sigmoid outputs — because probability-space MSE saturates through the
sigmoid; the DAGFM student is distilled with this loss (arXiv 2211.11159).

Every training step runs its batch in row tiles of :data:`TRAIN_ROWS`: one
forward and backward per tile, each tile's loss and gradient weighted by its
share of the batch, then one Adam step on the summed gradients. The step is
the batch step, while its working set stays one tile's whatever the batch
size; scoring runs in tiles of :data:`SCORE_ROWS` the same way, through
``Model.score``, which keeps no backward tape and leaves the latest
training tape alone. The embedding table's gradient holds only the rows the
batch touched (tiles sum over the union of their rows), and the Adam step
moves only those rows, so a step costs what its batch touches, not what the
vocabulary holds; a row that a batch misses keeps its value and moments
through that step.

A step's gradients last for that step: each tile's are summed into the
batch's as its backward returns them, and the batch's are dropped once
``adam_step`` has consumed them, so no forward runs while an earlier step's
gradients are alive. A parameter's Adam moments last from its first update
until a stage rewinds to its best epoch (the teacher and fine-tune stages):
they describe the last epoch's weights, not the restored ones, so the stage
releases them, and the model it hands back holds what its checkpoint holds.
The distill stage keeps the final epoch and its moments, which fine-tuning
continues.

Each stage writes one JSON line per epoch: {"epoch", "loss", "val_auc",
"val_logloss"} with sorted keys and no timestamps, so a seeded rerun
produces byte-identical logs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, DatasetSplit, iterate_batches
from .metrics import auc as auc_metric
from .metrics import logloss as logloss_metric
from .numcore import (
    ConfigurationError,
    TrainingDivergenceError,
    adam_step,
    check_int,
    check_nonnegative,
    stable_sigmoid,
)

CTR_CLIP = 1e-7


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def kd_loss(teacher_logits, student_logits) -> float:
    """Mean squared difference between teacher and student outputs."""
    t = np.asarray(teacher_logits, dtype=np.float64)
    s = np.asarray(student_logits, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1 or t.size < 1:
        raise ConfigurationError(
            f"teacher {t.shape} and student {s.shape} outputs must be equal-length vectors"
        )
    return float(np.mean((t - s) ** 2))


def ctr_loss(labels, probs) -> float:
    """Mean binary cross entropy; probabilities clipped to [1e-7, 1 - 1e-7]."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if y.shape != p.shape or y.ndim != 1 or y.size < 1:
        raise ConfigurationError(
            f"labels {y.shape} and probabilities {p.shape} must be equal-length vectors"
        )
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigurationError("labels must be 0 or 1")
    p = np.clip(p, CTR_CLIP, 1.0 - CTR_CLIP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def total_loss(kd: float, ctr: float, alpha: float, beta: float) -> float:
    """Weighted stage-2 objective ``alpha * kd + beta * ctr``."""
    check_nonnegative("alpha", alpha)
    check_nonnegative("beta", beta)
    return alpha * kd + beta * ctr


def _ctr_loss_and_grad(labels, logits) -> tuple[float, np.ndarray]:
    """CTR loss from logits plus its exact gradient (zero where the
    probability clip is active, so finite differences agree)."""
    y = np.asarray(labels, dtype=np.float64)
    p = stable_sigmoid(logits)
    loss = ctr_loss(y, p)
    inside = (p > CTR_CLIP) & (p < 1.0 - CTR_CLIP)
    dlogits = np.where(inside, (p - y), 0.0) / y.size
    return loss, dlogits


def _kd_loss_and_grad(teacher_logits, student_logits) -> tuple[float, np.ndarray]:
    """Logit-space KD loss and its gradient with respect to the student."""
    t = np.asarray(teacher_logits, dtype=np.float64)
    s = np.asarray(student_logits, dtype=np.float64)
    loss = kd_loss(t, s)
    dlogits = 2.0 * (s - t) / s.size
    return loss, dlogits


def _ctr_batch_loss(logits, labels, rows) -> tuple[float, np.ndarray]:
    """The batch loss of the CTR-only stages, teacher training and fine-tuning."""
    return _ctr_loss_and_grad(labels, logits)


def _check_kd_settings(alpha: float, beta: float) -> None:
    """Reject stage-2 settings before anything is copied, frozen or scored."""
    check_nonnegative("alpha", alpha)
    check_nonnegative("beta", beta)
    if alpha == 0 and beta == 0:
        raise ConfigurationError("alpha and beta cannot both be zero")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageConfig:
    """One training stage. ``patience`` is the number of epochs without a
    validation-AUC improvement before stopping early (0 disables early
    stopping); ``weight_decay`` is a classic L2 term added to gradients.
    On the embedding table it decays only the rows a batch touches, so a
    row that no training batch touches keeps its initial value."""

    epochs: int
    lr: float
    batch_size: int = 1024
    patience: int = 3
    weight_decay: float = 0.0
    shuffle_seed: int = 0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_nonnegative("lr", self.lr)
        check_int("batch_size", self.batch_size, 1)
        check_int("patience", self.patience, 0)
        check_nonnegative("weight_decay", self.weight_decay)
        check_int("shuffle_seed", self.shuffle_seed, 0)


@dataclass(frozen=True)
class DistillPlan:
    """Weights and per-stage settings of the full pipeline.

    ``distill_stages`` is the distillation schedule: one ``distill_student``
    call per chunk, in order, so a learning-rate drop is two chunks.
    """

    teacher_stage: StageConfig
    distill_stages: tuple[StageConfig, ...]
    finetune_stage: StageConfig
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        stages = self.distill_stages
        if not isinstance(stages, tuple) or not stages \
                or not all(isinstance(s, StageConfig) for s in stages):
            raise ConfigurationError(
                f"distill_stages must be a non-empty tuple of StageConfig, got {stages!r}"
            )
        _check_kd_settings(self.alpha, self.beta)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    val_auc: float
    val_logloss: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class TrainReport:
    stage: str
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auc: float = float("nan")
    wall_time_s: float = 0.0


# ---------------------------------------------------------------------------
# prediction / evaluation
# ---------------------------------------------------------------------------

# Rows per scoring call, for every model family. A fixed tile bounds a
# scoring call's working set by one tile whatever the input size, and a
# scoring call keeps nothing once it returns; at 256 rows the m=39 student's
# state buffer and `S` arrays stay near the caches while per-call overhead
# stays small. Rows are independent, so logits do not depend on it.
SCORE_ROWS = 256


def predict_logits(model, indices: np.ndarray) -> np.ndarray:
    """Logits for every row of ``indices``, in input order, computed one
    ``score`` per tile of :data:`SCORE_ROWS` rows: ``forward``'s logits,
    with no tape kept. Empty ``indices`` are one empty tile, which
    ``score`` checks as it checks any batch."""
    indices = np.asarray(indices)
    return np.concatenate([
        model.score(indices[start : start + SCORE_ROWS])
        for start in range(0, max(len(indices), 1), SCORE_ROWS)
    ])


@dataclass(frozen=True)
class EvalResult:
    auc: float
    logloss: float
    n: int


def evaluate(model, dataset: Dataset) -> EvalResult:
    logits = predict_logits(model, dataset.indices)
    probs = stable_sigmoid(logits)
    return EvalResult(
        auc=auc_metric(dataset.labels, probs),
        logloss=logloss_metric(dataset.labels, probs),
        n=len(dataset),
    )


# ---------------------------------------------------------------------------
# the stage runner
# ---------------------------------------------------------------------------

# Rows per training tile. A batch runs forward and backward one tile at a
# time, so a training step's working set (the student's state buffer, CrossNet's
# activations, CIN's intermediates) is bounded by one tile, not by the batch.
# 512 and not fewer: every tile streams the weights again, and at m=39 a
# CrossNet step in 256-row tiles is slower than in one 512-row call.
TRAIN_ROWS = 512


def _tiled_step(model, idx, labels, rows, batch_loss_fn):
    """One batch's loss and summed parameter gradients, from one forward and
    backward per :data:`TRAIN_ROWS`-row tile.

    ``batch_loss_fn`` returns a mean loss and its gradient, so each tile's
    loss and ``dlogits`` are weighted by the tile's share of the batch; the
    sums are then the whole batch's. The table's row gradients sum over the
    union of the tiles' rows.
    A batch of one tile has share 1.0 and is computed exactly as a single
    forward and backward. No name holds a tile's gradients once they are
    summed, so the next tile's forward runs without them.
    """
    n = len(labels)
    loss, grads = 0.0, None
    for lo in range(0, n, TRAIN_ROWS):
        tile = slice(lo, lo + TRAIN_ROWS)
        share = (min(n, lo + TRAIN_ROWS) - lo) / n
        tile_loss, dlogits = batch_loss_fn(model.forward(idx[tile]), labels[tile], rows[tile])
        loss += share * tile_loss
        grads = _summed(grads, model.backward(share * dlogits))
    return loss, grads


def _summed(grads, tile_grads):
    """``grads`` with ``tile_grads`` added in, or ``tile_grads`` for the
    batch's first tile."""
    if grads is None:
        return tile_grads
    for name, g in tile_grads.items():
        grads[name] += g
    return grads


def _train_step(model, idx, labels, rows, batch_loss_fn, stage: StageConfig) -> float:
    """One batch's loss, and, when it is finite, one Adam step on the
    batch's gradients, which end with this call."""
    loss, grads = _tiled_step(model, idx, labels, rows, batch_loss_fn)
    if np.isfinite(loss):
        adam_step(model.store, grads, stage.lr, weight_decay=stage.weight_decay)
    return loss


def _run_stage(
    model,
    split: DatasetSplit,
    stage: StageConfig,
    batch_loss_fn,
    stage_name: str,
    log_path=None,
    restore_best: bool = True,
) -> TrainReport:
    """Epoch loop shared by all three stages.

    ``batch_loss_fn(logits, labels, rows) -> (loss, dlogits)`` defines the
    objective as a mean over the rows it is given, one training tile of a
    batch; ``rows`` are their original train-set positions.
    With ``restore_best`` the incoming parameter state counts as epoch 0,
    so the restored best state can never have a worse validation AUC than
    the input model.  ``restore_best=False`` keeps the final epoch's state
    (the report still records the argmax-validation-AUC epoch); this is
    what the distillation stage uses, where the objective is matching the
    teacher rather than maximising validation AUC. A restoring stage also
    releases the moments, which describe the final epoch's weights.
    """
    t0 = time.perf_counter()
    report = TrainReport(stage=stage_name)

    def diverged(what: str, epoch: int) -> TrainingDivergenceError:
        report.wall_time_s = time.perf_counter() - t0
        err = TrainingDivergenceError(f"{stage_name}: non-finite {what} at epoch {epoch}")
        err.report = report
        return err

    bad = [n for n in model.store.names() if not np.isfinite(model.store[n]).all()]
    if bad:
        raise diverged(f"parameters {bad}", 0)
    start = evaluate(model, split.val)
    best_auc, best_epoch = start.auc, 0
    best_snap = model.store.snapshot() if restore_best else None
    n_train = len(split.train)
    log = open(log_path, "w") if log_path is not None else None
    try:
        for epoch in range(1, stage.epochs + 1):
            total = 0.0
            for rows, idx, labels in iterate_batches(
                split.train,
                stage.batch_size,
                seed=stage.shuffle_seed + epoch,
                with_positions=True,
            ):
                loss = _train_step(model, idx, labels, rows, batch_loss_fn, stage)
                if not np.isfinite(loss):
                    raise diverged("loss", epoch)
                total += loss * len(labels)
            val = evaluate(model, split.val)
            record = EpochRecord(epoch, total / n_train, val.auc, val.logloss)
            report.epochs.append(record)
            if log is not None:
                log.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
                log.flush()
            if val.auc > best_auc:
                best_auc, best_epoch = val.auc, epoch
                if restore_best:
                    best_snap = None  # the old copy goes before the new one is made
                    best_snap = model.store.snapshot()
            elif epoch - best_epoch >= stage.patience > 0:
                break
    finally:
        if log is not None:
            log.close()
    if restore_best:
        model.store.release_moments()  # before the restore copies the snapshot in
        model.store.restore(best_snap)
    report.best_epoch = best_epoch
    report.best_val_auc = best_auc
    report.wall_time_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def train_teacher(
    model, split: DatasetSplit, stage: StageConfig, log_path=None
) -> TrainReport:
    """Stage 1: CTR objective only, every parameter trainable."""
    return _run_stage(model, split, stage, _ctr_batch_loss, "teacher", log_path)


def distill_student(
    student,
    teacher,
    split: DatasetSplit,
    stage: StageConfig,
    alpha: float = 1.0,
    beta: float = 0.0,
    log_path=None,
) -> TrainReport:
    """Stage 2: copy the teacher's embeddings into the student, freeze them,
    and train the rest against the weighted KD + CTR objective.

    The teacher is never updated; its train-set logits are computed once up
    front, which also guarantees they are constant across epochs.

    Unlike the other two stages this one keeps the final epoch's parameters
    instead of rewinding to the best-validation-AUC epoch: validation AUC
    saturates long before the student's outputs have converged onto the
    teacher's, and rewinding would discard most of that matching progress.
    """
    _check_distill(student, teacher, alpha, beta)
    teacher_logits = predict_logits(teacher, split.train.indices)
    return _distill_chunk(student, teacher, teacher_logits, split, stage, alpha, beta, log_path)


def _check_distill(student, teacher, alpha: float, beta: float) -> None:
    """Reject stage-2 settings, and tables the student cannot copy, before
    anything is copied, frozen or scored."""
    _check_kd_settings(alpha, beta)
    # every layout opens with one (sum(vocab sizes), embed_dim) table
    s_tables = (student.vocab_sizes, student.embed_dim)
    t_tables = (teacher.vocab_sizes, teacher.embed_dim)
    if s_tables != t_tables:
        raise ConfigurationError(
            f"embedding shape mismatch: student (vocab sizes, dim) {s_tables} vs teacher {t_tables}"
        )


def _distill_chunk(
    student, teacher, teacher_logits, split, stage, alpha, beta, log_path
) -> TrainReport:
    """One distill stage against ``teacher_logits``, the teacher's logits on
    the training split: copy and freeze the table, then train the rest."""
    student.store.set("emb", teacher.store["emb"])
    student.store.freeze("emb")

    def batch_loss(logits, labels, rows):
        kd, dkd = _kd_loss_and_grad(teacher_logits[rows], logits)
        if beta == 0.0:
            return alpha * kd, alpha * dkd
        ctr, dctr = _ctr_loss_and_grad(labels, logits)
        return total_loss(kd, ctr, alpha, beta), alpha * dkd + beta * dctr

    return _run_stage(
        student, split, stage, batch_loss, "distill", log_path, restore_best=False
    )


def finetune_student(
    student, split: DatasetSplit, stage: StageConfig, log_path=None
) -> TrainReport:
    """Stage 3: everything unfrozen, CTR objective only."""
    student.store.unfreeze_all()
    return _run_stage(student, split, stage, _ctr_batch_loss, "finetune", log_path)


@dataclass
class PipelineResult:
    """Stage reports keyed by log stem, plus test-split scores after each phase.

    ``kd_train`` is the train-set teacher-vs-student logit MSE after
    distillation; ``log_paths`` maps each stem to its ``*_epochs.jsonl`` file.
    """

    reports: dict[str, TrainReport]
    teacher_auc: float
    distilled_auc: float
    finetuned_auc: float
    kd_train: float
    wall_time_s: float
    log_paths: dict[str, Path]

    def summary(self) -> str:
        return (
            f"teacher test AUC      {self.teacher_auc:.4f}\n"
            f"distilled test AUC    {self.distilled_auc:.4f}"
            f"  (gap {self.teacher_auc - self.distilled_auc:+.4f})\n"
            f"fine-tuned test AUC   {self.finetuned_auc:.4f}\n"
            f"KD loss on train set  {self.kd_train:.6f}\n"
            f"wall time             {self.wall_time_s:.1f}s"
        )


def run_pipeline(
    teacher,
    student,
    split: DatasetSplit,
    plan: DistillPlan,
    log_dir=None,
) -> PipelineResult:
    """Train the teacher, distill the student chunk by chunk, fine-tune it.

    Log stems are ``teacher``, ``distill`` (``distill_phase1`` ...
    ``distill_phase<k>`` for a k-chunk schedule) and ``finetune``; with
    ``log_dir`` set, each stage writes ``<stem>_epochs.jsonl`` there.
    """
    t0 = time.perf_counter()
    chunks = len(plan.distill_stages)
    distill_stems = (
        ["distill"] if chunks == 1 else [f"distill_phase{k}" for k in range(1, chunks + 1)]
    )
    log_paths: dict[str, Path] = {}
    if log_dir is not None:
        log_dir = Path(log_dir)
        log_dir.mkdir(parents=True, exist_ok=True)
        for stem in ("teacher", *distill_stems, "finetune"):
            log_paths[stem] = log_dir / f"{stem}_epochs.jsonl"

    reports = {
        "teacher": train_teacher(teacher, split, plan.teacher_stage, log_paths.get("teacher"))
    }
    teacher_auc = evaluate(teacher, split.test).auc
    # the teacher no longer changes: its training split is scored once, for
    # every chunk and for kd_train
    _check_distill(student, teacher, plan.alpha, plan.beta)
    teacher_logits = predict_logits(teacher, split.train.indices)
    for stem, stage in zip(distill_stems, plan.distill_stages):
        reports[stem] = _distill_chunk(
            student, teacher, teacher_logits, split, stage, plan.alpha, plan.beta,
            log_paths.get(stem),
        )
    distilled_auc = evaluate(student, split.test).auc
    kd_train = kd_loss(teacher_logits, predict_logits(student, split.train.indices))
    reports["finetune"] = finetune_student(
        student, split, plan.finetune_stage, log_paths.get("finetune")
    )
    return PipelineResult(
        reports=reports,
        teacher_auc=teacher_auc,
        distilled_auc=distilled_auc,
        finetuned_auc=evaluate(student, split.test).auc,
        kd_train=kd_train,
        wall_time_s=time.perf_counter() - t0,
        log_paths=log_paths,
    )

"""Release acceptance gate: one test per criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -rA`` to see the measured values
behind every criterion (``-rA`` shows the captured report lines for passing
tests too).  The synthetic distillation pipeline (criteria 4 and 8) runs
twice and takes a few minutes per run on one CPU core; everything else is
seconds.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from dagfm.interactions import DagfmPlusSpec, DagfmSpec, KINDS, phi_kernel, phi_outer
from dagfm.metrics import count_flops, instrumented_flops
from dagfm.oracle import assert_dp_equivalence, outer_kernel_equivalence
from dagfm.synthetic_experiment import run_experiment
from dagfm.teachers import (
    CinSpec,
    CrossNetSpec,
    FmfmSpec,
    FwfmSpec,
    TinyMlpSpec,
)
from dagfm.checkpoint import build_model

from conftest import MODEL_TAGS, grad_error, random_small_model, squared_logit_closure


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: propagation equals brute-force enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_dp_equivalence_grid():
    t0 = time.perf_counter()
    worst = 0.0
    configs = 0
    for kind in KINDS:
        for m in range(2, 6):
            for d in range(1, 4):
                for depth in range(1, 4):
                    r = assert_dp_equivalence(kind, m, d, depth, tol=1e-10)
                    worst = max(worst, r.max_deviation)
                    configs += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        1,
        ok,
        f"max relative deviation {worst:.3e} over {configs} configs "
        f"(tol 1e-10) in {elapsed:.2f}s (budget 10s)",
    )
    assert worst < 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: outer combiner == rank-1 kernel combiner
# ---------------------------------------------------------------------------


def test_criterion_2_outer_kernel_identity():
    rng = np.random.default_rng(2)
    worst_phi = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        a, b, p, q = (rng.normal(size=d) for _ in range(4))
        lhs = phi_outer(a, b, p, q)
        rhs = phi_kernel(a, b, np.outer(p, q))
        worst_phi = max(worst_phi, float(np.max(np.abs(lhs - rhs))))
    worst_prop = 0.0
    for m in (2, 3, 4):
        for d in (1, 2, 3):
            for depth in (1, 2, 3):
                worst_prop = max(
                    worst_prop,
                    outer_kernel_equivalence(m, d, depth, seed=100 * m + 10 * d + depth),
                )
    ok = worst_phi <= 1e-12 and worst_prop <= 1e-10
    report(
        2,
        ok,
        f"combiner-level max |diff| {worst_phi:.3e} over 1000 cases (tol 1e-12); "
        f"propagation-level max deviation {worst_prop:.3e} over 27 configs (tol 1e-10)",
    )
    assert worst_phi <= 1e-12
    assert worst_prop <= 1e-10


# ---------------------------------------------------------------------------
# criterion 3: gradient checks across every model family
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    # models and sampled coordinates come from separate generators, so a
    # change in a family's parameter shapes does not re-draw later models
    rng = np.random.default_rng(3)
    coords_rng = np.random.default_rng(4)
    worst = 0.0
    worst_tag = ""
    per_family = 20
    for tag in MODEL_TAGS:
        for _ in range(per_family):
            model, idx, labels = random_small_model(tag, rng)
            err = grad_error(squared_logit_closure(model, idx, labels), model, coords_rng)
            if err > worst:
                worst, worst_tag = err, tag
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(
        3,
        ok,
        f"max relative gradient error {worst:.3e} (worst family: {worst_tag}) over "
        f"{len(MODEL_TAGS)} families x {per_family} configs (tol 1e-4) "
        f"in {elapsed:.1f}s (budget 60s)",
    )
    assert worst <= 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criteria 4 + 8: the synthetic distillation pipeline, run twice
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    runs = []
    for k in range(2):
        log_dir = tmp_path_factory.mktemp(f"pipeline{k}")
        runs.append((run_experiment(log_dir=log_dir), log_dir))
    return runs


def test_criterion_4_synthetic_distillation(pipeline_runs):
    result, _ = pipeline_runs[0]
    floor_a = result.teacher_auc - 0.005
    floor_b = result.distilled_auc - 0.002
    ok = (
        result.distilled_auc >= floor_a
        and result.finetuned_auc >= floor_b
        and result.kd_train <= 1e-2
        and result.wall_time_s < 1200.0
    )
    report(
        4,
        ok,
        f"teacher AUC {result.teacher_auc:.4f}; "
        f"distilled {result.distilled_auc:.4f} (need >= {floor_a:.4f}); "
        f"fine-tuned {result.finetuned_auc:.4f} (need >= {floor_b:.4f}); "
        f"KD loss {result.kd_train:.5f} (need <= 0.01); "
        f"{result.wall_time_s:.0f}s (budget 1200s)",
    )
    assert result.distilled_auc >= floor_a
    assert result.finetuned_auc >= floor_b
    assert result.kd_train <= 1e-2
    assert result.wall_time_s < 1200.0


# ---------------------------------------------------------------------------
# criterion 5: FLOPs ratio at production-like sizes
# ---------------------------------------------------------------------------


def test_criterion_5_efficiency_ratio():
    cin = count_flops(CinSpec(39, 16, (200, 200, 200))).total
    student = count_flops(DagfmSpec("inner", 39, 16, 3)).total
    ratio = cin / student
    ok = ratio >= 10.0
    report(
        5,
        ok,
        f"FLOPs(CIN m=39 d=16 H=200 depth 3) / FLOPs(student-inner) = "
        f"{cin:,} / {student:,} = {ratio:.1f}x (need >= 10x)",
    )
    assert ratio >= 10.0


# ---------------------------------------------------------------------------
# criterion 6: closed-form FLOPs equal instrumented counts exactly
# ---------------------------------------------------------------------------


def _criterion_6_specs(m: int, d: int):
    for kind in KINDS:
        for layers in (1, 2):
            yield DagfmSpec(kind, m, d, layers)
    for feed in ("all-states", "final-state"):
        yield DagfmPlusSpec(DagfmSpec("inner", m, d, 1), mlp_hidden=(4, 3), mlp_feed=feed)
    yield CinSpec(m, d, (3, 2))
    yield CrossNetSpec(m, d, 2)
    yield FwfmSpec(m, d)
    yield FmfmSpec(m, d)
    yield TinyMlpSpec(m, d, hidden=(4, 3))


def test_criterion_6_flops_counter_exactness():
    rng = np.random.default_rng(6)
    mismatches = []
    checked = 0
    for m in range(2, 6):
        for d in range(1, 5):
            vocab = [3] * m
            for spec in _criterion_6_specs(m, d):
                model = build_model(spec, vocab, seed=checked)
                idx_row = rng.integers(0, 3, size=m)
                _, counted = instrumented_flops(model, idx_row)
                closed = count_flops(spec)
                checked += 1
                if counted != closed:
                    mismatches.append((type(spec).__name__, m, d, closed, counted))
    ok = not mismatches
    report(
        6,
        ok,
        f"closed-form == instrumented for {checked} model configs at m<=5, d<=4 "
        f"(zero tolerance); mismatches: {mismatches if mismatches else 'none'}",
    )
    assert mismatches == []


# ---------------------------------------------------------------------------
# criterion 7 (optional stretch, reported but never gated): MovieLens-1M
# ---------------------------------------------------------------------------


def _find_ml1m() -> Path | None:
    env = os.environ.get("DAGFM_ML1M_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ml-1m")
    for c in candidates:
        if c.is_dir() and (c / "ratings.dat").exists():
            return c
    return None


def test_criterion_7_movielens_stretch(tmp_path):
    ml_dir = _find_ml1m()
    if ml_dir is None:
        pytest.skip(
            "[criterion 7] SKIP - MovieLens-1M not present (set DAGFM_ML1M_DIR "
            "or place it under data/ml-1m); informational only, never gates"
        )
    t0 = time.perf_counter()
    from dagfm.movielens import convert_movielens
    from dagfm.data import build_vocab, load_dataset, split_dataset
    from dagfm.distill import StageConfig, distill_student, evaluate, finetune_student, train_teacher
    from dagfm.interactions import DagfmModel
    from dagfm.teachers import CrossNetModel

    csv = tmp_path / "ml1m.csv"
    convert_movielens(ml_dir, csv)
    schema = build_vocab(csv, min_freq=0)
    split = split_dataset(load_dataset(csv, schema), seed=42)
    teacher = CrossNetModel(CrossNetSpec(7, 16, 3), schema.vocab_sizes(), seed=0)
    train_teacher(teacher, split, StageConfig(epochs=6, lr=1e-3, batch_size=2048, weight_decay=3e-4))
    student = DagfmModel(DagfmSpec("outer", 7, 16, 3), schema.vocab_sizes(), seed=0)
    distill_student(student, teacher, split, StageConfig(epochs=8, lr=3e-3, batch_size=2048, patience=0))
    finetune_student(student, split, StageConfig(epochs=3, lr=1e-4, batch_size=2048))
    auc = evaluate(student, split.test).auc
    elapsed = time.perf_counter() - t0
    gap = abs(auc - 0.8976)
    report(
        7,
        True,
        f"fine-tuned test AUC {auc:.4f}, |gap to 0.8976| = {gap:.4f} "
        f"(target within 0.03, informational only) in {elapsed/60:.1f} min",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical epoch reports across seeded reruns
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(pipeline_runs):
    (res1, dir1), (res2, dir2) = pipeline_runs
    stages = ("teacher", "distill_phase1", "distill_phase2", "finetune")
    diffs = []
    for stage in stages:
        b1 = (dir1 / f"{stage}_epochs.jsonl").read_bytes()
        b2 = (dir2 / f"{stage}_epochs.jsonl").read_bytes()
        if b1 != b2:
            diffs.append(stage)
    same_metrics = (
        res1.teacher_auc == res2.teacher_auc
        and res1.distilled_auc == res2.distilled_auc
        and res1.finetuned_auc == res2.finetuned_auc
        and res1.kd_train == res2.kd_train
    )
    ok = not diffs and same_metrics
    report(
        8,
        ok,
        f"{len(stages)} per-epoch logs byte-identical across two seeded runs"
        + ("" if ok else f"; differing stages: {diffs}, metrics equal: {same_metrics}"),
    )
    assert diffs == []
    assert same_metrics

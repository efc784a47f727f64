"""Losses, stage runner semantics, and the three-stage pipeline."""

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import MODEL_TAGS, held_moments, perturb_params, store_state

from dagfm.checkpoint import build_model, load_checkpoint, save_checkpoint
from dagfm.data import DatasetSplit, iterate_batches, split_dataset
from dagfm.distill import (
    SCORE_ROWS,
    TRAIN_ROWS,
    DistillPlan,
    EpochRecord,
    StageConfig,
    _ctr_loss_and_grad,
    _kd_loss_and_grad,
    _tiled_step,
    ctr_loss,
    distill_student,
    evaluate,
    finetune_student,
    kd_loss,
    predict_logits,
    run_pipeline,
    total_loss,
    train_teacher,
)
from dagfm.interactions import DagfmModel, DagfmPlusSpec, DagfmSpec
from dagfm.numcore import (
    ConfigurationError,
    RowGrad,
    ShapeError,
    TrainingDivergenceError,
    adam_step,
)
from dagfm.synthetic import generate_planted_dataset
from dagfm.teachers import (
    CinSpec,
    CrossNetModel,
    CrossNetSpec,
    FmfmSpec,
    FwfmSpec,
    TinyMlpSpec,
)


@pytest.fixture(scope="module")
def tiny():
    schema, ds, _ = generate_planted_dataset(3000, m=4, vocab_size=8, seed=1)
    return schema.vocab_sizes(), split_dataset(ds, seed=7)


@pytest.fixture(scope="module")
def teacher(tiny):
    vocab_sizes, split = tiny
    model = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
    train_teacher(model, split, StageConfig(epochs=6, lr=0.03, batch_size=256, patience=0))
    return model


def fresh_student(vocab_sizes, seed=3):
    return DagfmModel(DagfmSpec("inner", 4, 4, 2), vocab_sizes, seed=seed)


def store_bytes(model):
    return {name: model.store[name].tobytes() for name in model.store.names()}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestLosses:
    def test_kd_examples(self):
        assert kd_loss([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
        assert kd_loss([0.3], [0.1]) == pytest.approx(0.04)
        assert kd_loss([2.0, -1.0], [2.0, -1.0]) == 0.0

    def test_kd_validation(self):
        with pytest.raises(ConfigurationError):
            kd_loss([1.0, 2.0], [1.0])
        with pytest.raises(ConfigurationError):
            kd_loss([], [])

    def test_ctr_examples(self):
        assert ctr_loss([1], [0.5]) == pytest.approx(math.log(2.0), abs=1e-6)
        assert ctr_loss([1, 0], [0.9, 0.2]) == pytest.approx(0.164252, abs=1e-6)

    def test_ctr_clips_extreme_probabilities(self):
        assert ctr_loss([1], [0.0]) == pytest.approx(-math.log(1e-7), rel=1e-6)
        assert np.isfinite(ctr_loss([0], [1.0]))

    def test_ctr_validation(self):
        with pytest.raises(ConfigurationError):
            ctr_loss([0.5], [0.5])
        with pytest.raises(ConfigurationError):
            ctr_loss([1, 0], [0.5])

    def test_total_loss_example(self):
        assert total_loss(0.04, 0.693147, alpha=1.0, beta=10.0) == pytest.approx(
            6.97147, abs=1e-5
        )
        assert total_loss(0.5, 0.7, alpha=0.0, beta=1.0) == pytest.approx(0.7)

    def test_total_loss_validation(self):
        with pytest.raises(ConfigurationError):
            total_loss(0.1, 0.1, alpha=-1.0, beta=0.0)
        with pytest.raises(ConfigurationError, match="beta"):
            total_loss(0.1, 0.1, alpha=1.0, beta=float("nan"))


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


class TestConfigs:
    def test_stage_defaults(self):
        stage = StageConfig(epochs=5, lr=1e-3)
        assert stage.batch_size == 1024
        assert stage.patience == 3
        assert stage.weight_decay == 0.0

    def test_stage_allows_zero_epochs_and_zero_lr(self):
        StageConfig(epochs=0, lr=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=-1, lr=1e-3),
            dict(epochs=1, lr=-0.1),
            dict(epochs=1, lr=1e-3, batch_size=0),
            dict(epochs=1, lr=1e-3, patience=-1),
            dict(epochs=1, lr=1e-3, weight_decay=-1e-4),
            dict(epochs=2.0, lr=1e-3),
            dict(epochs=1, lr=1e-3, batch_size=True),
            dict(epochs=1, lr=1e-3, patience=np.int64(3)),
            dict(epochs=1, lr=1e-3, shuffle_seed=-1),
        ],
    )
    def test_stage_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StageConfig(**kwargs)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_stage_rejects_non_finite(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            StageConfig(**{"epochs": 1, "lr": 1e-3, field: bad})

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_kd_weights_must_be_finite_and_nonnegative(self, field, bad, tiny):
        stage = StageConfig(epochs=1, lr=1e-3)
        with pytest.raises(ConfigurationError, match=field):
            DistillPlan(stage, (stage,), stage, **{field: bad})
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        with pytest.raises(ConfigurationError, match=field):
            distill_student(student, teacher, split, stage, **{field: bad})
        # rejected before the embedding copy and freeze
        assert student.store.is_trainable("emb")

    def test_plan_validation(self):
        stage = StageConfig(epochs=1, lr=1e-3)
        with pytest.raises(ConfigurationError, match="both be zero"):
            DistillPlan(stage, (stage,), stage, alpha=0.0, beta=0.0)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            DistillPlan(stage, (stage,), stage, alpha=-1.0)

    def test_plan_needs_a_schedule_of_stages(self):
        stage = StageConfig(epochs=1, lr=1e-3)
        # empty, a bare stage, a list, and a tuple holding a non-stage
        for bad in ((), stage, [stage, stage], (stage, 3)):
            with pytest.raises(ConfigurationError, match="distill_stages"):
                DistillPlan(stage, bad, stage)

    def test_epoch_record_dict(self):
        rec = EpochRecord(3, 0.5, 0.8, 0.45)
        assert rec.as_dict() == {
            "epoch": 3,
            "loss": 0.5,
            "val_auc": 0.8,
            "val_logloss": 0.45,
        }


# ---------------------------------------------------------------------------
# prediction / evaluation
# ---------------------------------------------------------------------------


# one small instance of every model family, on the 4-field ``tiny`` data
SCORED_FAMILIES = {
    "dagfm-outer": DagfmSpec("outer", 4, 4, 2),
    "dagfm-kernel": DagfmSpec("kernel", 4, 4, 2),
    "dagfm+": DagfmPlusSpec(DagfmSpec("inner", 4, 4, 2), mlp_hidden=(5, 4)),
    "crossnet": CrossNetSpec(4, 4, 2),
    "cin": CinSpec(4, 4, (3, 3)),
    "fwfm": FwfmSpec(4, 4),
    "fmfm": FmfmSpec(4, 4),
    "tinymlp": TinyMlpSpec(4, 4, hidden=(6, 5)),
}


class TestPredict:
    @pytest.mark.parametrize("spec", list(SCORED_FAMILIES.values()), ids=list(SCORED_FAMILIES))
    def test_matches_single_forward(self, tiny, spec):
        vocab_sizes, split = tiny
        model = build_model(spec, vocab_sizes, seed=3)
        perturb_params(model, np.random.default_rng(4))  # no zero head hides a path
        idx = split.train.indices[: 2 * SCORE_ROWS + 37]  # three tiles, the last one ragged
        assert len(idx) == 2 * SCORE_ROWS + 37
        assert np.allclose(predict_logits(model, idx), model.forward(idx), rtol=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [CrossNetSpec(4, 4, 2), DagfmSpec("outer", 4, 4, 2)],
        ids=["crossnet", "dagfm-outer"],
    )
    def test_tiles_over_different_rows_merge_to_the_whole_batch(self, spec):
        # a vocabulary far wider than a tile: each tile touches rows that the
        # others miss, and the merged table gradient covers their union
        vocab, n = 3000, 2 * TRAIN_ROWS + 37
        rng = np.random.default_rng(8)
        idx = rng.integers(0, vocab, size=(n, 4))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        model = perturbed(spec, [vocab] * 4)
        tile_rows = [
            np.unique(idx[lo : lo + TRAIN_ROWS] + vocab * np.arange(4)) for lo in (0, TRAIN_ROWS)
        ]
        assert not np.array_equal(*tile_rows)
        _, dlogits = _ctr_loss_and_grad(labels, model.forward(idx))
        whole = model.backward(dlogits)
        _, grads = _tiled_step(
            model, idx, labels, np.arange(n), lambda logits, y, rows: _ctr_loss_and_grad(y, logits)
        )
        assert np.array_equal(grads["emb"].rows, np.unique(idx + vocab * np.arange(4)))
        assert np.array_equal(grads["emb"].rows, whole["emb"].rows)
        assert_grads_close(grads, whole)

    def test_working_set_is_bounded_by_one_tile(self):
        # An m=39 student's state buffer and per-layer S arrays grow with the
        # rows of a forward; scoring 16 tiles must not cost more memory than
        # scoring one. Scoring keeps no tape and leaves the latest forward's
        # alone, so both peaks are measured from one starting state: a model
        # whose latest forward was of zero rows, which holds its weight
        # layouts and an empty tape.
        m = 39
        model = DagfmModel(DagfmSpec("outer", m, 16, 3), [10] * m, seed=0)
        idx = np.random.default_rng(0).integers(0, 10, size=(16 * SCORE_ROWS, m))

        def peak_bytes(rows):
            model.forward(idx[:0])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            predict_logits(model, idx[:rows])
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            one_tile = peak_bytes(SCORE_ROWS)
            many_tiles = peak_bytes(16 * SCORE_ROWS)
        finally:
            tracemalloc.stop()
        assert many_tiles < 1.5 * one_tile

    @pytest.mark.parametrize(
        "spec", [DagfmSpec("outer", 39, 16, 3), CrossNetSpec(39, 16, 3)], ids=["dagfm-outer", "crossnet"]
    )
    def test_scoring_keeps_no_memory(self, spec):
        # scoring through forward kept the last tile's tape (232 of 1,000
        # rows): 16.9 MB of the m=39 student, 8.1 MB of the cross network
        model = build_model(spec, [10] * 39, seed=0)
        idx = np.random.default_rng(0).integers(0, 10, size=(1000, 39))
        tracemalloc.start()
        try:
            predict_logits(model, idx[:1])  # lay the weights out
            before = tracemalloc.get_traced_memory()[0]
            logits = predict_logits(model, idx)
            kept = tracemalloc.get_traced_memory()[0] - before - logits.nbytes
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_empty_input(self, tiny, tag):
        # no rows, checked as score checks a batch
        vocab_sizes, _ = tiny
        model = build_model(TRAINED_FAMILIES[tag], vocab_sizes, seed=3)
        for bad in (np.zeros((0, 4), dtype=bool), np.zeros((0, 5), dtype=np.int64),
                    np.zeros((0, 4)), np.zeros(0, dtype=np.int64)):
            with pytest.raises(ShapeError):
                model.score(bad)
            with pytest.raises(ShapeError):
                predict_logits(model, bad)
        logits = predict_logits(model, np.zeros((0, 4), dtype=np.int64))
        assert (logits.dtype, logits.shape) == (np.float64, (0,))

    def test_evaluate_matches_metrics(self, tiny):
        from dagfm.metrics import auc, logloss
        from dagfm.numcore import stable_sigmoid

        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        result = evaluate(model, split.val)
        probs = stable_sigmoid(model.forward(split.val.indices))
        assert result.auc == pytest.approx(auc(split.val.labels, probs), abs=1e-14)
        assert result.logloss == pytest.approx(logloss(split.val.labels, probs), abs=1e-14)
        assert result.n == len(split.val)


# ---------------------------------------------------------------------------
# stage runner semantics
# ---------------------------------------------------------------------------


class TestStageRunner:
    def test_zero_lr_leaves_params_bitwise_unchanged(self, tiny):
        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        before = store_bytes(model)
        report = train_teacher(model, split, StageConfig(epochs=2, lr=0.0, patience=0))
        assert store_bytes(model) == before
        assert len(report.epochs) == 2
        # constant validation AUC: the incoming state stays the best
        assert report.best_epoch == 0

    def test_early_stopping_counts_from_best_epoch(self, tiny):
        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        report = train_teacher(model, split, StageConfig(epochs=10, lr=0.0, patience=2))
        # epoch 0 (input state) stays best; stop once epoch - best >= patience
        assert len(report.epochs) == 2

    def test_patience_zero_disables_early_stopping(self, tiny):
        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        report = train_teacher(model, split, StageConfig(epochs=4, lr=0.0, patience=0))
        assert len(report.epochs) == 4

    def test_zero_epochs_is_a_passthrough(self, tiny):
        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        before = store_bytes(model)
        report = train_teacher(model, split, StageConfig(epochs=0, lr=1e-3))
        assert report.epochs == []
        assert report.best_epoch == 0
        assert report.best_val_auc == pytest.approx(evaluate(model, split.val).auc)
        assert store_bytes(model) == before

    def test_teacher_stage_restores_best_validation_epoch(self, tiny):
        vocab_sizes, split = tiny
        model = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        report = train_teacher(
            model, split, StageConfig(epochs=6, lr=0.05, batch_size=256, patience=0)
        )
        recorded = [r.val_auc for r in report.epochs]
        # this seed peaks before the last epoch, so the rewind is observable
        assert report.best_epoch == int(np.argmax(recorded)) + 1
        assert report.best_epoch != len(recorded)
        post = evaluate(model, split.val).auc
        assert post == pytest.approx(report.best_val_auc, abs=1e-15)
        assert post == pytest.approx(max(recorded), abs=1e-15)

    def test_divergence_raises_with_partial_report(self, tiny):
        vocab_sizes, split = tiny
        model = fresh_student(vocab_sizes)
        model.store.set("head.b", np.array([np.nan]))
        with pytest.raises(TrainingDivergenceError) as exc:
            finetune_student(model, split, StageConfig(epochs=1, lr=1e-3))
        assert hasattr(exc.value, "report")


# ---------------------------------------------------------------------------
# training in row tiles
# ---------------------------------------------------------------------------

# every trainable family: the scored ones plus the student combiners they leave out
TRAINED_FAMILIES = {
    **SCORED_FAMILIES,
    "dagfm-inner": DagfmSpec("inner", 4, 4, 2),
    "dagfm-basic-inner": DagfmSpec("basic-inner", 4, 4, 2),
}


def one_batch(split, rows):
    """``split`` cut to its first ``rows`` train rows, one batch of a stage
    with ``batch_size=rows``."""
    return dataclasses.replace(split, train=split.train.subset(np.arange(rows)))


def first_batch(split, stage):
    """``(rows, idx, labels)`` of the first batch that ``stage`` trains on."""
    return next(iterate_batches(
        split.train, stage.batch_size, seed=stage.shuffle_seed + 1, with_positions=True
    ))


def perturbed(spec, vocab_sizes):
    model = build_model(spec, vocab_sizes, seed=3)
    perturb_params(model, np.random.default_rng(4))  # no zero head hides a path
    return model


def assert_grads_close(grads, reference):
    assert grads.keys() == reference.keys()
    for name, g in reference.items():
        g = np.asarray(g)  # the table's rows, densified
        assert np.abs(np.asarray(grads[name]) - g).max() <= 1e-12 * np.abs(g).max(), name


class TestTrainingTiles:
    @pytest.mark.parametrize("spec", list(TRAINED_FAMILIES.values()), ids=list(TRAINED_FAMILIES))
    def test_tiled_step_sums_to_the_whole_batch(self, tiny, spec, monkeypatch):
        vocab_sizes, split = tiny
        n = 2 * TRAIN_ROWS + 37  # three tiles, the last one ragged
        split = one_batch(split, n)
        stage = StageConfig(epochs=1, lr=0.0, batch_size=n, patience=0)
        model = perturbed(spec, vocab_sizes)
        _, idx, labels = first_batch(split, stage)
        loss, dlogits = _ctr_loss_and_grad(labels, model.forward(idx))
        whole = model.backward(dlogits)
        stepped = []
        monkeypatch.setattr(
            "dagfm.distill.adam_step", lambda store, grads, lr, weight_decay: stepped.append(grads)
        )
        report = train_teacher(model, split, stage)
        (grads,) = stepped
        assert_grads_close(grads, whole)
        assert report.epochs[0].loss == pytest.approx(loss, rel=1e-12, abs=0)

    @pytest.mark.parametrize("spec", list(TRAINED_FAMILIES.values()), ids=list(TRAINED_FAMILIES))
    def test_one_tile_batch_steps_bitwise_as_the_whole_batch(self, tiny, spec, monkeypatch):
        vocab_sizes, split = tiny
        split = one_batch(split, TRAIN_ROWS)
        stage = StageConfig(epochs=1, lr=0.01, batch_size=TRAIN_ROWS, patience=0)
        model = perturbed(spec, vocab_sizes)
        reference = perturbed(spec, vocab_sizes)
        _, idx, labels = first_batch(split, stage)
        _, dlogits = _ctr_loss_and_grad(labels, reference.forward(idx))
        adam_step(reference.store, reference.backward(dlogits), stage.lr)
        after = {}

        def step_and_record(store, grads, lr, weight_decay):
            adam_step(store, grads, lr, weight_decay=weight_decay)
            after.update(store_state(store))

        monkeypatch.setattr("dagfm.distill.adam_step", step_and_record)
        train_teacher(model, split, stage)
        assert after == store_state(reference.store)

    def test_distill_tiles_read_their_rows_teacher_logits_and_labels(
        self, tiny, teacher, monkeypatch
    ):
        vocab_sizes, split = tiny
        n = 2 * TRAIN_ROWS + 37
        split = one_batch(split, n)
        stage = StageConfig(epochs=1, lr=0.0, batch_size=n, patience=0)
        student = perturbed(DagfmSpec("outer", 4, 4, 2), vocab_sizes)
        student.store.set("emb", teacher.store["emb"])
        student.store.freeze("emb")
        rows, idx, labels = first_batch(split, stage)
        logits = student.forward(idx)
        kd, dkd = _kd_loss_and_grad(predict_logits(teacher, idx), logits)
        ctr, dctr = _ctr_loss_and_grad(labels, logits)
        whole = student.backward(dkd + 0.5 * dctr)
        stepped = []
        monkeypatch.setattr(
            "dagfm.distill.adam_step", lambda store, grads, lr, weight_decay: stepped.append(grads)
        )
        report = distill_student(student, teacher, split, stage, alpha=1.0, beta=0.5)
        (grads,) = stepped
        assert_grads_close(grads, whole)
        assert report.epochs[0].loss == pytest.approx(kd + 0.5 * ctr, rel=1e-12, abs=0)

    def test_working_set_is_bounded_by_one_tile(self):
        # A step's activations (the student's state buffer and S arrays, its
        # backward temporaries) grow with the rows of a forward; a batch of 8
        # tiles must not cost more memory than a batch of one. Both epochs see
        # the same rows and validation set.
        m = 8
        schema, ds, _ = generate_planted_dataset(9 * TRAIN_ROWS, m=m, vocab_size=10, seed=0)
        train = np.arange(8 * TRAIN_ROWS)
        held_out = ds.subset(np.arange(8 * TRAIN_ROWS, 9 * TRAIN_ROWS))
        split = DatasetSplit(ds.subset(train), held_out, held_out, seed=0, ratios=(0.8, 0.1, 0.1))
        model = DagfmModel(DagfmSpec("outer", m, 16, 3), schema.vocab_sizes(), seed=0)

        def peak_bytes(batch_size):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_teacher(model, split, StageConfig(epochs=1, lr=1e-3, batch_size=batch_size))
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            train_teacher(model, split, StageConfig(epochs=1, lr=1e-3, batch_size=TRAIN_ROWS))
            one_tile = peak_bytes(TRAIN_ROWS)
            many_tiles = peak_bytes(8 * TRAIN_ROWS)
        finally:
            tracemalloc.stop()
        assert many_tiles < 1.5 * one_tile


# ---------------------------------------------------------------------------
# what a step and a stage leave alive
# ---------------------------------------------------------------------------


def grad_arrays(grads) -> list[np.ndarray]:
    """Every array of a gradient dict: dense ones, and a RowGrad's rows and
    values."""
    return [a for g in grads.values()
            for a in ((g.rows, g.values) if isinstance(g, RowGrad) else (g,))]


class TestLifetimes:
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_rewinding_stages_hand_back_what_their_checkpoint_holds(
        self, tiny, teacher, tag, tmp_path
    ):
        # the teacher and fine-tune stages rewind to their best epoch, and
        # drop the moments of the epoch they rewound from; distill keeps its
        # moments, which fine-tuning continues
        vocab_sizes, split = tiny
        split = one_batch(split, 512)
        stage = StageConfig(epochs=2, lr=0.05, batch_size=128, patience=0)
        model = perturbed(TRAINED_FAMILIES[tag], vocab_sizes)

        def checkpoint_state():
            save_checkpoint(model, tmp_path / "model.ckpt")
            return store_state(load_checkpoint(tmp_path / "model.ckpt").store)

        train_teacher(model, split, stage)
        assert store_state(model.store) == checkpoint_state()
        distill_student(model, teacher, split, stage)
        trained = set(model.store.trainable_names())
        assert held_moments(model.store) == trained and "emb" not in trained
        assert all(model.store.step_count(n) == 8 for n in trained)
        finetune_student(model, split, stage)
        assert store_state(model.store) == checkpoint_state()

    @pytest.mark.parametrize("tiles", [1, 4])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_no_forward_runs_beside_an_earlier_steps_gradients(
        self, tiny, tag, tiles, monkeypatch
    ):
        # weakrefs to each step's gradients, taken as adam_step receives
        # them, and to each tile's but the first (whose arrays may hold the
        # batch's sums), taken as backward returns them: all are dead when
        # the next forward starts
        vocab_sizes, split = tiny
        # two one-tile batches an epoch, or one four-tile batch (the last
        # tile ragged), for two epochs
        n = TRAIN_ROWS if tiles == 1 else 3 * TRAIN_ROWS + 37
        split = one_batch(split, 2 * n if tiles == 1 else n)
        stage = StageConfig(epochs=2, lr=0.01, batch_size=n, patience=0)
        model = perturbed(TRAINED_FAMILIES[tag], vocab_sizes)
        forward, backward = model.forward, model.backward
        gone, calls = [], {"forward": 0, "backward": 0, "step": 0, "step's tiles": 0}

        def checked_forward(idx):
            assert [r for r in gone if r() is not None] == []
            calls["forward"] += 1
            return forward(idx)

        def recorded_backward(dlogits):
            grads = backward(dlogits)
            if calls["step's tiles"]:
                gone.extend(weakref.ref(a) for a in grad_arrays(grads))
            calls["step's tiles"] += 1
            calls["backward"] += 1
            return grads

        def recorded_step(store, grads, lr, weight_decay):
            adam_step(store, grads, lr, weight_decay=weight_decay)
            gone.extend(weakref.ref(a) for a in grad_arrays(grads))
            calls["step's tiles"] = 0
            calls["step"] += 1

        monkeypatch.setattr(model, "forward", checked_forward)
        monkeypatch.setattr(model, "backward", recorded_backward)
        monkeypatch.setattr("dagfm.distill.adam_step", recorded_step)
        train_teacher(model, split, stage)
        steps = 4 if tiles == 1 else 2
        assert [calls[k] for k in ("forward", "backward", "step")] == [steps * tiles] * 2 + [steps]
        assert len(gone) > 0


# ---------------------------------------------------------------------------
# distillation stage
# ---------------------------------------------------------------------------


class TestDistill:
    def test_freezes_and_copies_teacher_embeddings(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        teacher_before = store_bytes(teacher)
        distill_student(
            student, teacher, split, StageConfig(epochs=2, lr=0.02, batch_size=256)
        )
        # teacher untouched, student embeddings byte-identical and frozen
        assert store_bytes(teacher) == teacher_before
        for sn, tn in zip(student.embedding_names(), teacher.embedding_names()):
            assert student.store[sn].tobytes() == teacher.store[tn].tobytes()
            assert not student.store.is_trainable(sn)

    def test_keeps_final_epoch_state(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        report = distill_student(
            student,
            teacher,
            split,
            StageConfig(epochs=8, lr=0.2, batch_size=256, patience=0),
        )
        recorded = [r.val_auc for r in report.epochs]
        # the best validation epoch is recorded but *not* restored
        assert report.best_epoch == int(np.argmax(recorded)) + 1
        assert report.best_epoch != len(recorded)
        post = evaluate(student, split.val).auc
        assert post == pytest.approx(recorded[-1], abs=1e-15)
        assert post != pytest.approx(max(recorded), abs=1e-6)

    def test_self_distillation_is_a_fixed_point(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        student.store.restore(teacher.store.snapshot())
        report = distill_student(
            student, teacher, split, StageConfig(epochs=1, lr=1e-3, batch_size=256)
        )
        # identical outputs -> zero matching gradient -> no movement
        assert report.epochs[0].loss <= 1e-10
        for name in student.store.names():
            assert np.max(np.abs(student.store[name] - teacher.store[name])) <= 1e-10

    def test_embedding_shape_mismatch_rejected(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = DagfmModel(DagfmSpec("inner", 4, 2, 2), vocab_sizes, seed=3)
        with pytest.raises(ConfigurationError, match="mismatch"):
            distill_student(student, teacher, split, StageConfig(epochs=1, lr=1e-3))

    def test_alpha_beta_validation(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        stage = StageConfig(epochs=1, lr=1e-3)
        with pytest.raises(ConfigurationError):
            distill_student(student, teacher, split, stage, alpha=0.0, beta=0.0)
        with pytest.raises(ConfigurationError):
            distill_student(student, teacher, split, stage, alpha=-1.0)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_bad_settings_leave_the_student_untouched(self, tiny, teacher, epochs):
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        before = store_bytes(student)
        trainable = student.store.trainable_names()
        with pytest.raises(ConfigurationError, match="both be zero"):
            distill_student(
                student, teacher, split, StageConfig(epochs=epochs, lr=1e-3), alpha=0.0, beta=0.0
            )
        assert store_bytes(student) == before
        assert student.store.trainable_names() == trainable

    def test_ctr_term_mixes_in(self, tiny, teacher):
        vocab_sizes, split = tiny
        stage = StageConfig(epochs=1, lr=0.02, batch_size=256)
        kd_only = distill_student(fresh_student(vocab_sizes), teacher, split, stage)
        mixed = distill_student(
            fresh_student(vocab_sizes), teacher, split, stage, alpha=1.0, beta=1.0
        )
        assert mixed.epochs[0].loss > kd_only.epochs[0].loss

    def test_seeded_rerun_is_bit_identical(self, tiny, teacher):
        vocab_sizes, split = tiny
        stage = StageConfig(epochs=2, lr=0.02, batch_size=256)
        runs = []
        for _ in range(2):
            student = fresh_student(vocab_sizes)
            report = distill_student(student, teacher, split, stage)
            runs.append((store_bytes(student), [r.as_dict() for r in report.epochs]))
        assert runs[0] == runs[1]

    def test_shuffle_seed_changes_the_trajectory(self, tiny, teacher):
        vocab_sizes, split = tiny
        losses = []
        for shuffle_seed in (0, 1):
            student = fresh_student(vocab_sizes)
            report = distill_student(
                student,
                teacher,
                split,
                StageConfig(epochs=1, lr=0.02, batch_size=256, shuffle_seed=shuffle_seed),
            )
            losses.append(report.epochs[0].loss)
        assert losses[0] != losses[1]


# ---------------------------------------------------------------------------
# fine-tuning and the whole pipeline
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_finetune_unfreezes_and_moves_embeddings(self, tiny, teacher):
        vocab_sizes, split = tiny
        student = fresh_student(vocab_sizes)
        distill_student(
            student, teacher, split, StageConfig(epochs=4, lr=0.02, batch_size=256, patience=0)
        )
        emb_before = [student.store[n].tobytes() for n in student.embedding_names()]
        report = finetune_student(
            student, split, StageConfig(epochs=3, lr=0.003, batch_size=256, patience=0)
        )
        assert report.best_epoch >= 1
        for name, before in zip(student.embedding_names(), emb_before):
            assert student.store.is_trainable(name)
            assert student.store[name].tobytes() != before

    def test_run_pipeline_writes_stage_logs(self, tiny, tmp_path):
        vocab_sizes, split = tiny
        plan = DistillPlan(
            teacher_stage=StageConfig(epochs=2, lr=0.03, batch_size=256, patience=0),
            distill_stages=(StageConfig(epochs=2, lr=0.02, batch_size=256, patience=0),),
            finetune_stage=StageConfig(epochs=1, lr=0.003, batch_size=256, patience=0),
        )
        teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        student = fresh_student(vocab_sizes)
        result = run_pipeline(teacher, student, split, plan, log_dir=tmp_path)
        assert list(result.reports) == ["teacher", "distill", "finetune"]
        for name, report in result.reports.items():
            assert report.stage == name
            path = tmp_path / f"{name}_epochs.jsonl"
            assert result.log_paths[name] == path
            lines = path.read_text().splitlines()
            assert len(lines) == len(report.epochs)
            for lineno, line in enumerate(lines, start=1):
                payload = json.loads(line)
                assert set(payload) == {"epoch", "loss", "val_auc", "val_logloss"}
                assert payload["epoch"] == lineno

    def test_run_pipeline_equals_the_stages_called_by_hand(self, tiny, tmp_path):
        vocab_sizes, split = tiny
        teacher_stage = StageConfig(epochs=2, lr=0.03, batch_size=256, patience=0)
        chunks = (
            StageConfig(epochs=2, lr=0.02, batch_size=256, patience=0),
            StageConfig(epochs=1, lr=0.005, batch_size=256, patience=0, shuffle_seed=5),
        )
        finetune_stage = StageConfig(epochs=1, lr=0.003, batch_size=256, patience=0)
        plan = DistillPlan(teacher_stage, chunks, finetune_stage, alpha=1.0, beta=0.5)
        teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        student = fresh_student(vocab_sizes)
        result = run_pipeline(teacher, student, split, plan, log_dir=tmp_path / "pipeline")

        by_hand = tmp_path / "by_hand"
        by_hand.mkdir()
        h_teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        h_student = fresh_student(vocab_sizes)
        train_teacher(h_teacher, split, teacher_stage, by_hand / "teacher_epochs.jsonl")
        teacher_auc = evaluate(h_teacher, split.test).auc
        for phase, stage in enumerate(chunks, start=1):
            distill_student(h_student, h_teacher, split, stage, alpha=1.0, beta=0.5,
                            log_path=by_hand / f"distill_phase{phase}_epochs.jsonl")
        distilled_auc = evaluate(h_student, split.test).auc
        kd_train = kd_loss(predict_logits(h_teacher, split.train.indices),
                           predict_logits(h_student, split.train.indices))
        finetune_student(h_student, split, finetune_stage, by_hand / "finetune_epochs.jsonl")

        stems = ["teacher", "distill_phase1", "distill_phase2", "finetune"]
        assert list(result.reports) == stems
        assert sorted(p.name for p in (tmp_path / "pipeline").iterdir()) == sorted(
            p.name for p in by_hand.iterdir()
        )
        for stem in stems:
            name = f"{stem}_epochs.jsonl"
            assert (tmp_path / "pipeline" / name).read_bytes() == (by_hand / name).read_bytes()
        assert store_bytes(student) == store_bytes(h_student)
        assert store_bytes(teacher) == store_bytes(h_teacher)
        assert result.teacher_auc == teacher_auc
        assert result.distilled_auc == distilled_auc
        assert result.kd_train == kd_train
        assert result.finetuned_auc == evaluate(h_student, split.test).auc

    def test_run_pipeline_scores_the_teachers_training_split_once(self, tiny, monkeypatch):
        # two distill chunks and kd_train share one scoring of the training
        # split: after training, the teacher scores the test split for its
        # AUC, then the training rows once
        vocab_sizes, split = tiny
        stage = StageConfig(epochs=1, lr=0.02, batch_size=256, patience=0)
        plan = DistillPlan(stage, (stage, stage), stage)
        scored = []

        def counting_train_teacher(model, *args, **kwargs):
            report = train_teacher(model, *args, **kwargs)
            score = model.score

            def counted(idx):
                scored.append(np.array(idx))
                return score(idx)

            model.score = counted
            return report

        monkeypatch.setattr("dagfm.distill.train_teacher", counting_train_teacher)
        teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        run_pipeline(teacher, fresh_student(vocab_sizes), split, plan)
        rows = np.concatenate(scored)
        assert len(rows) == len(split.test) + len(split.train)
        np.testing.assert_array_equal(
            rows, np.concatenate([split.test.indices, split.train.indices])
        )

    def test_run_pipeline_leaves_the_trained_teacher_untouched(self, tiny, monkeypatch):
        vocab_sizes, split = tiny
        plan = DistillPlan(
            teacher_stage=StageConfig(epochs=2, lr=0.03, batch_size=256, patience=0),
            distill_stages=(StageConfig(epochs=1, lr=0.02, batch_size=256, patience=0),),
            finetune_stage=StageConfig(epochs=2, lr=0.01, batch_size=256, patience=0),
        )
        trained = {}

        def recording_train_teacher(model, *args, **kwargs):
            report = train_teacher(model, *args, **kwargs)
            trained.update(store_bytes(model))
            return report

        monkeypatch.setattr("dagfm.distill.train_teacher", recording_train_teacher)
        teacher = CrossNetModel(CrossNetSpec(4, 4, 2), vocab_sizes, seed=2)
        student = fresh_student(vocab_sizes)
        run_pipeline(teacher, student, split, plan)
        assert store_bytes(teacher) == trained
        for sn, tn in zip(student.embedding_names(), teacher.embedding_names()):
            assert student.store[sn] is not teacher.store[tn]
            assert student.store[sn].tobytes() != teacher.store[tn].tobytes()

    def test_stage_logs_are_byte_identical_across_runs(self, tiny, tmp_path):
        vocab_sizes, split = tiny
        blobs = []
        for run in range(2):
            model = fresh_student(vocab_sizes)
            path = tmp_path / f"run{run}.jsonl"
            train_teacher(
                model, split, StageConfig(epochs=2, lr=0.01, batch_size=256), log_path=path
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

"""Checkpoint format, INI config parsing, and the command-line interface."""

import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dagfm
from dagfm.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    build_model,
    load_checkpoint,
    save_checkpoint,
    spec_from_dict,
    spec_to_dict,
)
from dagfm.cli import main
from dagfm.config import RunConfig, load_config, parse_config
from dagfm.data import build_vocab, load_dataset
from dagfm.interactions import DagfmModel, DagfmPlusModel, DagfmPlusSpec, DagfmSpec
from dagfm.metrics import count_flops, count_params, efficiency_report
from dagfm.numcore import ConfigurationError
from dagfm.synthetic import generate_planted_dataset, write_csv
from dagfm.teachers import (
    CinModel,
    CinSpec,
    CrossNetModel,
    CrossNetSpec,
    FmfmSpec,
    FwfmSpec,
    TinyMlpSpec,
)

VOCAB = [3, 4, 5]

ALL_SPECS = [
    DagfmSpec("outer", 3, 2, 2),
    DagfmSpec("kernel", 3, 2, 1, edges=((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))),
    DagfmPlusSpec(DagfmSpec("inner", 3, 2, 1), mlp_hidden=(5, 3), mlp_feed="final-state"),
    CinSpec(3, 2, (4, 2)),
    CrossNetSpec(3, 2, 2),
    FwfmSpec(3, 2),
    FmfmSpec(3, 2),
    TinyMlpSpec(3, 2, hidden=(4,), activation="tanh"),
]


def _bad_int_copies(spec, value):
    """(field, changes) pairs: each set of changes puts ``value`` into one
    integer field of ``spec``, the first element of an integer tuple, or the
    first edge's source node."""
    for f in dataclasses.fields(spec):
        current = getattr(spec, f.name)
        if type(current) is int:
            yield f.name, {f.name: value}
        elif isinstance(current, tuple) and current and type(current[0]) is int:
            yield f.name, {f.name: (value, *current[1:])}
        elif f.name == "edges" and current is not None:
            (_, i), *rest = current
            yield f.name, {f.name: ((value, i), *rest)}


def _rewrite(path, edit):
    """Rewrite a checkpoint through ``edit(header, payload) -> payload``, or
    ``-> (header bytes, payload)`` for a header that JSON cannot re-encode."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + hlen])
    out = edit(header, raw[8 + hlen :])
    if not isinstance(out, tuple):
        out = json.dumps(header, sort_keys=True).encode(), out
    blob, payload = out
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def _header_edit(mutate):
    def edit(header, payload):
        mutate(header)
        return payload

    return edit


def _mutate_header(path, mutate):
    """Rewrite a checkpoint with an edited header (payload untouched)."""
    _rewrite(path, _header_edit(mutate))


def _duplicate_first_entry(header, payload):
    """Repeat the first manifest entry and its bytes, so sizes still add up."""
    first = header["manifest"][0]
    header["manifest"].append(dict(first))
    return payload + payload[: 8 * int(np.prod(first["shape"]))]


def _nan_first_weight(header, payload):
    return struct.pack("<d", float("nan")) + payload[8:]


def _nested_header(header, payload):
    """A header of 100,000 nested arrays: deeper than the JSON decoder recurses."""
    return b"[" * 100_000 + b"]" * 100_000, payload


def _first_entry(**fields):
    return _header_edit(lambda h: h["manifest"][0].update(fields))


def _claim(**config):
    """A header claiming the model ``config`` describes, over two one-row
    fields, with an 8 KiB payload: room for the embedding tables only."""

    def edit(header, payload):
        header.update(kind=config["model"], config=config, vocab_sizes=[1, 1])
        return bytes(8192)

    return edit


# crafted corruptions of a DagfmSpec("inner", 3, 2, 1) checkpoint whose first
# parameter is emb of shape (sum(VOCAB), 2): (edit, pattern the error must match)
CORRUPTIONS = {
    "duplicate-entry": (_duplicate_first_entry, "twice"),
    "negative-shape": (_first_entry(shape=[-1, 2]), "shape"),
    "shape-mismatch": (_first_entry(shape=[2, 3]), "shape"),
    "object-dtype": (_first_entry(dtype="|O"), "dtype"),
    "nan-weights": (_nan_first_weight, "non-finite"),
    "string-num-fields": (
        _header_edit(lambda h: h["config"].update(num_fields="3")), "config: num_fields"
    ),
    "nonpositive-vocab": (_header_edit(lambda h: h.update(vocab_sizes=[3, 0, 5])), "vocab_sizes"),
    "float-vocab": (_header_edit(lambda h: h.update(vocab_sizes=[3, 4.0, 5])), "vocab_sizes"),
    # three 2,000,000-row tables claimed by a file of a few hundred bytes
    "oversized-vocab": (
        _header_edit(lambda h: h.update(vocab_sizes=[2_000_000] * 3)), "embedding rows"
    ),
    # layers far larger than the payload, behind small embedding tables
    "oversized-crossnet": (
        _claim(model="crossnet", num_fields=2, embed_dim=1000, num_layers=3), "embedding rows"
    ),
    "oversized-cin": (
        _claim(model="cin", num_fields=2, embed_dim=1, layer_sizes=[2000, 2000]),
        "embedding rows",
    ),
    "short-vocab": (_header_edit(lambda h: h.update(vocab_sizes=[3, 4])), "vocab_sizes"),
    # a billion layers of a combiner without edge weights: only the head is large
    "deep-basic-inner": (
        _header_edit(lambda h: h["config"].update(kind="basic-inner", num_layers=10**9)),
        "embedding rows",
    ),
    "v1-header": (_header_edit(lambda h: h.update(version=1)), "version"),
    # one table per field until version 3
    "v2-header": (_header_edit(lambda h: h.update(version=2)), "version"),
    "kind-mismatch": (_header_edit(lambda h: h.update(kind="cin")), "kind"),
    "nested-header": (_nested_header, "corrupt header: maximum recursion depth"),
}


_GOOD_FIELD = '{"name": "b", "values": ["x"]}'
# malformed schema files: (file text, pattern the error must match); the
# text is written as latin-1, so "\xff" is one byte that is not UTF-8
BAD_SCHEMAS = {
    "not-utf8": ("\xff{}", "not UTF-8"),
    "bad-json": ('{"fields": [', "not valid JSON"),
    "nested-too-deep": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
    "not-an-object": ("[1, 2]", "JSON object"),
    "missing-fields": ('{"x": 1}', "'fields' list"),
    "fields-not-a-list": ('{"fields": 3}', "'fields' list"),
    "missing-name": ('{"fields": [{"values": []}, %s]}' % _GOOD_FIELD, "field 0"),
    "missing-values": ('{"fields": [{"name": "a"}, %s]}' % _GOOD_FIELD, "field 0"),
    "values-not-a-list": ('{"fields": [{"name": "a", "values": "xy"}, %s]}' % _GOOD_FIELD,
                          "field 0"),
    "unhashable-value": ('{"fields": [{"name": "a", "values": [[1]]}, %s]}' % _GOOD_FIELD,
                         "unhashable"),
    "bad-min-freq": ('{"fields": [{"name": "a", "values": []}, %s], "min_freq": "x"}'
                     % _GOOD_FIELD, "bad schema"),
}


def _corrupted(tmp_path, edit):
    path = tmp_path / "corrupt.ckpt"
    save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
    _rewrite(path, edit)
    return path


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_dict_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec
        # JSON turns tuples into lists; the rebuilt spec must stay hashable
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert rebuilt == spec and hash(rebuilt) == hash(spec)

    @pytest.mark.parametrize(
        "listed,tupled",
        [
            (CinSpec(3, 2, [4, 2]), CinSpec(3, 2, (4, 2))),
            (TinyMlpSpec(3, 2, hidden=[4, 3]), TinyMlpSpec(3, 2, hidden=(4, 3))),
            (
                DagfmPlusSpec(DagfmSpec("inner", 3, 2, 1), mlp_hidden=[5, 3]),
                DagfmPlusSpec(DagfmSpec("inner", 3, 2, 1), mlp_hidden=(5, 3)),
            ),
            (
                DagfmSpec("kernel", 3, 2, 1, edges=[[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]]),
                DagfmSpec("kernel", 3, 2, 1, edges=((0, 0), (1, 1), (2, 2), (0, 1), (1, 2))),
            ),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_list_fields_hash_and_round_trip_like_tuples(self, listed, tupled, tmp_path):
        assert listed == tupled and hash(listed) == hash(tupled)
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(listed, VOCAB, seed=0), path)
        assert load_checkpoint(path).spec == listed

    @pytest.mark.parametrize("value", [2.0, "3", True, np.int64(3)], ids=repr)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_integer_fields_reject_non_ints(self, spec, value):
        cases = list(_bad_int_copies(spec, value))
        assert cases
        for name, changes in cases:
            with pytest.raises(ConfigurationError, match=name):
                dataclasses.replace(spec, **changes)

    def test_unknown_model_kind(self):
        with pytest.raises(CheckpointError):
            spec_from_dict({"model": "transformer"})

    def test_too_deep_to_repr_field_is_a_checkpoint_error(self):
        # a header that decodes can still hold a value whose repr, in the
        # field check's message, recurses past the interpreter's limit
        nested = []
        for _ in range(100_000):
            nested = [nested]
        config = {**spec_to_dict(CrossNetSpec(3, 2, 2)), "num_fields": nested}
        with pytest.raises(CheckpointError, match="recursion"):
            spec_from_dict(config)

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigurationError):
            spec_to_dict(object())

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_build_model_matches_registry(self, spec):
        model = build_model(spec, VOCAB, seed=1)
        assert model.kind == spec_to_dict(spec)["model"]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_layout_lists_the_built_store(self, spec):
        model = build_model(spec, VOCAB, seed=1)
        layout = [(name, shape) for name, shape, _ in spec.layout(VOCAB)]
        assert layout == [(n, model.store[n].shape) for n in model.store.names()]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_model_spec_is_the_build_spec(self, spec):
        model = build_model(spec, VOCAB, seed=1)
        assert model.spec == spec
        assert count_flops(model.spec) == efficiency_report(model).flops
        rebuilt = build_model(model.spec, model.vocab_sizes)
        shapes = [(n, model.store[n].shape) for n in model.store.names()]
        assert [(n, rebuilt.store[n].shape) for n in rebuilt.store.names()] == shapes


# ---------------------------------------------------------------------------
# checkpoint files
# ---------------------------------------------------------------------------


class TestCheckpointFiles:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_save_load_save_is_byte_identical(self, spec, tmp_path, rng):
        model = build_model(spec, VOCAB, seed=3)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        idx = np.stack([rng.integers(0, v, size=4) for v in VOCAB], axis=1)
        assert np.array_equal(model.forward(idx), loaded.forward(idx))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
        _mutate_header(path, lambda h: h.update(version=FORMAT_VERSION + 1))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        blob = b"this is not json"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_truncated_prefix_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(CheckpointError, match="shorter"):
            load_checkpoint(path)

    def test_header_length_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(struct.pack("<Q", 2**40) + b"{}")
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unknown_manifest_name_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
        def rename(h):
            h["manifest"][0]["name"] = "not.a.param"
        _mutate_header(path, rename)
        with pytest.raises(CheckpointError, match="unknown parameter"):
            load_checkpoint(path)

    def test_missing_manifest_entry_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0)
        save_checkpoint(model, path)
        last = model.store.names()[-1]
        nbytes = model.store[last].nbytes
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + hlen])
        header["manifest"] = header["manifest"][:-1]
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen : -nbytes])
        with pytest.raises(CheckpointError, match="missing parameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, pattern", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_crafted_corruption_rejected(self, edit, pattern, tmp_path):
        path = _corrupted(tmp_path, edit)
        with pytest.raises(CheckpointError, match=pattern):
            load_checkpoint(path)

    @pytest.mark.parametrize("row", ["oversized-vocab", "oversized-crossnet", "oversized-cin"])
    def test_oversized_vocab_is_rejected_before_allocating(self, row, tmp_path):
        edit, pattern = CORRUPTIONS[row]
        path = _corrupted(tmp_path, edit)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=pattern):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_load_makes_no_random_draws(self, tmp_path, monkeypatch):
        paths = []
        for k, spec in enumerate(ALL_SPECS):
            paths.append(tmp_path / f"{k}.ckpt")
            save_checkpoint(build_model(spec, VOCAB, seed=k), paths[-1])

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"load_checkpoint drew from the generator ({name})")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        for spec, path in zip(ALL_SPECS, paths):
            loaded = load_checkpoint(path)
            assert loaded.spec == spec
            save_checkpoint(loaded, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_loaded_model_round_trips_plus_variant(self, tmp_path, rng):
        spec = DagfmPlusSpec(DagfmSpec("outer", 3, 2, 2), mlp_hidden=(6,))
        model = DagfmPlusModel(spec, VOCAB, seed=4)
        path = tmp_path / "plus.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, DagfmPlusModel)
        assert loaded.spec == spec
        idx = np.stack([rng.integers(0, v, size=3) for v in VOCAB], axis=1)
        assert np.array_equal(model.forward(idx), loaded.forward(idx))


# ---------------------------------------------------------------------------
# INI config
# ---------------------------------------------------------------------------


GOOD_CONFIG = """
[run]
seed = 7
out_dir = runs/demo

[data]
train_csv = data/train.csv
min_freq = 2
split = 0.6,0.2,0.2
split_seed = 9

[teacher]
kind = cin
embed_dim = 8
depth = 2
layer_size = 50

[student]
fn = kernel
embed_dim = 4

[kd]
alpha = 0.9
beta = 0.1

[stage.teacher]
epochs = 3
lr = 0.01

[stage.distill]
epochs = 4
patience = 0

[stage.finetune]
epochs = 1
weight_decay = 1e-4
"""


class TestConfig:
    def test_full_example(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.seed == 7
        assert cfg.out_dir == "runs/demo"
        assert cfg.min_freq == 2
        assert cfg.split_ratios == (0.6, 0.2, 0.2)
        assert cfg.split_seed == 9
        assert cfg.teacher_kind == "cin"
        assert cfg.student_fn == "kernel"
        assert cfg.plan.alpha == 0.9
        assert cfg.plan.beta == 0.1
        assert cfg.plan.teacher_stage.epochs == 3
        assert cfg.plan.teacher_stage.lr == 0.01
        (distill_stage,) = cfg.plan.distill_stages
        assert distill_stage.patience == 0
        assert cfg.plan.finetune_stage.weight_decay == 1e-4

    def test_empty_config_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            parse_config("[optimizer]\nlr = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("[run]\nseeed = 3\n")

    def test_bad_value_names_section_and_key(self):
        with pytest.raises(ConfigurationError, match=r"\[run\] seed"):
            parse_config("[run]\nseed = lots\n")

    def test_bad_split_arity(self):
        with pytest.raises(ConfigurationError):
            parse_config("[data]\nsplit = 0.5,0.5\n")

    def test_teacher_spec_resolution(self):
        cfg = parse_config(GOOD_CONFIG)
        spec = cfg.teacher_spec(5)
        assert spec == CinSpec(5, 8, (50, 50))
        cfg.teacher_kind = "crossnet"
        assert cfg.teacher_spec(5) == CrossNetSpec(5, 8, 2)
        cfg.teacher_kind = "resnet"
        with pytest.raises(ConfigurationError):
            cfg.teacher_spec(5)

    def test_student_spec_defaults_fall_back_to_teacher(self):
        cfg = RunConfig()
        spec = cfg.student_spec(6, default_embed_dim=12, default_layers=2)
        assert spec == DagfmSpec("outer", 6, 12, 2)
        cfg.student_embed_dim = 4
        cfg.student_layers = 1
        assert cfg.student_spec(6, 12, 2) == DagfmSpec("outer", 6, 4, 1)
        cfg.student_kind = "dagfm+"
        cfg.mlp_hidden = (9,)
        spec = cfg.student_spec(6, 12, 2)
        assert isinstance(spec, DagfmPlusSpec) and spec.mlp_hidden == (9,)
        cfg.student_kind = "linear"
        with pytest.raises(ConfigurationError):
            cfg.student_spec(6)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(GOOD_CONFIG)
        assert load_config(path) == parse_config(GOOD_CONFIG)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Train a small teacher + student through the CLI once for all tests."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "train.csv"
    schema, dataset, _ = generate_planted_dataset(
        600, m=3, vocab_size=5, seed=0, rule_fields=(0, 1)
    )
    write_csv(csv, schema, dataset)
    teacher_dir = root / "teacher"
    rc = main(
        [
            "train-teacher",
            "--data", str(csv),
            "--out", str(teacher_dir),
            "--teacher", "crossnet",
            "--d", "4",
            "--depth", "2",
            "--epochs", "2",
            "--lr", "0.01",
            "--batch-size", "128",
        ]
    )
    assert rc == 0
    student_dir = root / "student"
    rc = main(
        [
            "distill",
            "--data", str(csv),
            "--out", str(student_dir),
            "--checkpoint", str(teacher_dir / "teacher.ckpt"),
            "--fn", "inner",
            "--epochs", "2",
            "--lr", "0.01",
            "--batch-size", "128",
        ]
    )
    assert rc == 0
    return root, csv, teacher_dir, student_dir


class TestCli:
    def test_train_teacher_outputs(self, cli_run):
        _, _, teacher_dir, _ = cli_run
        assert (teacher_dir / "teacher.ckpt").exists()
        assert (teacher_dir / "schema.json").exists()
        lines = (teacher_dir / "teacher_epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        report = json.loads((teacher_dir / "teacher_report.json").read_text())
        assert report["stage"] == "teacher"
        assert report["epochs_run"] == 2
        assert 0.0 <= report["test_auc"] <= 1.0
        model = load_checkpoint(teacher_dir / "teacher.ckpt")
        assert isinstance(model, CrossNetModel)
        assert model.spec == CrossNetSpec(3, 4, 2)

    def test_distill_outputs_inherit_teacher_shape(self, cli_run):
        _, _, _, student_dir = cli_run
        student = load_checkpoint(student_dir / "student.ckpt")
        assert isinstance(student, DagfmModel)
        # embed dim and depth default to the teacher's
        assert student.spec == DagfmSpec("inner", 3, 4, 2)
        report = json.loads((student_dir / "distill_report.json").read_text())
        assert report["stage"] == "distill"

    def test_finetune_runs_from_student_checkpoint(self, cli_run, tmp_path):
        _, csv, _, student_dir = cli_run
        out = tmp_path / "ft"
        rc = main(
            [
                "finetune",
                "--data", str(csv),
                "--out", str(out),
                "--checkpoint", str(student_dir / "student.ckpt"),
                "--epochs", "1",
                "--batch-size", "128",
            ]
        )
        assert rc == 0
        assert (out / "student_finetuned.ckpt").exists()

    def test_eval_reports_metrics(self, cli_run, capsys):
        _, csv, teacher_dir, _ = cli_run
        rc = main(
            ["eval", "--data", str(csv), "--checkpoint", str(teacher_dir / "teacher.ckpt")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"auc", "logloss", "n", "params", "flops"}
        assert payload["n"] == 600

    def test_eval_without_data_skips_metrics(self, cli_run, capsys):
        _, _, teacher_dir, _ = cli_run
        model = load_checkpoint(teacher_dir / "teacher.ckpt")
        rc = main(["eval", "--checkpoint", str(teacher_dir / "teacher.ckpt")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"auc", "logloss", "n", "params", "flops"}
        assert payload["auc"] is None and payload["logloss"] is None and payload["n"] is None
        assert payload["flops"]["total"] == count_flops(model.spec).total
        assert payload["params"]["non_embedding"] == count_params(
            model.spec, model.vocab_sizes
        ).non_embedding

    def test_header_length_beyond_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "huge-prefix.ckpt"
        path.write_bytes(struct.pack("<Q", 2**40) + b"{}")
        rc = main(["eval", "--checkpoint", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_distill_embedding_mismatch_exits_one(self, cli_run, tmp_path, capsys):
        _, csv, teacher_dir, _ = cli_run
        rc = main(
            [
                "distill",
                "--data", str(csv),
                "--out", str(tmp_path / "bad"),
                "--checkpoint", str(teacher_dir / "teacher.ckpt"),
                "--fn", "inner",
                "--d", "2",
                "--epochs", "1",
            ]
        )
        assert rc == 1
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("with_data", [True, False], ids=["eval", "eval-no-data"])
    @pytest.mark.parametrize("edit, pattern", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_corrupt_checkpoint_exits_one(self, with_data, edit, pattern, cli_run, tmp_path,
                                          capsys):
        _, csv, _, _ = cli_run
        path = _corrupted(tmp_path, edit)
        data = ["--data", str(csv)] if with_data else []
        rc = main(["eval", "--checkpoint", str(path), *data])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert re.search(pattern, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train-teacher"])
    @pytest.mark.parametrize("text, pattern", BAD_SCHEMAS.values(), ids=list(BAD_SCHEMAS))
    def test_malformed_schema_exits_one(self, command, text, pattern, cli_run, tmp_path,
                                        capsys):
        _, csv, teacher_dir, _ = cli_run
        schema = tmp_path / "bad_schema.json"
        schema.write_bytes(text.encode("latin-1"))
        target = (
            ["--checkpoint", str(teacher_dir / "teacher.ckpt")]
            if command == "eval" else ["--out", str(tmp_path / "out")]
        )
        rc = main([command, "--data", str(csv), "--schema", str(schema), *target])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert re.search(pattern, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "train-teacher"])
    @pytest.mark.parametrize("line", [0, 2], ids=["header", "row"])
    def test_non_utf8_csv_exits_one(self, command, line, cli_run, tmp_path, capsys):
        _, csv, teacher_dir, _ = cli_run
        lines = csv.read_bytes().split(b"\n")
        lines[line] = lines[line][:-1] + b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        target = (
            ["--checkpoint", str(teacher_dir / "teacher.ckpt")]
            if command == "eval" else ["--out", str(tmp_path / "out")]
        )
        rc = main([command, "--data", str(bad), *target])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line {line + 1}: byte 0xff is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, ckpt", [("eval", "teacher"), ("distill", "teacher"),
                                               ("finetune", "student")])
    def test_moved_checkpoint_with_other_data_exits_one(self, command, ckpt, cli_run,
                                                        tmp_path, capsys):
        # the checkpoint travels without its schema.json, and the vocabulary
        # built from another CSV has other sizes than its embedding tables
        root, csv, _, _ = cli_run
        moved = tmp_path / "moved" / f"{ckpt}.ckpt"
        moved.parent.mkdir()
        moved.write_bytes((root / ckpt / f"{ckpt}.ckpt").read_bytes())
        header = csv.read_text().splitlines()[0]
        other = tmp_path / "other.csv"
        other.write_text(header + "\n" + "".join(
            f"{i % 2},{i},{i % 3},{i % 4}\n" for i in range(50)
        ))
        out = [] if command == "eval" else ["--out", str(tmp_path / "out")]
        rc = main([command, "--checkpoint", str(moved), "--data", str(other), *out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vocab sizes" in err
        assert "Traceback" not in err

    def test_eval_schema_without_data_exits_one(self, cli_run, capsys):
        _, _, teacher_dir, _ = cli_run
        rc = main(["eval", "--checkpoint", str(teacher_dir / "teacher.ckpt"),
                   "--schema", str(teacher_dir / "schema.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--schema needs --data" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--seed", "7"],
        ["eval", "--split", "0.8,0.1,0.1"],
        ["finetune", "--seed", "7"],
    ], ids=["eval-seed", "eval-split", "finetune-seed"])
    def test_unread_flags_are_usage_errors(self, argv, capsys):
        assert main([*argv, "--checkpoint", "missing.ckpt"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_data_exits_one(self, tmp_path, capsys):
        rc = main(["train-teacher", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_split_exits_one(self, cli_run, tmp_path, capsys):
        _, csv, _, _ = cli_run
        for split in ("0.5,0.5", "x,y,z"):
            rc = main(
                [
                    "train-teacher",
                    "--data", str(csv),
                    "--out", str(tmp_path),
                    "--split", split,
                ]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--split" in err
            assert "Traceback" not in err

    def test_nan_split_exits_one(self, cli_run, tmp_path, capsys):
        _, csv, _, _ = cli_run
        rc = main(["train-teacher", "--data", str(csv), "--out", str(tmp_path),
                   "--split", "nan,0.5,0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ratios" in err
        assert "Traceback" not in err

    def test_empty_test_split_exits_one_before_training(self, tmp_path, capsys):
        # 100 rows at 0.8,0.195,0.005 leave no test row: that is a bad split,
        # reported before a stage trains or writes anything
        csv = tmp_path / "small.csv"
        schema, dataset, _ = generate_planted_dataset(100, m=3, vocab_size=5, seed=0)
        write_csv(csv, schema, dataset)
        out = tmp_path / "out"
        rc = main(["train-teacher", "--data", str(csv), "--out", str(out),
                   "--split", "0.8,0.195,0.005", "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "test split empty at 100 rows" in err
        assert "Traceback" not in err
        assert not (out / "teacher.ckpt").exists()
        assert not (out / "teacher_epochs.jsonl").exists()

    def test_usage_errors_exit_two(self, capsys):
        assert main(["oracle-check", "--m", "3"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["bench", "--checkpoint", "teacher.ckpt"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_oracle_check_pass(self, capsys):
        rc = main(
            ["oracle-check", "--m", "3", "--d", "2", "--depth", "2", "--fn", "kernel"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert out.count("order") >= 9

    def test_closed_stdout_exits_one_without_traceback(self):
        # the console script, or its entry point where it is not installed,
        # writing a report to a pipe whose reader closed before it started
        script = shutil.which("dagfm")
        cmd = [script] if script else [
            sys.executable, "-c", "import sys; from dagfm.cli import main; sys.exit(main())"
        ]
        src = str(Path(dagfm.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [*cmd, "oracle-check", "--fn", "inner", "--m", "4", "--d", "3", "--depth", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_oracle_check_fail_sets_exit_code(self, capsys):
        rc = main(
            [
                "oracle-check",
                "--m", "3", "--d", "2", "--depth", "2",
                "--fn", "kernel",
                "--tol", "1e-18",
            ]
        )
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_config_file_drives_training(self, cli_run, tmp_path, capsys):
        _, csv, _, _ = cli_run
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[stage.teacher]\nepochs = 1\nlr = 0.01\nbatch_size = 128\n"
            "[teacher]\nkind = crossnet\nembed_dim = 2\ndepth = 1\n"
        )
        out = tmp_path / "run"
        rc = main(
            [
                "train-teacher",
                "--config", str(ini),
                "--data", str(csv),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "teacher_report.json").read_text())
        assert report["epochs_run"] == 1
        loaded = load_checkpoint(out / "teacher.ckpt")
        assert loaded.spec == CrossNetSpec(3, 2, 1)
        capsys.readouterr()

    def test_non_finite_config_setting_exits_one(self, cli_run, tmp_path, capsys):
        # rejected at parse time, before any training or scoring
        _, csv, _, _ = cli_run
        ini = tmp_path / "nan.ini"
        ini.write_text("[stage.teacher]\nlr = nan\n")
        out = tmp_path / "run"
        rc = main(["train-teacher", "--config", str(ini), "--data", str(csv), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lr must be a finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_config_exits_one(self, cli_run, tmp_path, capsys):
        _, csv, _, _ = cli_run
        ini = tmp_path / "bad.ini"
        ini.write_text("[optimizer]\nlr = 1\n")
        rc = main(
            ["train-teacher", "--config", str(ini), "--data", str(csv), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "unknown config section" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# MovieLens conversion
# ---------------------------------------------------------------------------


@pytest.fixture()
def ml_dir(tmp_path):
    d = tmp_path / "ml-1m"
    d.mkdir()
    (d / "users.dat").write_text(
        "1::F::1::10::48067\n2::M::56::16::70072\n", encoding="latin-1"
    )
    (d / "movies.dat").write_text(
        "10::One (1995)::Animation|Comedy\n20::Two, The (1996)::Drama\n",
        encoding="latin-1",
    )
    (d / "ratings.dat").write_text(
        "1::10::5::978300760\n1::20::3::978302109\n2::10::4::978301968\n",
        encoding="latin-1",
    )
    return d


class TestMovielens:
    def test_join_and_binarize(self, ml_dir, tmp_path, capsys):
        out = tmp_path / "ml.csv"
        rc = main(["convert-movielens", "--dir", str(ml_dir), "--out", str(out)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["instances"] == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "label,user_id,gender,age,occupation,zip,movie_id,genre"
        assert lines[1] == "1,1,F,1,10,48067,10,Animation|Comedy"
        # a 3-star rating binarizes to 0
        assert lines[2].startswith("0,1,F")
        assert lines[3].startswith("1,2,M")

    def test_converted_csv_loads_through_the_data_layer(self, ml_dir, tmp_path):
        out = tmp_path / "ml.csv"
        main(["convert-movielens", "--dir", str(ml_dir), "--out", str(out)])
        schema = build_vocab(out, min_freq=0)
        dataset = load_dataset(out, schema)
        assert dataset.indices.shape == (3, 7)
        assert list(dataset.labels) == [1, 0, 1]

    def test_explicit_file_flags(self, ml_dir, tmp_path):
        out = tmp_path / "ml.csv"
        rc = main(
            [
                "convert-movielens",
                "--ratings", str(ml_dir / "ratings.dat"),
                "--users", str(ml_dir / "users.dat"),
                "--movies", str(ml_dir / "movies.dat"),
                "--out", str(out),
            ]
        )
        assert rc == 0

    def test_missing_flags_exit_one(self, ml_dir, tmp_path, capsys):
        rc = main(
            [
                "convert-movielens",
                "--ratings", str(ml_dir / "ratings.dat"),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_unknown_user_exits_one(self, ml_dir, tmp_path, capsys):
        (ml_dir / "ratings.dat").write_text("9::10::4::1\n", encoding="latin-1")
        rc = main(["convert-movielens", "--dir", str(ml_dir), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "unknown user" in capsys.readouterr().err

    def test_malformed_line_exits_one(self, ml_dir, tmp_path, capsys):
        (ml_dir / "users.dat").write_text("1::F::1\n", encoding="latin-1")
        rc = main(["convert-movielens", "--dir", str(ml_dir), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        rc = main(
            ["convert-movielens", "--dir", str(tmp_path / "nope"), "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        capsys.readouterr()

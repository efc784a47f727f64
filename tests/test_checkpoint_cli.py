"""Checkpoint format, INI config parsing, and the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import dagfm
from conftest import held_moments, store_state
from dagfm.checkpoint import (
    FORMAT_VERSION,
    MODELS,
    CheckpointError,
    build_model,
    load_checkpoint,
    save_checkpoint,
    spec_from_dict,
    spec_to_dict,
)
from dagfm import checkpoint, cli, data
from dagfm.cli import build_parser, main
from dagfm.config import _KEYS, TEACHER_KINDS, RunConfig, load_config, parse_config
from dagfm.data import Dataset, build_vocab, load_dataset, split_dataset
from dagfm.distill import StageConfig, distill_student, finetune_student, train_teacher
from dagfm.interactions import DagfmModel, DagfmPlusModel, DagfmPlusSpec, DagfmSpec
from dagfm.metrics import count_flops, count_params, efficiency_report
from dagfm.numcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ConfigurationError,
    RowGrad,
    adam_step,
)
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


# sha256 of the checkpoint of each ALL_SPECS model whose k-th weight of every
# parameter is (k % 13 - 6) / 16, as format version 3 has always written it
SAVED_DIGESTS = [
    "486e510eb2748df88cb9aa526d80d8d93c439089e1717c97d715207aecf14220",
    "3f1bf2a89d6ce70555e74f3d9fa996252e93d99457a620f447864a176e158355",
    "080f10d188e9e7263c4079229d013a610459073002e7e75300d39dca3591a172",
    "b207b64006f2c80c308c708782904d07e0f754ed53fbb761862841552f2e2ea8",
    "e29b4978db5fae26f56b21119d6d339e2de48a2f9294e8cbd34b8466b7ab0317",
    "7a609d85dcd29e1c177713c60846bb62b47836f3986e9ba776d28a6071568081",
    "75ce990764d34148d7640682fccf85d6cf2d8f746e56290154619ca519008b92",
    "94e1a49dd83f41441513446da8243f0ab4a36260ccd613e5c409a092a9e9733d",
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


def _huge_int_header(header, payload):
    """A header holding an integer of more digits than int() converts."""
    return b'{"version": 1' + b"0" * 5000 + b"}", payload


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
    # a payload is float64 only: every other dtype string, numpy's or not
    "f4-dtype": (_first_entry(dtype="<f4"), "dtype '<f4' is not '<f8'"),
    "f2-dtype": (_first_entry(dtype="<f2"), "dtype '<f2' is not '<f8'"),
    "big-endian-dtype": (_first_entry(dtype=">f8"), "dtype '>f8' is not '<f8'"),
    "comma-dtype": (_first_entry(dtype="f8,,"), "dtype 'f8,,' is not '<f8'"),
    "list-dtype": (_first_entry(dtype=["<f8"]), r"dtype \['<f8'\] is not '<f8'"),
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
    "huge-int-header": (_huge_int_header, "corrupt header: Exceeds the limit"),
}


_GOOD_FIELD = '{"name": "b", "values": ["x"]}'
# malformed schema files: (file text, pattern the error must match); the
# text is written as latin-1, so "\xff" is one byte that is not UTF-8
BAD_SCHEMAS = {
    "not-utf8": ("\xff{}", "not UTF-8"),
    "bad-json": ('{"fields": [', "not valid JSON"),
    "nested-too-deep": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
    "huge-int": ('{"fields": [], "min_freq": 1' + "0" * 5000 + "}", "not valid JSON"),
    "not-an-object": ("[1, 2]", "JSON object"),
    "missing-fields": ('{"x": 1}', "'fields' list"),
    "fields-not-a-list": ('{"fields": 3}', "'fields' list"),
    "missing-name": ('{"fields": [{"values": []}, %s]}' % _GOOD_FIELD, "field 0"),
    "missing-values": ('{"fields": [{"name": "a"}, %s]}' % _GOOD_FIELD, "field 0"),
    "values-not-a-list": ('{"fields": [{"name": "a", "values": "xy"}, %s]}' % _GOOD_FIELD,
                          "field 0"),
    "unhashable-value": ('{"fields": [{"name": "a", "values": [[1]]}, %s]}' % _GOOD_FIELD,
                         "field 0 'a' holds the non-string value \\[1\\]"),
    "number-value": ('{"fields": [{"name": "a", "values": ["x", 7]}, %s]}' % _GOOD_FIELD,
                     "field 0 'a' holds the non-string value 7"),
    "repeated-value": ('{"fields": [%s, {"name": "a", "values": ["x", "y", "x"]}]}' % _GOOD_FIELD,
                       "field 1 'a' repeats the value 'x'"),
    "bad-min-freq": ('{"fields": [{"name": "a", "values": []}, %s], "min_freq": "x"}'
                     % _GOOD_FIELD, "min_freq must be an int >= 0, got 'x'"),
    # each loaded through int() once, and saved again as the int it gave
    **{
        f"min-freq-{name}": ('{"fields": [{"name": "a", "values": []}, %s], "min_freq": %s}'
                             % (_GOOD_FIELD, value), f"min_freq must be an int >= 0, got {shown}")
        for name, value, shown in [("negative", "-3", "-3"), ("float", "1.9", "1.9"),
                                   ("string", '"2"', "'2'"), ("bool", "true", "True")]
    },
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

    @pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.kind)
    def test_zero_row_batch(self, cls):
        spec = next(s for s in ALL_SPECS if type(s) is cls.spec_type)
        model = build_model(spec, VOCAB, seed=0)
        assert model.forward(np.zeros((0, len(VOCAB)), dtype=np.int64)).shape == (0,)
        grads = model.backward(np.zeros(0))
        assert grads.keys() == set(model.store.names())
        for name, g in grads.items():
            g = np.asarray(g)  # the table's rows, densified
            assert g.shape == model.store[name].shape and not g.any(), name

    @pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.kind)
    def test_backward_needs_a_forward_that_returned(self, cls):
        spec = next(s for s in ALL_SPECS if type(s) is cls.spec_type)
        model = build_model(spec, VOCAB, seed=0)
        with pytest.raises(ConfigurationError, match="forward"):
            model.backward(np.ones(2))  # no forward yet
        model.forward(np.zeros((2, len(VOCAB)), dtype=np.int64))
        model.backward(np.ones(2))
        with pytest.raises(IndexError):
            model.forward(np.full((2, len(VOCAB)), max(VOCAB)))
        for rows in (2, 3):  # the size of the batch before the failed call, and another
            with pytest.raises(ConfigurationError, match="forward"):
                model.backward(np.ones(rows))

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
        # the payload stays whole, so that the file passes the size guard
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match="missing parameters"):
            load_checkpoint(path)

    def test_one_weight_short_fails_at_the_guard(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("inner", 3, 2, 1), VOCAB, seed=0), path)
        path.write_bytes(path.read_bytes()[:-8])

        def unreached(*args):
            raise AssertionError("the manifest was read")

        # the guard runs before the manifest is read, so before any weight is allocated
        monkeypatch.setattr(checkpoint, "_payload_plan", unreached)
        with pytest.raises(CheckpointError, match="^truncated payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec, digest", list(zip(ALL_SPECS, SAVED_DIGESTS)),
                             ids=[type(s).__name__ for s in ALL_SPECS])
    def test_saved_bytes_are_the_documented_layout(self, spec, digest, tmp_path):
        # the prefix, the sorted JSON header and each parameter as
        # little-endian float64, over weights exact in binary
        layout = list(spec.layout(VOCAB))
        values = {name: (np.arange(math.prod(shape)) % 13 - 6).reshape(shape) / 16.0
                  for name, shape, _ in layout}
        model = type(build_model(spec, VOCAB)).from_values(spec, VOCAB, values)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        header = {
            "version": FORMAT_VERSION,
            "kind": model.kind,
            "config": spec_to_dict(spec),
            "vocab_sizes": VOCAB,
            "manifest": [{"name": name, "shape": list(shape), "dtype": "<f8"}
                         for name, shape, _ in layout],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = b"".join(struct.pack(f"<{v.size}d", *v.reshape(-1)) for v in values.values())
        raw = path.read_bytes()
        assert raw == struct.pack("<Q", len(blob)) + blob + payload
        # and the pinned bytes: a format change shows here, not only in the reference above
        assert hashlib.sha256(raw).hexdigest() == digest

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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_loaded_model_holds_no_moments(self, spec, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(spec, VOCAB, seed=3), path)
        assert held_moments(load_checkpoint(path).store) == set()

    def test_loading_an_m39_student_peaks_near_its_weights(self, tmp_path):
        # the weights are read into the arrays the store keeps, and no
        # optimizer state is allocated beside them (which would be 3x)
        m = 39
        path = tmp_path / "student.ckpt"
        model = DagfmModel(DagfmSpec("outer", m, 16, 3), [100] * m, seed=0)
        weights = sum(model.store[n].nbytes for n in model.store.names())
        save_checkpoint(model, path)
        del model
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * weights

    def test_saving_copies_no_weight(self, tmp_path):
        # each weight is written from its own buffer; the table is 10 MB
        model = DagfmModel(DagfmSpec("outer", 39, 16, 3), [2000] * 39, seed=0)
        assert model.store["emb"].nbytes > 9_000_000
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "student.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


# ---------------------------------------------------------------------------
# checkpoint bytes fuzzer
# ---------------------------------------------------------------------------

class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()  # a header edit that drops its key


class Mutation(typing.NamedTuple):
    """Edits of the valid checkpoint of ``ALL_SPECS[base]``, in this order:
    ``header`` sets (path, value) pairs in the JSON header (or drops a key),
    ``weights`` sets the k-th float64 of the payload, ``header_bytes``
    replaces the encoded header, ``prefix`` the header-length prefix, then
    ``flips`` flips (byte, bit) pairs of the file and ``cut`` truncates it.
    Positions wrap around the file's length."""

    base: int = 0
    header: tuple = ()
    weights: tuple = ()
    header_bytes: bytes | None = None
    prefix: int | None = None
    flips: tuple = ()
    cut: int | None = None

    def apply(self, raw: bytes) -> bytes:
        (hlen,) = struct.unpack("<Q", raw[:8])
        header, payload = json.loads(raw[8 : 8 + hlen]), bytearray(raw[8 + hlen :])
        for path, value in self.header:
            *parents, key = path
            node = header
            for part in parents:
                node = node[part % len(node)] if isinstance(node, list) and node else \
                    node.get(part) if isinstance(node, dict) else None
            if isinstance(node, list) and node and isinstance(key, int):
                key %= len(node)
            elif not isinstance(node, dict):
                continue  # an earlier edit replaced the path
            if value is not DELETE:
                node[key] = value
            elif isinstance(node, list) or key in node:
                del node[key]
        for k, value in self.weights:
            struct.pack_into("<d", payload, 8 * (k % (len(payload) // 8)), value)
        blob = json.dumps(header, sort_keys=True).encode() if self.header_bytes is None \
            else self.header_bytes
        prefix = len(blob) if self.prefix is None else self.prefix
        out = bytearray(struct.pack("<Q", prefix) + blob + payload)
        for byte, bit in self.flips:
            out[byte % len(out)] ^= 1 << bit
        return bytes(out if self.cut is None else out[: self.cut % (len(out) + 1)])


# header paths across the families' configs (a missing key is added)
HEADER_PATHS = [
    ("version",), ("kind",), ("config",), ("config", "model"), ("config", "num_fields"),
    ("config", "embed_dim"), ("config", "num_layers"), ("config", "kind"), ("config", "edges"),
    ("config", "layer_sizes"), ("config", "hidden"), ("config", "dagfm"),
    ("config", "dagfm", "num_fields"), ("config", "mlp_hidden"), ("vocab_sizes",),
    ("vocab_sizes", 0), ("vocab_sizes", -1), ("manifest",), ("manifest", 0),
    ("manifest", 0, "name"), ("manifest", 0, "shape"), ("manifest", -1, "shape"),
    ("manifest", -1, "dtype"), ("extra",),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.sampled_from([-1, 0, 1, 2, 3, 4, 2**31, 2**63, 10**18, "<f4", "<f2", "|O", "emb",
                       "crossnet", "cin", "outer", FORMAT_VERSION])
    | st.integers(-5, 2**64),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _sometimes(strategy, empty):
    """``empty`` in three draws of four, else a draw of ``strategy``: most
    examples then carry one or two kinds of edit, and some still load."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k == 0 else st.just(empty))


MUTATIONS = st.builds(
    Mutation,
    base=st.integers(0, len(ALL_SPECS) - 1),
    header=_sometimes(st.lists(st.tuples(st.sampled_from(HEADER_PATHS),
                                         JSON_VALUES | st.just(DELETE)),
                               min_size=1, max_size=2).map(tuple), ()),
    weights=_sometimes(st.lists(st.tuples(st.integers(0, 2**16), st.floats()),
                                min_size=1, max_size=2).map(tuple), ()),
    prefix=_sometimes(st.integers(0, 2**64 - 1), None),
    flips=_sometimes(st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 7)),
                              min_size=1, max_size=3).map(tuple), ()),
    cut=_sometimes(st.integers(0, 2**16), None),
)


class ValidCheckpoints(typing.NamedTuple):
    files: list  # the bytes of one valid checkpoint per spec of ALL_SPECS
    path: Path  # where a mutated copy is written

    def __repr__(self):  # a failing example names its Mutation, not these bytes
        return "ValidCheckpoints(...)"


@pytest.fixture(scope="module")
def valid_checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt-fuzz")
    files = []
    for k, spec in enumerate(ALL_SPECS):
        save_checkpoint(build_model(spec, VOCAB, seed=k), root / "valid.ckpt")
        files.append((root / "valid.ckpt").read_bytes())
    return ValidCheckpoints(files, root / "mutated.ckpt")


# every family, combiner, tower feed and activation
BOUND_SPECS = [
    *ALL_SPECS,
    DagfmSpec("basic-inner", 3, 2, 2),
    DagfmSpec("inner", 3, 3, 2, edges=((0, 0), (1, 1), (2, 2), (0, 2))),
    DagfmPlusSpec(DagfmSpec("outer", 3, 2, 2), mlp_hidden=(4, 3), mlp_feed="all-states"),
    TinyMlpSpec(3, 2, hidden=(5, 4)),
]


class TestLogitBound:
    @pytest.mark.parametrize("spec", BOUND_SPECS, ids=lambda s: type(s).__name__)
    def test_is_the_logit_of_the_constant_model(self, spec, rng):
        # with relu towers the bound is that model's logit exactly; tanh
        # only shrinks it
        scales = {name: float(rng.uniform(1, 2)) for name, _, _ in spec.layout(VOCAB)}
        values = {name: np.full(shape, scales[name]) for name, shape, _ in spec.layout(VOCAB)}
        model = type(build_model(spec, VOCAB)).from_values(spec, VOCAB, values)
        logits = model.forward(np.stack([rng.integers(0, v, size=4) for v in VOCAB], axis=1))
        bound = spec.logit_bound(scales)
        if getattr(spec, "activation", "relu") == "tanh":
            assert np.all(logits < bound)
        else:
            np.testing.assert_allclose(logits, bound, rtol=1e-12)

    @pytest.mark.parametrize("spec", BOUND_SPECS, ids=lambda s: type(s).__name__)
    def test_bounds_every_logit(self, spec, rng):
        model = build_model(spec, VOCAB, seed=1)
        for name in model.store.names():  # heads and biases start at zero
            model.store.set(name, rng.normal(size=model.store[name].shape))
        scales = {name: float(np.abs(model.store[name]).max()) for name in model.store.names()}
        idx = np.stack([rng.integers(0, v, size=50) for v in VOCAB], axis=1)
        assert np.all(np.abs(model.forward(idx)) <= spec.logit_bound(scales))

    def test_a_weight_that_would_overflow_a_score_is_rejected(self, tmp_path):
        path = tmp_path / "big.ckpt"
        save_checkpoint(DagfmModel(DagfmSpec("outer", 3, 2, 2), VOCAB, seed=0), path)
        # one embedding of 1e103: its cube overflows at every row that reads it
        _rewrite(path, lambda header, payload: struct.pack("<d", 1e103) + payload[8:])
        with pytest.raises(CheckpointError, match="non-finite logit"):
            load_checkpoint(path)


class TestCheckpointFuzz:
    """Whatever the bytes, ``load_checkpoint`` raises ``CheckpointError`` or
    returns a model that scores every row of its tables as finite logits;
    any other exception fails the test."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(MUTATIONS)
    @example(Mutation(prefix=2**40))
    @example(Mutation(header_bytes=b"[" * 100_000 + b"]" * 100_000))
    @example(Mutation(weights=((0, float("nan")),)))
    @example(Mutation(base=4, weights=((40, float("inf")),)))
    @example(Mutation(header=((("version",), 2),)))
    # found by this fuzzer: a dtype numpy parses as Python, and an embedding
    # of 1e103, finite but cubed by a depth-2 student
    @example(Mutation(header=((("manifest", 0, "dtype"), "f8,,"),)))
    @example(Mutation(weights=((0, 1e103),)))
    def test_mutated_file_loads_and_scores_finite_or_is_rejected(self, valid_checkpoints, mutation):
        files, path = valid_checkpoints
        path.write_bytes(mutation.apply(files[mutation.base]))
        try:
            model = load_checkpoint(path)
        except CheckpointError:
            event("rejected")
            return
        event("loaded")
        # every row of every field's table, the short fields' last rows repeated
        rows = max(model.vocab_sizes)
        idx = np.minimum(np.arange(rows)[:, None], np.array(model.vocab_sizes) - 1)
        assert np.isfinite(model.forward(idx)).all()


# ---------------------------------------------------------------------------
# optimizer state across the stages
# ---------------------------------------------------------------------------


class EagerAdam:
    """The reference that a parameter's moments, allocated on its first
    update, must match bit for bit: textbook bias-corrected Adam that holds
    zero moments for every parameter of a store, frozen ones included, from
    the store's first step, and writes the stepped values with ``set``. A
    row gradient steps its rows alone (lazy Adam)."""

    def __init__(self):
        self.state = {}  # store -> {name: [m, v, step count]}

    def __call__(self, store, grads, lr, weight_decay=0.0):
        state = self.state.setdefault(store, {
            n: [np.zeros_like(store[n]), np.zeros_like(store[n]), 0] for n in store.names()
        })
        for name in store.trainable_names():
            g = grads[name]
            rows = g.rows if isinstance(g, RowGrad) else slice(None)
            g = g.values if isinstance(g, RowGrad) else g
            m, v, t = state[name]
            theta, m, v, t = store[name].copy(), m.copy(), v.copy(), t + 1
            if weight_decay:
                g = g + weight_decay * theta[rows]
            m[rows] = ADAM_BETA1 * m[rows] + (1 - ADAM_BETA1) * g
            v[rows] = ADAM_BETA2 * v[rows] + (1 - ADAM_BETA2) * g * g
            den = np.sqrt(v[rows] / (1 - ADAM_BETA2**t)) + ADAM_EPS
            theta[rows] = theta[rows] - lr * (m[rows] / (1 - ADAM_BETA1**t)) / den
            store.set(name, theta)
            state[name] = [m, v, t]

    def store_state(self, store):
        return {n: (store[n].tobytes(), m.tobytes(), v.tobytes(), t)
                for n, (m, v, t) in self.state[store].items()}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_stages_step_as_with_eager_zero_moments(spec, tmp_path, monkeypatch):
    # teacher -> checkpoint -> distill (frozen emb) -> finetune (first emb step)
    rng = np.random.default_rng(5)
    idx = np.stack([rng.integers(0, v, size=240) for v in VOCAB], axis=1)
    split = split_dataset(Dataset(idx, (idx.sum(axis=1) % 2).astype(np.int64)), seed=0)
    teach = StageConfig(epochs=2, lr=0.05, batch_size=64, patience=0)
    tune = dataclasses.replace(teach, weight_decay=1e-3)

    def stages(step, state):
        monkeypatch.setattr("dagfm.distill.adam_step", step)
        teacher = build_model(spec, VOCAB, seed=1)
        train_teacher(teacher, split, teach)
        states = [state(teacher.store)]
        save_checkpoint(teacher, tmp_path / "teacher.ckpt")
        student = DagfmModel(DagfmSpec("outer", 3, 2, 2), VOCAB, seed=2)
        distill_student(student, load_checkpoint(tmp_path / "teacher.ckpt"), split, teach)
        states.append(state(student.store))
        finetune_student(student, split, tune)
        return [*states, state(student.store)], (teacher.store, student.store)

    lazy, rewound = stages(adam_step, store_state)
    eager = EagerAdam()
    expected = stages(eager, eager.store_state)[0]
    values = [{n: s[0] for n, s in states.items()} for states in (*lazy, *expected)]
    assert values[:3] == values[3:]
    # distill keeps its moments for fine-tuning, which continues them
    assert lazy[1] == expected[1]
    # the teacher and fine-tune stages rewind to their best epoch and hand
    # back their weights alone
    for store in rewound:
        assert held_moments(store) == set()
        assert all(store.step_count(n) == 0 for n in store.names())
    assert lazy[1]["emb"][3] == 0 < expected[2]["emb"][3]  # frozen in distill, stepped in finetune


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
num_layers = 1

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
        assert cfg.student_layers == 1
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

    def test_the_teacher_kinds_are_the_flag_choices_and_the_error_s(self, capsys):
        for kind in TEACHER_KINDS:
            assert parse_config(f"[teacher]\nkind = {kind}\n").teacher_kind == kind
        with pytest.raises(ConfigurationError) as raised:
            RunConfig(teacher_kind="resnet")
        assert str(raised.value) == "unknown teacher kind 'resnet'; pick 'cin' or 'crossnet'"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train-teacher", "--teacher", "resnet"])
        err = capsys.readouterr().err
        assert "invalid choice: 'resnet'" in err and re.search("choose from '?cin'?, '?crossnet'?\\)", err)

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
        teacher = CrossNetSpec(6, 12, 2)
        assert cfg.student_spec(teacher) == DagfmSpec("outer", 6, 12, 2)
        assert cfg.student_spec(CinSpec(6, 12, (5,))) == DagfmSpec("outer", 6, 12, 1)
        # a teacher with no depth of its own lends [teacher] depth
        assert cfg.student_spec(FwfmSpec(6, 12)) == DagfmSpec("outer", 6, 12, 3)
        cfg.student_layers = 1
        assert cfg.student_spec(teacher) == DagfmSpec("outer", 6, 12, 1)
        cfg.student_kind = "dagfm+"
        cfg.mlp_hidden = (9,)
        spec = cfg.student_spec(teacher)
        assert isinstance(spec, DagfmPlusSpec) and spec.mlp_hidden == (9,)
        cfg.student_kind = "linear"
        with pytest.raises(ConfigurationError):
            cfg.student_spec(teacher)

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

    def test_main_pins_malloc_before_it_dispatches(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_pin_malloc", lambda: calls.append("pin"))
        monkeypatch.setattr(cli, "_cmd_oracle_check", lambda args: calls.append("dispatch") or 0)
        assert main(["oracle-check", "--fn", "inner", "--m", "3", "--d", "2", "--depth", "1"]) == 0
        assert calls == ["pin", "dispatch"]

    def test_malloc_pin_is_a_no_op_off_glibc(self, monkeypatch):
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda *args: pytest.fail("loaded a C library"))
        cli._pin_malloc()

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

    def test_finetuned_checkpoint_scores_with_its_own_vocabulary(self, cli_run, tmp_path,
                                                                 capsys):
        # finetune saves the schema it trained on next to its checkpoint, so
        # eval does not rebuild a vocabulary from the order of the rows it reads
        _, csv, _, student_dir = cli_run
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(csv), "--out", str(out), "--checkpoint",
                     str(student_dir / "student.ckpt"), "--epochs", "1"]) == 0
        assert (out / "schema.json").read_text() == (student_dir / "schema.json").read_text()
        header, *rows = csv.read_text().splitlines()
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text("\n".join([header, *rows[::-1]]) + "\n")
        capsys.readouterr()
        aucs = []
        for data in (csv, reversed_csv):
            assert main(["eval", "--data", str(data),
                         "--checkpoint", str(out / "student_finetuned.ckpt")]) == 0
            aucs.append(json.loads(capsys.readouterr().out)["auc"])
        assert aucs[0] == pytest.approx(aucs[1], abs=1e-12)

    def test_eval_reports_metrics(self, cli_run, capsys):
        _, csv, teacher_dir, _ = cli_run
        rc = main(
            ["eval", "--data", str(csv), "--checkpoint", str(teacher_dir / "teacher.ckpt")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"auc", "logloss", "n", "params", "flops"}
        assert payload["n"] == 600

    @pytest.mark.parametrize("given_schema", [False, True], ids=["built", "given"])
    @pytest.mark.parametrize("command", ["train-teacher", "distill", "finetune", "eval"])
    def test_a_stage_parses_its_csv_once(self, command, given_schema, cli_run, tmp_path,
                                         monkeypatch):
        # checkpoints with no schema.json beside them, so that without
        # --schema the stage builds its schema from the CSV
        _, csv, teacher_dir, student_dir = cli_run
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(teacher_dir / "teacher.ckpt", lone)
        shutil.copy(student_dir / "student.ckpt", lone)
        argv = {
            "train-teacher": ["--d", "4", "--depth", "1"],
            "distill": ["--checkpoint", str(lone / "teacher.ckpt")],
            "finetune": ["--checkpoint", str(lone / "student.ckpt")],
            "eval": ["--checkpoint", str(lone / "teacher.ckpt")],
        }[command]
        if command != "eval":
            argv += ["--out", str(tmp_path / "out"), "--epochs", "1", "--batch-size", "128"]
        if given_schema:
            argv += ["--schema", str(teacher_dir / "schema.json")]
        parses = []
        encode = data._encode
        monkeypatch.setattr(data, "_encode", lambda path, fields: parses.append(path)
                            or encode(path, fields))
        assert main([command, "--data", str(csv), *argv]) == 0
        assert parses == [str(csv)]

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", ["repeated", "number"])
    def test_a_schema_value_that_no_cell_can_match_exits_before_any_output(
            self, fault, cli_run, tmp_path, capsys):
        # the teacher's own schema of the CSV, with one value of its first
        # field repeated or replaced by a number: training would run on it
        _, csv, teacher_dir, _ = cli_run
        doc = json.loads((teacher_dir / "schema.json").read_text())
        values = doc["fields"][0]["values"]
        values[0] = values[1] if fault == "repeated" else 7
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["train-teacher", "--data", str(csv), "--schema", str(schema), "--out", str(out),
                   "--d", "4", "--depth", "1", "--epochs", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        text = f"repeats the value {values[1]!r}" if fault == "repeated" else "non-string value 7"
        assert err.startswith("error:") and text in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "train-teacher"])
    @pytest.mark.parametrize("line, ending", [(0, b"\n"), (2, b"\n"), (2, b"\r")],
                             ids=["header", "row", "row-cr"])
    def test_non_utf8_csv_exits_one(self, command, line, ending, cli_run, tmp_path, capsys):
        _, csv, teacher_dir, _ = cli_run
        lines = csv.read_bytes().split(b"\n")
        lines[line] = lines[line][:-1] + b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(ending.join(lines))
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
        ["distill", "--d", "4"],
    ], ids=["eval-seed", "eval-split", "finetune-seed", "distill-d"])
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

    @staticmethod
    def assert_rejected_before_output(command, ini, flags, pattern, cli_run, tmp_path, capsys):
        """``command`` with config file ``ini`` and ``flags`` exits 1 with a
        one-line error matching ``pattern`` and creates no output directory."""
        root, csv, _, _ = cli_run
        config = tmp_path / "bad.ini"
        config.write_text(ini)
        out = tmp_path / "run"
        checkpoint = {
            "train-teacher": [],
            "distill": ["--checkpoint", str(root / "teacher" / "teacher.ckpt")],
            "finetune": ["--checkpoint", str(root / "student" / "student.ckpt")],
        }[command]
        rc = main([command, "--config", str(config), "--data", str(csv), "--out", str(out),
                   *checkpoint, *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and pattern in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, ini, flags, pattern", [
        ("train-teacher", "[stage.teacher]\nlr = nan\n", [], "lr must be a finite"),
        ("train-teacher", "", ["--lr", "nan"], "lr must be a finite"),
        ("distill", "[kd]\nalpha = nan\n", [], "alpha must be a finite"),
        ("distill", "", ["--alpha", "nan"], "alpha must be a finite"),
    ], ids=["ini-lr", "flag-lr", "ini-alpha", "flag-alpha"])
    def test_non_finite_config_setting_exits_one(self, command, ini, flags, pattern, cli_run,
                                                 tmp_path, capsys):
        # rejected at parse time, as a flag or as an INI key
        self.assert_rejected_before_output(command, ini, flags, pattern, cli_run, tmp_path,
                                           capsys)

    @pytest.mark.parametrize("command, ini, flags, pattern", [
        ("train-teacher", "", ["--seed", "-1"], "seed must be an int >= 0"),
        ("distill", "", ["--seed", "-1"], "seed must be an int >= 0"),
        ("train-teacher", "[run]\nseed = -1\n", [], "seed must be an int >= 0"),
        ("train-teacher", "[data]\nsplit_seed = -1\n", [], "split_seed must be an int >= 0"),
        ("finetune", "[stage.finetune]\nshuffle_seed = -1\n", [],
         "shuffle_seed must be an int >= 0"),
    ], ids=["flag-seed", "distill-flag-seed", "ini-seed", "ini-split-seed",
            "ini-shuffle-seed"])
    def test_negative_seed_exits_one(self, command, ini, flags, pattern, cli_run, tmp_path,
                                     capsys):
        self.assert_rejected_before_output(command, ini, flags, pattern, cli_run, tmp_path,
                                           capsys)

    @pytest.mark.parametrize("flags, pattern, ini", [
        (["--split", "nan,0.5,0.5"], "ratios must be three positive numbers", ""),
        (["--d", "0"], "teacher_embed_dim must be an int >= 1", ""),
        (["--depth", "0"], "teacher_depth must be an int >= 1", ""),
        (["--min-freq", "-3"], "min_freq must be an int >= 0", ""),
        ([], "unknown teacher kind 'resnet'", "[teacher]\nkind = resnet\n"),
        ([], "unknown interaction kind 'cross'", "[student]\nfn = cross\n"),
    ], ids=["nan-split", "zero-d", "zero-depth", "negative-min-freq", "ini-teacher-kind",
            "ini-student-fn"])
    def test_bad_setting_exits_before_output(self, flags, pattern, ini, cli_run, tmp_path,
                                             capsys):
        self.assert_rejected_before_output("train-teacher", ini, flags, pattern, cli_run,
                                           tmp_path, capsys)

    def test_malformed_row_exits_before_output(self, cli_run, tmp_path, capsys):
        _, csv, _, _ = cli_run
        bad = tmp_path / "bad.csv"
        bad.write_text(csv.read_text() + "1,a\n")
        lines = len(csv.read_text().splitlines()) + 1
        self.assert_rejected_before_output(
            "train-teacher", "", ["--data", str(bad)],
            f"line {lines}: expected 4 columns, got 2", cli_run, tmp_path, capsys)

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
# flags as aliases of INI keys
# ---------------------------------------------------------------------------

# the arguments each subcommand requires, besides its settings flags
REQUIRED = {
    "train-teacher": [],
    "distill": ["--checkpoint", "t.ckpt"],
    "finetune": ["--checkpoint", "s.ckpt"],
    "eval": ["--checkpoint", "s.ckpt"],
}
FLAG_TABLE = [
    (command, flag, key)
    for command, required in REQUIRED.items()
    for flag, key in build_parser().parse_args([command, *required]).keys.items()
]
# (file value, flag value) of every INI key a flag aliases; [stage.*] keys by name
ALIAS_VALUES = {
    ("run", "seed"): ("3", "5"),
    ("run", "out_dir"): ("from-file", "from-flag"),
    ("data", "train_csv"): ("file.csv", "flag.csv"),
    ("data", "schema"): ("file.json", "flag.json"),
    ("data", "min_freq"): ("2", "4"),
    ("data", "split"): ("0.6,0.2,0.2", "0.7,0.2,0.1"),
    ("teacher", "kind"): ("cin", "crossnet"),
    ("teacher", "embed_dim"): ("8", "4"),
    ("teacher", "depth"): ("2", "1"),
    ("student", "fn"): ("kernel", "inner"),
    ("student", "num_layers"): ("2", "1"),
    ("kd", "alpha"): ("0.5", "0.25"),
    ("kd", "beta"): ("0.5", "0.75"),
    "epochs": ("3", "7"),
    "lr": ("0.01", "0.02"),
    "batch_size": ("64", "32"),
}


def _stage_flags(stage):
    return {
        "--data": ("data", "train_csv"),
        "--schema": ("data", "schema"),
        "--min-freq": ("data", "min_freq"),
        "--out": ("run", "out_dir"),
        "--split": ("data", "split"),
        "--epochs": (f"stage.{stage}", "epochs"),
        "--lr": (f"stage.{stage}", "lr"),
        "--batch-size": (f"stage.{stage}", "batch_size"),
    }


class TestFlagAliases:
    def test_each_flag_names_its_documented_key(self):
        expected = {
            "train-teacher": {
                **_stage_flags("teacher"),
                "--seed": ("run", "seed"),
                "--teacher": ("teacher", "kind"),
                "--d": ("teacher", "embed_dim"),
                "--depth": ("teacher", "depth"),
            },
            "distill": {
                **_stage_flags("distill"),
                "--seed": ("run", "seed"),
                "--fn": ("student", "fn"),
                "--depth": ("student", "num_layers"),
                "--alpha": ("kd", "alpha"),
                "--beta": ("kd", "beta"),
            },
            "finetune": _stage_flags("finetune"),
            "eval": {
                "--data": ("data", "train_csv"),
                "--schema": ("data", "schema"),
                "--min-freq": ("data", "min_freq"),
            },
        }
        table = {command: {} for command in REQUIRED}
        for command, flag, key in FLAG_TABLE:
            table[command][flag] = key
        assert table == expected
        assert all(key in _KEYS for _, _, key in FLAG_TABLE)

    @pytest.mark.parametrize("command, flag, key", FLAG_TABLE,
                             ids=[f"{command}{flag}" for command, flag, _ in FLAG_TABLE])
    def test_flag_beats_the_file_value(self, command, flag, key, tmp_path):
        section, name = key
        file_value, flag_value = ALIAS_VALUES.get(key) or ALIAS_VALUES[name]
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{name} = {file_value}\n")
        argv = [command, *REQUIRED[command], "--config", str(ini)]
        from_file = cli._config(build_parser().parse_args(argv))
        both = cli._config(build_parser().parse_args([*argv, flag, flag_value]))
        assert from_file == parse_config(f"[{section}]\n{name} = {file_value}\n")
        assert both == parse_config(f"[{section}]\n{name} = {flag_value}\n")
        assert both != from_file


# ---------------------------------------------------------------------------
# settings fuzzer
# ---------------------------------------------------------------------------

# Planted files a path setting may name: the good CSV, a CSV with a byte that
# is not UTF-8, a schema of deeply nested JSON, a directory and a missing file.
FUZZ_PATHS = ["train.csv", "latin1.csv", "nested.json", ".", "missing.csv"]
# Setting values: NaN, infinities, negative numbers, empty strings, strings
# that are not numbers, INI syntax, kinds and the planted paths. Numbers stay
# small, so an accepted setting builds a small model.
FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "", "abc", "0x10", "1,2", "%", "50%",
                     "nan,0.5,0.5", "0.5,0.5,-0.0", "0.98,0.01,0.01", "crossnet", "cin", "outer",
                     "dagfm+", "final-state", "tanh", *FUZZ_PATHS]),
    st.integers(-3, 4).map(str),
    st.floats(-2, 2).map(str),
)
PATH_KEYS = {("data", "train_csv"), ("data", "schema")}


def _values(key):
    """The value strategy of an INI key: paths mostly a planted file."""
    return st.one_of(st.sampled_from(FUZZ_PATHS), FUZZ_VALUES) if key in PATH_KEYS else FUZZ_VALUES
# Whole INI lines that are not a key of a known section, and non-UTF-8 bytes.
FUZZ_LINES = st.sampled_from(
    [b"", b"[run", b"seed = 1", b"[teacher]\n[teacher]", b"[optimizer]\nlr = 1", b"\xff\xfe = 1"]
)
# every INI key but the output directory, which each example sets by flag
FUZZ_KEYS = sorted(key for key in _KEYS if key != ("run", "out_dir"))
FUZZ_COMMANDS = {
    "train-teacher": [],
    "distill": ["--checkpoint", "teacher/teacher.ckpt"],
}


def _flag_values(command):
    """A value strategy for each settings flag of ``command`` except
    ``--out`` and ``--epochs``, which every example sets: a value its argparse
    type takes, so that each example reaches the settings' own checks."""
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    keys = {cli._dest(flag): key for flag, key in sub.get_default("keys").items()}
    numbers = {
        int: st.integers(-3, 4).map(str),
        float: st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-3", "1e400"]),
    }
    return {
        action.option_strings[0]: (
            st.sampled_from(action.choices) if action.choices
            else numbers[action.type] if action.type in numbers
            else _values(keys[action.dest])
        )
        for action in sub._actions
        if action.dest in keys and action.option_strings[0] not in ("--out", "--epochs")
    }


FUZZ_FLAGS = {command: _flag_values(command) for command in FUZZ_COMMANDS}


@st.composite
def cli_settings(draw):
    """``(command, ini bytes, flags)``: some INI keys, some junk lines, and
    some of the command's flags, each with a fuzzed value."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    keys = draw(st.lists(st.sampled_from(FUZZ_KEYS), max_size=4, unique=True))
    lines = []
    for section in sorted({section for section, _ in keys}):  # one header per section
        lines.append(f"[{section}]".encode())
        lines += [f"{key} = {draw(_values((s, key)))}".encode() for s, key in keys if s == section]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(FUZZ_LINES))
    flag_values = FUZZ_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flag_values)), max_size=3, unique=True))
    # "--flag=value", so that a value such as "-inf" does not read as a flag
    flags = [f"{flag}={draw(flag_values[flag])}" for flag in chosen]
    return command, b"\n".join(lines) + b"\n", flags


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory of planted inputs and a teacher checkpoint to distill
    from. The CSV's 300 rows leave both labels in every split."""
    root = tmp_path_factory.mktemp("fuzz")
    schema, dataset, _ = generate_planted_dataset(300, m=3, vocab_size=5, seed=0)
    write_csv(root / "train.csv", schema, dataset)
    (root / "latin1.csv").write_bytes(b"label,f1,f2,f3\n1,a,b,\xe9\n")
    (root / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    teacher = ["train-teacher", "--data", str(root / "train.csv"), "--out", str(root / "teacher"),
               "--d", "2", "--depth", "1", "--epochs", "0"]
    assert main(teacher) == 0
    return root


class TestCliFuzz:
    """Whatever the settings, ``cli.main`` lets no exception but
    ``cli._USER_ERRORS`` reach its handler (any other escapes from ``main``),
    exits 0 or 1, and an exit 1 leaves no output directory. Each example
    runs a stage of 0 epochs, so an accepted setting costs a build, a save
    and a scoring pass."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cli_settings())
    @example(("train-teacher", b"[stage.teacher]\nlr = nan\n", []))
    @example(("train-teacher", b"[kd]\nalpha = inf\n", []))
    @example(("distill", b"", ["--alpha", "nan"]))
    @example(("train-teacher", b"", ["--split", "nan,0.5,0.5"]))
    @example(("train-teacher", b"[run]\nseed = -1\n", []))
    @example(("distill", b"", ["--seed", "-1"]))
    @example(("train-teacher", b"[data]\nsplit_seed = -1\n", []))
    @example(("train-teacher", b"[data]\ntrain_csv = latin1.csv\n", ["--data", "latin1.csv"]))
    @example(("train-teacher", b"[data]\nschema = nested.json\n", []))
    @example(("train-teacher", b"", ["--data=."]))
    @example(("distill", b"[data]\nschema = .\n", []))
    @example(("train-teacher", b"[teacher]\nkind = \xff\n", []))
    @example(("train-teacher", b"[data]\nmin_freq = %\n", []))
    @example(("train-teacher", b"", ["--split=0.98,0.01,0.01"]))
    @example(("train-teacher", b"", ["--d", "1", "--teacher", "cin"]))
    def test_only_user_errors_escape_and_exit_one_writes_nothing(self, fuzz_dir, case):
        command, ini, flags = case
        run = Path(tempfile.mkdtemp(dir=fuzz_dir))
        (run / "run.ini").write_bytes(ini)
        out = run / "out"
        argv = [command, "--config", str(run / "run.ini"), "--out", str(out), "--epochs", "0",
                *FUZZ_COMMANDS[command], *flags]
        if not any(f.startswith("--data") for f in flags) and b"train_csv" not in ini:
            argv += ["--data", "train.csv"]
        cwd = os.getcwd()
        os.chdir(fuzz_dir)  # relative paths name the planted files
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1)
        assert out.exists() == (code == 0)
        shutil.rmtree(run)


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

    @pytest.mark.parametrize("flag", ["--ratings", "--dir"])
    def test_the_directory_is_the_one_input(self, flag, ml_dir, tmp_path, capsys):
        # --ratings/--users/--movies are no flags, and --dir is required
        argv = ["--dir", str(ml_dir), "--ratings", str(ml_dir / "ratings.dat")] \
            if flag == "--ratings" else []
        rc = main(["convert-movielens", *argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_user_exits_one(self, ml_dir, tmp_path, capsys):
        (ml_dir / "ratings.dat").write_text("9::10::4::1\n", encoding="latin-1")
        rc = main(["convert-movielens", "--dir", str(ml_dir), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "unknown user" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "out-exists"])
    def test_a_bad_rating_writes_no_partial_out(self, existing, ml_dir, tmp_path, capsys):
        # the first rating joins, the second names a user users.dat lacks
        (ml_dir / "ratings.dat").write_text("1::10::5::1\n9::10::4::1\n", encoding="latin-1")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "ml.csv"
        before = b"label,kept\n1,a\n"
        if existing:
            out.write_bytes(before)
        rc = main(["convert-movielens", "--dir", str(ml_dir), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ratings line 2: unknown user 9" in err and "Traceback" not in err
        # no temporary file is left beside --out either
        assert sorted(p.name for p in out_dir.iterdir()) == (["ml.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == before

    def test_the_csv_is_readable_as_a_plain_write_leaves_it(self, ml_dir, tmp_path):
        out = tmp_path / "ml.csv"
        main(["convert-movielens", "--dir", str(ml_dir), "--out", str(out)])
        plain = tmp_path / "plain.csv"
        plain.write_text("")
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ml-1m", "ml.csv", "plain.csv"]

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

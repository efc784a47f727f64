"""CSV ingestion: vocabularies, encoding, splits, and batch iteration."""

import json
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagfm import data
from dagfm.data import (
    INGEST_ROWS,
    Dataset,
    FieldSchema,
    ParseError,
    SchemaError,
    build_vocab,
    iterate_batches,
    load_dataset,
    read_csv,
    read_header,
    split_dataset,
)
from dagfm.synthetic import generate_planted_dataset, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestBuildVocab:
    def test_min_freq_threshold(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,a,x\n0,a,y\n1,b,z\n")
        schema = build_vocab(path, min_freq=2)
        assert schema.vocabs[0] == {"a": 0}
        assert schema.oov_index(0) == 1
        assert schema.vocabs[1] == {}  # x,y,z all below threshold

    @pytest.mark.parametrize("min_freq", [-1, 1.5, True, "2"], ids=repr)
    def test_min_freq_is_a_plain_nonnegative_int(self, min_freq, tmp_path):
        # checked at entry, before the (missing) file is opened
        with pytest.raises(SchemaError, match=f"min_freq must be an int >= 0, got {min_freq!r}"):
            build_vocab(tmp_path / "missing.csv", min_freq=min_freq)
        with pytest.raises(SchemaError, match="min_freq must be an int >= 0"):
            FieldSchema(names=["f1", "f2"], vocabs=[{}, {}], min_freq=min_freq)

    def test_min_freq_zero_keeps_everything(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,a,x\n0,b,y\n")
        schema = build_vocab(path, min_freq=0)
        assert schema.vocabs[0] == {"a": 0, "b": 1}
        assert schema.vocabs[1] == {"x": 0, "y": 1}

    def test_total_feature_count(self, tmp_path):
        rows = ["label,f1,f2"]
        for i in range(1000):
            rows.append(f"{i % 2},v{i % 10},w{i % 10}")
        path = write(tmp_path, "\n".join(rows) + "\n")
        schema = build_vocab(path, min_freq=0)
        # 10 values + 1 OOV bucket per field
        assert sum(schema.vocab_sizes()) == 22

    def test_first_seen_order(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,c,p\n0,a,p\n1,b,p\n")
        schema = build_vocab(path, min_freq=0)
        assert schema.vocabs[0] == {"c": 0, "a": 1, "b": 2}

    def test_single_field_rejected(self, tmp_path):
        path = write(tmp_path, "label,f1\n1,a\n")
        with pytest.raises(SchemaError):
            build_vocab(path, min_freq=0)
        # two fields is the minimum for interactions
        ok = write(tmp_path, "label,f1,f2\n1,a,b\n", name="ok.csv")
        build_vocab(ok, min_freq=0)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,a,x\n0,b\n")
        with pytest.raises(ParseError, match="line 3"):
            build_vocab(path, min_freq=0)

    def test_bad_label_reports_line(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n2,a,x\n")
        with pytest.raises(ParseError, match="line 2"):
            build_vocab(path, min_freq=0)

    @pytest.mark.parametrize("read", [
        read_header,
        build_vocab,
        lambda path: load_dataset(path, build_vocab(path.with_name("ok.csv"))),
    ], ids=["read_header", "build_vocab", "load_dataset"])
    # the line is counted as the text reader ends lines: at LF, CRLF or a lone CR
    @pytest.mark.parametrize("text, line", [(b"label,f1,\xff\n1,a,x\n", 1),
                                            (b"label,f1,f2\n1,a,x\n0,\xff,y\n", 3),
                                            (b"label,f1,f2\r\n1,a,x\r\n0,\xff,y\r\n", 3),
                                            (b"label,f1,f2\r1,a,x\r0,\xff,y\r", 3),
                                            (b"label,f1,f2\r1,a,x\n\r\r\n0,\xff,y", 5)],
                             ids=["header", "row", "row-crlf", "row-cr", "row-mixed"])
    def test_non_utf8_reports_file_and_line(self, read, text, line, tmp_path):
        write(tmp_path, "label,f1,f2\n1,a,x\n", name="ok.csv")
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=rf"bad\.csv: line {line}: byte 0xff is not UTF-8"):
            read(path)

    @pytest.mark.parametrize("text", ["label,f1,f2\n", "label,f1,f2", "label,f1,f2\r\n\n \t\r"])
    def test_header_only_file_is_a_parse_error(self, text, tmp_path):
        path = write(tmp_path, text)
        schema = FieldSchema(names=["f1", "f2"], vocabs=[{}, {}])
        for read in (build_vocab, lambda p: load_dataset(p, schema)):
            with pytest.raises(ParseError, match=re.escape(f"{path}: no data rows")):
                read(path)

    def test_header_read(self, tmp_path):
        path = write(tmp_path, "label,user,item\n1,a,b\n")
        assert read_header(path) == ["user", "item"]
        bad = write(tmp_path, "id,user,item\n1,a,b\n", name="bad.csv")
        with pytest.raises(SchemaError):
            read_header(bad)


class TestEncodeInstance:
    """Rows that ``load_dataset`` encodes against a fixed schema."""

    def schema(self):
        return FieldSchema(
            names=["f1", "f2"], vocabs=[{"a": 0, "b": 1}, {"x": 0}], min_freq=0
        )

    def load(self, tmp_path, *rows):
        return load_dataset(write(tmp_path, "label,f1,f2\n" + "\n".join(rows)), self.schema())

    def test_known_values(self, tmp_path):
        ds = self.load(tmp_path, "1,b,x")
        assert ds.labels.tolist() == [1]
        assert ds.indices.tolist() == [[1, 0]]

    def test_unseen_maps_to_oov(self, tmp_path):
        ds = self.load(tmp_path, "0,zzz,x")
        assert ds.indices[0, 0] == self.schema().oov_index(0) == 2

    def test_column_mismatch(self, tmp_path):
        with pytest.raises(ParseError, match="line 3: expected 3 columns, got 2"):
            self.load(tmp_path, "1,a,x", "1,a")

    def test_roundtrip_in_vocab(self, tmp_path):
        schema = self.schema()
        ds = self.load(tmp_path, *(f"0,{value},x" for value in schema.vocabs[0]))
        assert ds.indices[:, 0].tolist() == list(schema.vocabs[0].values())


class TestSchemaJson:
    def test_json_roundtrip(self, tmp_path):
        schema = FieldSchema(
            names=["f1", "f2"], vocabs=[{"a": 0, "b": 1}, {"x": 0}], min_freq=3
        )
        path = tmp_path / "schema.json"
        schema.save(path)
        loaded = FieldSchema.load(path)
        assert loaded.names == schema.names
        assert loaded.vocabs == schema.vocabs
        assert loaded.min_freq == schema.min_freq
        # the persisted form is the documented {fields: [...], min_freq} shape
        blob = json.loads(path.read_text())
        assert set(blob) == {"fields", "min_freq"}
        assert blob["fields"][0]["name"] == "f1"
        assert blob["fields"][0]["values"] == ["a", "b"]

    def test_values_are_listed_by_index(self):
        schema = FieldSchema(names=["f1", "f2"], vocabs=[{"b": 1, "a": 0}, {}])
        assert schema.values(0) == ["a", "b"] and schema.values(1) == []

    @pytest.mark.parametrize(
        "values, text",
        [
            (["a", "b", "a"], "schema field 0 'f1' repeats the value 'a'"),
            (["a", 7], "schema field 0 'f1' holds the non-string value 7"),
            (["a", ["b"]], "schema field 0 'f1' holds the non-string value ['b']"),
        ],
        ids=["repeated", "number", "list"],
    )
    def test_a_bad_value_is_a_schema_error(self, values, text):
        doc = {"fields": [{"name": "f1", "values": values}, {"name": "f2", "values": ["x"]}]}
        with pytest.raises(SchemaError) as raised:
            FieldSchema.from_json(json.dumps(doc))
        assert str(raised.value) == text

    @pytest.mark.parametrize(
        "min_freq", ["Infinity", "NaN", "[1]", '"x"', "-3", "1.9", '"2"', "true", "2.0"])
    def test_a_non_integer_min_freq_is_a_schema_error(self, min_freq):
        fields = '[{"name": "a", "values": []}, {"name": "b", "values": []}]'
        with pytest.raises(SchemaError, match="min_freq must be an int >= 0"):
            FieldSchema.from_json(f'{{"fields": {fields}, "min_freq": {min_freq}}}')

    def test_deeply_nested_file_is_a_schema_error(self, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, past its depth
        path = tmp_path / "schema.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError, match="not valid JSON: maximum recursion depth"):
            FieldSchema.load(path)


class TestSplitDataset:
    def dataset(self, n=10):
        indices = np.arange(2 * n, dtype=np.int64).reshape(n, 2) % 3
        labels = (np.arange(n) % 2).astype(np.float64)
        return Dataset(indices=indices, labels=labels)

    def test_ratio_sizes(self):
        split = split_dataset(self.dataset(10), ratios=(0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        a = split_dataset(self.dataset(50), seed=7)
        b = split_dataset(self.dataset(50), seed=7)
        assert np.array_equal(a.train.indices, b.train.indices)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_different_seeds_differ(self):
        base = split_dataset(self.dataset(50), seed=0)
        hits = sum(
            np.array_equal(
                split_dataset(self.dataset(50), seed=s).train.indices,
                base.train.indices,
            )
            for s in range(1, 11)
        )
        assert hits == 0

    def test_partition_is_exact(self):
        ds = self.dataset(37)
        split = split_dataset(ds, seed=3)
        stacked = np.concatenate(
            [split.train.indices, split.val.indices, split.test.indices]
        )
        assert stacked.shape == ds.indices.shape
        # same multiset of rows
        assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.indices))

    def test_parts_equal_the_fancy_index_gathers(self):
        # ``take`` copies each row whole; the arrays are those of indexing
        ds = Dataset(np.random.default_rng(0).integers(0, 50, size=(1000, 8)),
                     np.arange(1000) % 2)
        split = split_dataset(ds, seed=11)
        perm = np.random.default_rng(11).permutation(1000)
        for part, rows in zip((split.train, split.val, split.test),
                              (perm[:800], perm[800:900], perm[900:])):
            for got, want, dtype in ((part.indices, ds.indices[rows], np.int32),
                                     (part.labels, ds.labels[rows], np.int8)):
                assert got.dtype == dtype and got.flags.c_contiguous
                assert np.array_equal(got, want)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(Dataset(np.zeros((0, 2), np.int64), np.zeros(0)), seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(self.dataset(), ratios=(0.5, 0.4, 0.3), seed=0)
        with pytest.raises(ValueError):
            split_dataset(self.dataset(), ratios=(-0.1, 0.6, 0.5), seed=0)

    @pytest.mark.parametrize("ratios, part", [
        ((0.95, 0.025, 0.025), "val"), ((0.9, 0.09, 0.01), "test"), ((0.01, 0.5, 0.49), "train"),
    ])
    def test_empty_part_rejected(self, ratios, part):
        # 10 rows: each of these ratios rounds one part down to no row
        with pytest.raises(SchemaError, match=f"{part} split empty at 10 rows"):
            split_dataset(self.dataset(10), ratios=ratios, seed=0)

    @pytest.mark.parametrize("ratios", [
        (float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5), (float("inf"), 0.5, 0.5),
    ])
    def test_non_finite_ratios_rejected(self, ratios):
        with pytest.raises(SchemaError, match="ratios"):
            split_dataset(self.dataset(), ratios=ratios, seed=0)


class TestIterateBatches:
    def dataset(self, n):
        indices = np.arange(n, dtype=np.int64)[:, None].repeat(2, axis=1)
        return Dataset(indices=indices, labels=np.zeros(n))

    def test_batch_sizes(self):
        sizes = [len(lbl) for _, lbl in iterate_batches(self.dataset(5), 2)]
        assert sizes == [2, 2, 1]

    def test_single_batch_when_large(self):
        batches = list(iterate_batches(self.dataset(3), 100))
        assert len(batches) == 1
        assert len(batches[0][1]) == 3

    def test_concatenation_is_permutation(self):
        ds = self.dataset(23)
        rows = np.concatenate([idx[:, 0] for idx, _ in iterate_batches(ds, 4, seed=5)])
        assert sorted(rows.tolist()) == list(range(23))
        again = np.concatenate([idx[:, 0] for idx, _ in iterate_batches(ds, 4, seed=5)])
        assert np.array_equal(rows, again)

    def test_no_seed_keeps_order(self):
        ds = self.dataset(6)
        rows = np.concatenate([idx[:, 0] for idx, _ in iterate_batches(ds, 4)])
        assert rows.tolist() == list(range(6))

    def test_with_positions(self):
        ds = self.dataset(9)
        for rows, idx, _ in iterate_batches(ds, 4, seed=1, with_positions=True):
            assert np.array_equal(ds.indices[rows], idx)

    @pytest.mark.parametrize("seed", [None, 4])
    def test_batches_equal_the_fancy_index_gathers(self, seed):
        ds = Dataset(np.random.default_rng(1).integers(0, 50, size=(300, 8)), np.arange(300) % 2)
        for rows, idx, labels in iterate_batches(ds, 64, seed=seed, with_positions=True):
            for got, want, dtype in ((idx, ds.indices[rows], np.int32),
                                     (labels, ds.labels[rows], np.int8)):
                assert got.dtype == dtype and got.flags.c_contiguous
                assert np.array_equal(got, want)

    @given(n=st.integers(1, 40), bs=st.integers(1, 50), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_every_instance_once_per_epoch(self, n, bs, seed):
        ds = self.dataset(n)
        seen = np.concatenate(
            [idx[:, 0] for idx, _ in iterate_batches(ds, bs, seed=seed)]
        )
        assert sorted(seen.tolist()) == list(range(n))


class TestLoadDataset:
    def test_csv_roundtrip_via_writer(self, tmp_path):
        schema, ds, _ = generate_planted_dataset(200, m=4, vocab_size=6, seed=3)
        path = tmp_path / "synth.csv"
        write_csv(path, schema, ds)
        loaded = load_dataset(path, schema)
        assert np.array_equal(loaded.indices, ds.indices)
        assert np.array_equal(loaded.labels, ds.labels)


class TestDatasetWidths:
    """A dataset holds int32 codes and int8 labels; a conversion that would
    change a value is a schema error, never a silent truncation or wrap."""

    @pytest.mark.parametrize("indices, labels, bad", [
        ([[1.7, 0.0]], [1], "indices must be whole numbers that int32 holds, got 1.7"),
        ([[np.nan, 0.0]], [1], "indices must be whole numbers that int32 holds, got nan"),
        (np.array([[2**31, 0]]), [1], "int32 holds, got 2147483648"),
        (np.array([[-2**31 - 1, 0]]), [1], "int32 holds, got -2147483649"),
        ([[0, 1]], [0.5], "labels must be whole numbers that int8 holds, got 0.5"),
        ([[0, 1]], [300], "int8 holds, got 300"),  # a cast would wrap it to 44
        ([[0, 1]], [np.inf], "int8 holds, got inf"),
        ([["0", "1"]], [1], "indices must be numbers, got dtype <U1"),
        ([[0, 1]], [2**70], "labels must be numbers, got dtype object"),
    ], ids=["fraction", "nan", "2**31", "-2**31-1", "fractional-label", "label-300",
            "inf-label", "str", "huge-int"])
    def test_a_conversion_that_changes_a_value_is_a_schema_error(self, indices, labels, bad):
        with pytest.raises(SchemaError, match=re.escape(bad)):
            Dataset(indices, labels)

    def test_int32_codes_and_int8_labels_are_kept_without_a_copy(self):
        indices = np.arange(6, dtype=np.int32).reshape(3, 2)
        labels = np.array([0, 1, 1], dtype=np.int8)
        ds = Dataset(indices, labels)
        assert np.shares_memory(ds.indices, indices) and np.shares_memory(ds.labels, labels)

    def test_python_ints_and_exact_floats_build_at_the_dataset_widths(self):
        ds = Dataset([[2**31 - 1, -2**31], [0, 7]], [True, 0.0])
        assert ds.indices.dtype == np.int32 and ds.labels.dtype == np.int8
        assert ds.indices.tolist() == [[2**31 - 1, -2**31], [0, 7]]
        assert ds.labels.tolist() == [1, 0]

    def test_every_producer_gives_c_contiguous_int32_codes_and_int8_labels(self, tmp_path):
        schema, planted, _ = generate_planted_dataset(300, m=4, vocab_size=6, seed=2)
        write_csv(tmp_path / "data.csv", schema, planted)
        split = split_dataset(planted, seed=0)
        produced = [planted, read_csv(tmp_path / "data.csv")[1],
                    load_dataset(tmp_path / "data.csv", schema),
                    split.train, split.val, split.test]
        pairs = [(ds.indices, ds.labels) for ds in produced]
        pairs += list(iterate_batches(split.train, 64, seed=1))
        for indices, labels in pairs:
            assert indices.dtype == np.int32 and indices.flags.c_contiguous
            assert labels.dtype == np.int8 and labels.flags.c_contiguous

    def test_a_vocabulary_that_outgrows_int32_in_ingest_is_a_schema_error(self, tmp_path):
        # every field's first new value is code 2**31 - 1, so f1's second is 2**31
        def codes(vocab=None):
            return defaultdict(count(2**31 - 1).__next__)

        path = write(tmp_path, "label,f1,f2\n1,a,x\n0,b,x\n")
        with mock.patch.object(data, "_codes", codes):
            with pytest.raises(SchemaError, match="codes outgrow int32"):
                read_csv(path)


def reference_planted(n, m, vocab_size, seed, rule_fields=(0, 1, 2), signal=3.0, noise=0.5):
    """The planted generator as it drew its codes and made its labels at int64."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, vocab_size, size=(n, m))
    latents = {f: rng.normal(size=vocab_size) for f in rule_fields}
    logits = np.full(n, float(signal))
    for f in rule_fields:
        logits = logits * latents[f][idx[:, f]]
    noisy = logits + noise * rng.normal(size=n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-noisy))).astype(np.int64)
    return idx, labels, logits


@pytest.mark.parametrize("n, m, vocab_size, seed", [
    (1, 3, 1, 0), (200, 8, 50, 0), (1000, 8, 50, 7), (333, 23, 10, 3),
    (64, 39, 20_000, 11), (50, 4, 2**20, 5),
])
def test_planted_codes_and_labels_are_the_int64_draws(n, m, vocab_size, seed):
    # the int32 draw reads the generator's stream as the int64 one did, so
    # every later draw, and with them the labels, is unchanged too
    _, ds, logits = generate_planted_dataset(n, m, vocab_size, seed)
    want_idx, want_labels, want_logits = reference_planted(n, m, vocab_size, seed)
    assert np.array_equal(ds.indices, want_idx) and np.array_equal(ds.labels, want_labels)
    assert logits.tobytes() == want_logits.tobytes()


def reference_write_csv(path, schema: FieldSchema, dataset: Dataset) -> None:
    """The per-value writer that the column writer replaced."""
    inverse = [[*schema.values(f), "<oov>"] for f in range(schema.m)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["label", *schema.names]) + "\n")
        for k in range(len(dataset)):
            row = [str(int(dataset.labels[k]))]
            row += [inverse[f][dataset.indices[k, f]] for f in range(schema.m)]
            fh.write(",".join(row) + "\n")


class TestWriteCsv:
    # a partial block, exactly one block and blocks with a partial one after
    @pytest.mark.parametrize("n", [1, INGEST_ROWS, 2 * INGEST_ROWS + 7])
    def test_same_bytes_as_the_per_value_writer(self, n, tmp_path):
        schema = FieldSchema(names=["user", "é item", "tag"],
                             vocabs=[{"a": 0, "語": 1}, {"x y": 0}, {"": 0, "\v": 1, "z": 2}])
        rng = np.random.default_rng(n)
        # every index up to the OOV bucket's
        indices = rng.integers(0, [3, 2, 4], size=(n, 3))
        ds = Dataset(indices, rng.integers(0, 2, size=n))
        write_csv(tmp_path / "column.csv", schema, ds)
        reference_write_csv(tmp_path / "value.csv", schema, ds)
        assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()


class TestReadCsv:
    """``read_csv`` reads a file once into what ``build_vocab`` and then
    ``load_dataset`` read from it twice."""

    TEXTS = {
        "lf": "label,f1,f2\n1,a,x\n0,b,y\n1,a,y\n0,c,x\n",
        "crlf": "label,f1,f2\r\n1,a,x\r\n0,b,y\r\n1,a,y\r\n",
        "lone-cr": "label,f1,f2\r1,a,x\r0,b,y\r1,a,y",
        "blank-lines": "label,f1,f2\n\n1,a,x\n \t\n0,b,y\n\v\n1,a,y\n\x1c\n",
        "spaced-labels": "label,f1,f2\n 1,a,x\n0 ,b,y\n\t1,a,y\n",
        "break-chars": "label,f1,f2\n1,a\vb,x\x1cy\n0,a\vb,y\n1,\x1c,x\x1cy\n0,\v,\x1c\n",
    }

    @pytest.mark.parametrize("min_freq", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", TEXTS)
    def test_equals_build_vocab_then_load_dataset(self, name, min_freq, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(self.TEXTS[name].encode())
        schema, ds = read_csv(path, min_freq)
        want = build_vocab(path, min_freq)
        assert (schema.names, schema.vocabs, schema.min_freq) == (
            want.names, want.vocabs, want.min_freq)
        want = load_dataset(path, want)
        for got, ref, dtype in ((ds.indices, want.indices, np.int32),
                                (ds.labels, want.labels, np.int8)):
            assert got.dtype == dtype and got.flags.c_contiguous
            assert np.array_equal(got, ref)

    def test_min_freq_sends_rare_values_to_the_oov_bucket(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,c,x\n0,a,y\n1,c,y\n0,b,y\n1,a,y\n")
        schema, ds = read_csv(path, min_freq=2)
        assert schema.vocabs == [{"c": 0, "a": 1}, {"y": 0}]
        assert ds.indices.tolist() == [[0, 1], [1, 0], [0, 0], [2, 0], [1, 0]]

    def test_values_a_given_schema_lacks_are_oov(self, tmp_path):
        path = write(tmp_path, "label,f1,f2\n1,a,x\n0,new,x\n1,new,other\n")
        schema = FieldSchema(names=["f1", "f2"], vocabs=[{"a": 0, "b": 1}, {"x": 0}])
        ds = load_dataset(path, schema)
        assert ds.indices.tolist() == [[0, 0], [2, 0], [2, 1]]
        # the schema's own vocabularies take no OOV value
        assert schema.vocabs == [{"a": 0, "b": 1}, {"x": 0}]


# ---------------------------------------------------------------------------
# The per-line reader that the block reader replaced, kept as the reference
# ---------------------------------------------------------------------------
# The per-line reader that the block reader replaced, kept as the reference
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    label: int
    indices: tuple[int, ...]


def _parse_line(line: str, line_no: int, n_cols: int) -> list[str]:
    parts = line.rstrip("\r\n").split(",")
    if len(parts) != n_cols:
        raise ParseError(f"line {line_no}: expected {n_cols} columns, got {len(parts)}")
    return parts


def _parse_label(raw: str, line_no: int) -> int:
    raw = raw.strip()
    if raw not in ("0", "1"):
        raise ParseError(f"line {line_no}: label must be 0 or 1, got {raw!r}")
    return int(raw)


def _first_undecodable_line(path) -> int:
    """The first line, as universal newlines end them, holding a byte that
    UTF-8 decoding escapes to a lone surrogate."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return next(n for n, line in enumerate(fh, start=1)
                    if any("\udc80" <= c <= "\udcff" for c in line))


@contextmanager
def _lines(path) -> Iterator[Iterator[tuple[int, str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            bad = f"byte 0x{e.object[e.start]:02x} is not UTF-8 ({e.reason})"
            raise ParseError(f"{path}: line {_first_undecodable_line(path)}: {bad}") from None


def reference_read_header(path) -> list[str]:
    with _lines(path) as lines:
        header = next(lines, (1, ""))[1].rstrip("\r\n").split(",")
    if not header or header[0] != "label":
        raise SchemaError(f"header must start with 'label', got {header[:1]}")
    if len(header) < 3:
        raise SchemaError("need at least 2 feature fields after the label column")
    return header[1:]


def reference_build_vocab(csv_path, min_freq: int = 0) -> FieldSchema:
    if min_freq < 0:
        raise SchemaError(f"min_freq must be >= 0, got {min_freq}")
    names = reference_read_header(csv_path)
    m = len(names)
    counts = [Counter() for _ in range(m)]
    first_seen: list[dict[str, int]] = [{} for _ in range(m)]
    pos = 0
    with _lines(csv_path) as lines:
        next(lines)
        for line_no, line in lines:
            if not line.strip():
                continue
            parts = _parse_line(line, line_no, m + 1)
            _parse_label(parts[0], line_no)
            for f, raw in enumerate(parts[1:]):
                counts[f][raw] += 1
                if raw not in first_seen[f]:
                    first_seen[f][raw] = pos
                    pos += 1
    vocabs = []
    for f in range(m):
        kept = [v for v in first_seen[f] if counts[f][v] >= min_freq]
        kept.sort(key=first_seen[f].__getitem__)
        vocabs.append({v: i for i, v in enumerate(kept)})
    return FieldSchema(names=names, vocabs=vocabs, min_freq=min_freq)


def encode_instance(schema: FieldSchema, row: Sequence[str], line_no: int = 0) -> Instance:
    if len(row) != schema.m + 1:
        raise ParseError(
            f"line {line_no}: expected {schema.m + 1} columns, got {len(row)}"
        )
    label = _parse_label(row[0], line_no)
    idx = tuple(schema.vocabs[f].get(raw, schema.oov_index(f)) for f, raw in enumerate(row[1:]))
    return Instance(label, idx)


def reference_load_dataset(csv_path, schema: FieldSchema) -> Dataset:
    names = reference_read_header(csv_path)
    if names != schema.names:
        raise SchemaError(f"CSV fields {names} do not match schema fields {schema.names}")
    labels: list[int] = []
    rows: list[tuple[int, ...]] = []
    with _lines(csv_path) as lines:
        next(lines)
        for line_no, line in lines:
            if not line.strip():
                continue
            parts = _parse_line(line, line_no, schema.m + 1)
            inst = encode_instance(schema, parts, line_no)
            labels.append(inst.label)
            rows.append(inst.indices)
    return Dataset(np.asarray(rows, dtype=np.int64), np.asarray(labels, dtype=np.int64))


# Characters that str.splitlines() breaks at but a CSV line does not, so a
# reader that splits on them reads other rows than the file holds.
_VALUE_CHARS = ["a", "b", "é", "語", "", " ", "\t", "\v", "\f", "\x1c", "\x1d", "\x85", "\u2028"]
_LABELS = ["0", "1", " 1", "0 ", "\t1", "\x1c0", "1\u2028"]
_BAD_LABELS = ["2", "", " ", "x", "01", "1.0", "\u0661"]
_BLANK_LINES = ["", " ", "\t", "\v", "\x1c", " \u2028"]
_ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_files(draw):
    """A CSV (bytes) with at most one fault, and a clean file (bytes) of a
    prefix of its rows to build a schema from."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 9))
    value = st.lists(st.sampled_from(_VALUE_CHARS), max_size=2).map("".join)
    rows = [[draw(st.sampled_from(_LABELS))] + [draw(value) for _ in range(m)] for _ in range(n)]
    fault = draw(st.sampled_from([None, "columns", "label", "utf8"]))
    bad = draw(st.integers(0, n - 1))
    if fault == "columns":
        rows[bad] = rows[bad][:-1] if draw(st.booleans()) else [*rows[bad], draw(value)]
    elif fault == "label":
        rows[bad][0] = draw(st.sampled_from(_BAD_LABELS))

    def encode(rows, fault_at=None):
        lines = [",".join(["label", *(f"f{i}" for i in range(m))]).encode()]
        for k, row in enumerate(rows):
            lines += [b.encode() for b in draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=2))]
            line = ",".join(row).encode()
            if k == fault_at:
                at = draw(st.integers(0, len(line)))
                line = line[:at] + b"\xff" + line[at:]
            lines.append(line)
        # one ending for the whole file, a lone \r among them, or one per line
        ending = st.sampled_from(_ENDINGS).map(str.encode)
        ending = draw(st.one_of(ending.map(st.just), st.just(ending)))
        text = b"".join(line + draw(ending) for line in lines)
        return text if draw(st.booleans()) else text.rstrip(b"\r\n")

    keep = draw(st.integers(1, n))
    clean = [row for row in rows[:keep] if len(row) == m + 1 and row[0] in _LABELS]
    return encode(rows, bad if fault == "utf8" else None), encode(clean or [["1", *["a"] * m]])


def reference_read_csv(csv_path, min_freq: int = 0) -> tuple[FieldSchema, Dataset]:
    schema = reference_build_vocab(csv_path, min_freq)
    return schema, reference_load_dataset(csv_path, schema)


def _plain(result):
    if isinstance(result, tuple):
        return tuple(map(_plain, result))
    if isinstance(result, FieldSchema):
        return result.names, [list(v.items()) for v in result.vocabs], result.min_freq
    return result.indices.dtype, result.indices.tolist(), result.labels.dtype, result.labels.tolist()


def _outcome(read, *args):
    """What ``read`` returned, as plain values, or the class and text of its error."""
    try:
        return _plain(read(*args))
    except (ParseError, SchemaError) as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestBlockReaderMatchesPerLineReader:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, INGEST_ROWS])
    @given(files=csv_files(), min_freq=st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_same_vocabularies_arrays_and_errors(self, block_rows, files, min_freq, fuzz_dir):
        text, clean = files
        path, clean_path = fuzz_dir / "data.csv", fuzz_dir / "clean.csv"
        path.write_bytes(text)
        clean_path.write_bytes(clean)
        schema = reference_build_vocab(clean_path, min_freq)
        with mock.patch.object(data, "INGEST_ROWS", block_rows):
            assert _outcome(build_vocab, path, min_freq) == _outcome(
                reference_build_vocab, path, min_freq)
            assert _outcome(build_vocab, clean_path, min_freq) == _outcome(
                reference_build_vocab, clean_path, min_freq)
            assert _outcome(load_dataset, path, schema) == _outcome(
                reference_load_dataset, path, schema)
            assert _outcome(read_csv, path, min_freq) == _outcome(
                reference_read_csv, path, min_freq)


# any JSON value, a few levels deep, and NaN and the infinities that
# json.loads also reads
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def schema_documents(draw):
    """A schema file's text: the documented shape, its values from a small
    alphabet so that a repeat is common, with at most one fault: any JSON
    value in one place, or the text cut short."""
    n = draw(st.integers(0, 4))
    values = st.lists(st.sampled_from(["a", "b", "", "é"]), max_size=4, unique=draw(st.booleans()))
    fields = [{"name": draw(st.text(max_size=2)), "values": draw(values)} for _ in range(n)]
    doc = {"fields": fields, "min_freq": draw(st.integers(0, 3))}
    fault = draw(st.sampled_from(
        [None, "document", "fields", "min_freq", "field", "name", "values", "value", "cut"]))
    junk, k = draw(_JSON), draw(st.integers(0, max(n - 1, 0)))
    if fault == "document":
        doc = junk
    elif fault in ("fields", "min_freq"):
        doc[fault] = junk
    elif fault == "field" and n:
        fields[k] = junk
    elif fault in ("name", "values") and n:
        fields[k][fault] = junk
    elif fault == "value" and n and fields[k]["values"]:
        fields[k]["values"][draw(st.integers(0, len(fields[k]["values"]) - 1))] = junk
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text)))] if fault == "cut" else text


class TestSchemaFuzz:
    @given(text=schema_documents())
    @settings(max_examples=300, deadline=None)
    def test_loads_distinct_strings_by_index_or_raises_a_schema_error(self, text):
        try:
            schema = FieldSchema.from_json(text)
        except SchemaError:
            return
        doc = json.loads(text)
        assert schema.m == len(doc["fields"]) >= 2
        for f, field in enumerate(doc["fields"]):
            values = schema.values(f)
            assert values == field["values"]
            assert all(type(v) is str for v in values) and len(set(values)) == len(values)
            assert sorted(schema.vocabs[f].values()) == list(range(len(values)))
        # min_freq loads as the plain int >= 0 it was, and saves as it loaded
        min_freq = doc.get("min_freq", 0)
        assert type(min_freq) is int and min_freq >= 0 and schema.min_freq == min_freq
        again = FieldSchema.from_json(schema.to_json())
        assert again.vocabs == schema.vocabs and type(again.min_freq) is int
        assert again.min_freq == min_freq

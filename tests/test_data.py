"""CSV ingestion: vocabularies, encoding, splits, and batch iteration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagfm.data import (
    Dataset,
    FieldSchema,
    ParseError,
    SchemaError,
    build_vocab,
    encode_instance,
    iterate_batches,
    load_dataset,
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
    @pytest.mark.parametrize("text, line", [(b"label,f1,\xff\n1,a,x\n", 1),
                                            (b"label,f1,f2\n1,a,x\n0,\xff,y\n", 3)],
                             ids=["header", "row"])
    def test_non_utf8_reports_file_and_line(self, read, text, line, tmp_path):
        write(tmp_path, "label,f1,f2\n1,a,x\n", name="ok.csv")
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=rf"bad\.csv: line {line}: byte 0xff is not UTF-8"):
            read(path)

    def test_header_read(self, tmp_path):
        path = write(tmp_path, "label,user,item\n1,a,b\n")
        assert read_header(path) == ["user", "item"]
        bad = write(tmp_path, "id,user,item\n1,a,b\n", name="bad.csv")
        with pytest.raises(SchemaError):
            read_header(bad)


class TestEncodeInstance:
    def schema(self):
        return FieldSchema(
            names=["f1", "f2"], vocabs=[{"a": 0, "b": 1}, {"x": 0}], min_freq=0
        )

    def test_known_values(self):
        inst = encode_instance(self.schema(), ["1", "b", "x"])
        assert inst.label == 1
        assert inst.indices == (1, 0)

    def test_unseen_maps_to_oov(self):
        inst = encode_instance(self.schema(), ["0", "zzz", "x"])
        assert inst.indices[0] == self.schema().oov_index(0) == 2

    def test_column_mismatch(self):
        with pytest.raises(ParseError):
            encode_instance(self.schema(), ["1", "a"])

    def test_roundtrip_in_vocab(self):
        schema = self.schema()
        for value, idx in schema.vocabs[0].items():
            assert encode_instance(schema, ["0", value, "x"]).indices[0] == idx


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

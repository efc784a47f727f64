"""CSV ingestion for categorical CTR data.

Input files are UTF-8 CSV with a header row ``label,<field names>``; every
column after the label is one categorical field. Vocabulary discovery maps
raw values to contiguous indices per field, with one out-of-vocabulary (OOV)
bucket per field at index ``len(vocab)``. Splitting and batching are
deterministic functions of their seeds.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """A CSV row could not be parsed; the message carries the line number."""


class SchemaError(ValueError):
    """The file header or schema is structurally invalid."""


@dataclass
class FieldSchema:
    """Per-field vocabularies mapping raw values to contiguous indices."""

    names: list[str]
    vocabs: list[dict[str, int]]
    min_freq: int = 0

    def __post_init__(self):
        if len(self.names) < 2:
            raise SchemaError(f"need at least 2 fields, got {len(self.names)}")
        if len(self.vocabs) != len(self.names):
            raise SchemaError("one vocab per field required")

    @property
    def m(self) -> int:
        return len(self.names)

    def oov_index(self, field: int) -> int:
        return len(self.vocabs[field])

    def vocab_sizes(self) -> list[int]:
        """Rows per embedding table: in-vocab values plus the OOV bucket."""
        return [len(v) + 1 for v in self.vocabs]

    def encode_value(self, field: int, raw: str) -> int:
        return self.vocabs[field].get(raw, self.oov_index(field))

    def to_json(self) -> str:
        fields = []
        for name, vocab in zip(self.names, self.vocabs):
            values = [None] * len(vocab)
            for value, idx in vocab.items():
                values[idx] = value
            fields.append({"name": name, "values": values})
        return json.dumps({"fields": fields, "min_freq": self.min_freq}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FieldSchema":
        try:
            obj = json.loads(text)
        # json.loads raises RecursionError, not JSONDecodeError, on arrays nested too deep
        except (json.JSONDecodeError, RecursionError) as e:
            raise SchemaError(f"schema is not valid JSON: {e}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("fields"), list):
            raise SchemaError("schema must be a JSON object with a 'fields' list")
        for k, f in enumerate(obj["fields"]):
            if not isinstance(f, dict) or "name" not in f or not isinstance(f.get("values"), list):
                raise SchemaError(f"schema field {k} needs a 'name' and a 'values' list")
        try:  # unhashable values, a non-integer min_freq
            vocabs = [{v: i for i, v in enumerate(f["values"])} for f in obj["fields"]]
            min_freq = int(obj.get("min_freq", 0))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"bad schema: {e}") from None
        return cls(names=[f["name"] for f in obj["fields"]], vocabs=vocabs, min_freq=min_freq)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "FieldSchema":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as e:
                raise SchemaError(f"schema {path} is not UTF-8: {e}") from None
        return cls.from_json(text)


@dataclass
class Instance:
    """One encoded example: binary label plus one index per field."""

    label: int
    indices: tuple[int, ...]


class Dataset:
    """Columnar store of encoded instances (labels plus an index matrix)."""

    def __init__(self, indices: np.ndarray, labels: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if indices.ndim != 2 or labels.ndim != 1 or len(indices) != len(labels):
            raise SchemaError("indices must be (n, m) and labels (n,)")
        self.indices = indices
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self.indices.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.indices[rows], self.labels[rows])


@dataclass
class DatasetSplit:
    train: Dataset
    val: Dataset
    test: Dataset
    seed: int
    ratios: tuple[float, float, float]


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


@contextmanager
def _lines(path) -> Iterator[Iterator[tuple[int, str]]]:
    """Numbered lines (the header is line 1) of a UTF-8 text file; bytes that
    are not UTF-8 raise :class:`ParseError` naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            bad = f"byte 0x{e.object[e.start]:02x} is not UTF-8 ({e.reason})"
            raise ParseError(f"{path}: line {_undecodable_line(path)}: {bad}") from None


def _undecodable_line(path) -> int:
    # the text decoder reads ahead, so re-scan the bytes for the failing line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no


def read_header(path) -> list[str]:
    with _lines(path) as lines:
        header = next(lines, (1, ""))[1].rstrip("\r\n").split(",")
    if not header or header[0] != "label":
        raise SchemaError(f"header must start with 'label', got {header[:1]}")
    if len(header) < 3:
        raise SchemaError("need at least 2 feature fields after the label column")
    return header[1:]


def build_vocab(csv_path, min_freq: int = 0) -> FieldSchema:
    """Scan a CSV once and build per-field vocabularies.

    Values seen fewer than ``min_freq`` times map to the OOV bucket. Indices
    are assigned in first-appearance order, which makes the schema a
    deterministic function of the file.
    """
    if min_freq < 0:
        raise SchemaError(f"min_freq must be >= 0, got {min_freq}")
    names = read_header(csv_path)
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
    idx = tuple(schema.encode_value(f, raw) for f, raw in enumerate(row[1:]))
    return Instance(label, idx)


def load_dataset(csv_path, schema: FieldSchema) -> Dataset:
    names = read_header(csv_path)
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


def split_dataset(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 42,
) -> DatasetSplit:
    """Seeded shuffle followed by contiguous train/val/test slices, each of
    them non-empty: training needs rows, and validation and test need an AUC."""
    n = len(dataset)
    if n == 0:
        raise SchemaError("cannot split an empty dataset")
    if len(ratios) != 3 or any(not r > 0 for r in ratios):  # NaN is not > 0
        raise SchemaError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SchemaError(f"ratios must sum to 1, got {sum(ratios)}")
    perm = np.random.default_rng(seed).permutation(n)
    b1 = int(round(ratios[0] * n))
    b2 = int(round((ratios[0] + ratios[1]) * n))
    parts = (perm[:b1], perm[b1:b2], perm[b2:])
    for name, part in zip(("train", "val", "test"), parts):
        if len(part) == 0:
            raise SchemaError(f"ratios {tuple(ratios)} leave the {name} split empty at {n} rows")
    return DatasetSplit(
        train=dataset.subset(parts[0]),
        val=dataset.subset(parts[1]),
        test=dataset.subset(parts[2]),
        seed=seed,
        ratios=tuple(ratios),
    )


def iterate_batches(
    dataset: Dataset,
    batch_size: int,
    seed: int | None = None,
    with_positions: bool = False,
) -> Iterator[tuple]:
    """Yield ``(index_matrix, labels)`` batches; the last batch may be short.

    With a seed the epoch order is the seeded permutation, otherwise natural
    order. ``with_positions=True`` prepends the row positions of each batch,
    which lets callers align per-row side data (e.g. precomputed teacher
    logits) with the shuffled stream.
    """
    if batch_size < 1:
        raise SchemaError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    order = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        rows = order[start : start + batch_size]
        batch = (dataset.indices[rows], dataset.labels[rows])
        yield (rows, *batch) if with_positions else batch

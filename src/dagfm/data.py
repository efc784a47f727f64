"""CSV ingestion for categorical CTR data.

Input files are UTF-8 CSV with a header row ``label,<field names>``; every
column after the label is one categorical field. Vocabulary discovery maps
raw values to contiguous indices per field, in first-appearance order, with
one out-of-vocabulary (OOV) bucket per field at index ``len(vocab)``.
A :class:`Dataset` holds its codes as int32 and its labels as int8, so a
field's vocabulary is limited to 2**31 - 1 values; a model's table rows,
which may outnumber that, are int64. Splitting and batching are
deterministic functions of their seeds, and they gather rows with ``take``,
which copies each row whole and keeps those widths.

A file is decoded as streamed UTF-8 text and read :data:`INGEST_ROWS` lines
at a time. Lines end at ``\n``, ``\r\n`` or a lone ``\r`` (Python's
universal newlines); the other breaks of :meth:`str.splitlines`, such as
``\v``, ``\f``, ``\x1c`` or ``\u2028``, are characters of a value. A line
that is empty or only whitespace is skipped but still counted, so every
:class:`ParseError` names the line of the file.

One encoder, :func:`_encode`, reads every file. Each block is checked, split
into its values with one ``join`` and one ``split``, and coded by one
``np.fromiter`` over ``map(dict.__getitem__, cycle(columns), values)``: one
dict subscript per value, with no Python loop per value. The label's dict
and each field's dict sit in that cycle. A field's dict gives a value it
does not hold the next index (:func:`read_csv`, which builds the schema) or
the OOV index (:func:`load_dataset`, which reads against a given one).
Each block is coded at the dataset's int32 width as it is read, so ingest
never holds a wider matrix. :func:`read_csv` applies ``min_freq``
afterwards, with one ``np.bincount`` and one remap per field, so a schema
and its dataset take one parse.
"""

from __future__ import annotations

import json
import reprlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, count, cycle, islice, repeat
from typing import Iterator, TextIO

import numpy as np

INGEST_ROWS = 512  # lines read, split and encoded at a time
_LABELS = {"0": 0, "1": 1}


class ParseError(ValueError):
    """A CSV row could not be parsed; the message carries the line number."""


class SchemaError(ValueError):
    """The file header or schema is structurally invalid."""


def check_min_freq(min_freq) -> None:
    """Reject any vocabulary frequency threshold but a plain ``int >= 0`` (no
    bool, float or string, which a schema would load and save again)."""
    if type(min_freq) is not int or min_freq < 0:
        raise SchemaError(f"min_freq must be an int >= 0, got {reprlib.repr(min_freq)}")


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
        check_min_freq(self.min_freq)

    @property
    def m(self) -> int:
        return len(self.names)

    def oov_index(self, field: int) -> int:
        return len(self.vocabs[field])

    def vocab_sizes(self) -> list[int]:
        """Rows per embedding table: in-vocab values plus the OOV bucket."""
        return [len(v) + 1 for v in self.vocabs]

    def values(self, field: int) -> list[str]:
        """The field's in-vocab values, listed by index."""
        values = [None] * len(self.vocabs[field])
        for value, idx in self.vocabs[field].items():
            values[idx] = value
        return values

    def to_json(self) -> str:
        fields = [{"name": name, "values": self.values(f)} for f, name in enumerate(self.names)]
        return json.dumps({"fields": fields, "min_freq": self.min_freq}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FieldSchema":
        try:
            obj = json.loads(text)
        # ValueError: text that is not JSON, or an integer of more digits than
        # int() converts; RecursionError: arrays nested deeper than the decoder recurses
        except (ValueError, RecursionError) as e:
            raise SchemaError(f"schema is not valid JSON: {e}") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("fields"), list):
            raise SchemaError("schema must be a JSON object with a 'fields' list")
        vocabs = []
        for k, f in enumerate(obj["fields"]):
            if not isinstance(f, dict) or "name" not in f or not isinstance(f.get("values"), list):
                raise SchemaError(f"schema field {k} needs a 'name' and a 'values' list")
            # distinct strings, each index one value that a CSV cell can hold
            vocab, field = {}, f"schema field {k} {reprlib.repr(f['name'])}"  # it may nest deep
            for v in f["values"]:
                if type(v) is not str or v in vocab:
                    fault = "repeats the value" if type(v) is str else "holds the non-string value"
                    raise SchemaError(f"{field} {fault} {reprlib.repr(v)}")
                vocab[v] = len(vocab)
            vocabs.append(vocab)
        return cls(names=[f["name"] for f in obj["fields"]], vocabs=vocabs,
                   min_freq=obj.get("min_freq", 0))

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


def _exact(values, dtype, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array: the array itself when it has that
    dtype, else one converted copy. A conversion that would change a value
    (a fraction, NaN, or a value outside ``dtype``'s range, which a cast
    would wrap) raises :class:`SchemaError`."""
    arr = np.asarray(values)
    if arr.dtype == dtype:
        return arr
    if arr.dtype.kind not in "biuf":
        raise SchemaError(f"{what} must be numbers, got dtype {arr.dtype}")
    with np.errstate(invalid="ignore"):  # NaN and out-of-range floats cast to junk
        out = arr.astype(dtype)
    changed = out != arr
    if changed.any():
        raise SchemaError(
            f"{what} must be whole numbers that {np.dtype(dtype)} holds, "
            f"got {arr[changed][0].item()!r}"
        )
    return out


class Dataset:
    """Columnar store of encoded instances: an (n, m) int32 index matrix and
    n int8 labels. Input of those dtypes is kept as given, other input is
    converted once; a conversion that would change a value raises
    :class:`SchemaError`."""

    def __init__(self, indices: np.ndarray, labels: np.ndarray):
        indices = _exact(indices, np.int32, "indices")
        labels = _exact(labels, np.int8, "labels")
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
        return Dataset(self.indices.take(rows, axis=0), self.labels.take(rows))


@dataclass
class DatasetSplit:
    train: Dataset
    val: Dataset
    test: Dataset
    seed: int
    ratios: tuple[float, float, float]


@contextmanager
def _text(path) -> Iterator[TextIO]:
    """A UTF-8 text file read with universal newlines; bytes that are not
    UTF-8 raise :class:`ParseError` naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            bad = f"byte 0x{e.object[e.start]:02x} is not UTF-8 ({e.reason})"
            raise ParseError(f"{path}: line {_undecodable_line(path)}: {bad}") from None


def _undecodable_line(path) -> int:
    # the text decoder reads ahead, so re-scan for the failing line: latin-1
    # maps each byte to one character, and universal newlines end the lines
    # where the UTF-8 reader does (at \n, \r\n and a lone \r)
    with open(path, "r", encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                return line_no


def read_header(path) -> list[str]:
    with _text(path) as fh:
        header = next(fh, "").rstrip("\r\n").split(",")
    if not header or header[0] != "label":
        raise SchemaError(f"header must start with 'label', got {header[:1]}")
    if len(header) < 3:
        raise SchemaError("need at least 2 feature fields after the label column")
    return header[1:]


class _Labels(dict):
    """Raw label → 0 or 1, or -1 for a value that is no label; a raw value
    is stripped of whitespace the first time it is seen."""

    def __missing__(self, raw: str) -> int:
        self[raw] = code = _LABELS.get(raw.strip(), -1)
        return code


def _codes(vocab: dict[str, int] | None = None) -> defaultdict:
    """A field's value → index dict for the encoder. A value it does not hold
    gets the next index (no ``vocab``: first-seen order) or the OOV index
    ``len(vocab)``, and is kept, so each later sight of it is one subscript."""
    if vocab is None:
        return defaultdict(count().__next__)
    return defaultdict(repeat(len(vocab)).__next__, vocab)


def _encode(path, fields: list[defaultdict]) -> tuple[np.ndarray, np.ndarray]:
    """The data rows of a ``label`` + ``len(fields)``-field CSV, as the int32
    indices and int8 labels of a :class:`Dataset`, field ``f``'s values coded
    by ``fields[f]``. Raises :class:`ParseError` for the first malformed
    line, or when the file holds no data row, and :class:`SchemaError` when a
    field's codes outgrow int32."""
    m = len(fields)
    n_cols = m + 1
    columns = [_Labels(_LABELS), *fields]
    blocks = []
    with _text(path) as fh:
        next(fh, None)  # the header, line 1
        line_no = 2
        while block := list(islice(fh, INGEST_ROWS)):
            rows = [line for line in block if line.strip()]
            if rows:
                if list(map(str.count, rows, repeat(","))).count(m) < len(rows):
                    _raise_first_fault(block, line_no, n_cols)
                # every line but the file's last ends in "\n", so one split
                # gives the block's values row-major; a trailing "" would be
                # one more label, which ``count`` leaves out
                values = "".join(rows).replace("\n", ",").split(",")
                try:
                    codes = np.fromiter(
                        map(dict.__getitem__, cycle(columns), values),
                        dtype=np.int32,
                        count=len(rows) * n_cols,
                    ).reshape(len(rows), n_cols)
                except OverflowError:
                    raise SchemaError(
                        f"{path}: a field's codes outgrow int32; a vocabulary "
                        f"holds at most {np.iinfo(np.int32).max} values"
                    ) from None
                if codes[:, 0].min() < 0:
                    _raise_first_fault(block, line_no, n_cols)
                blocks.append(codes)
            line_no += len(block)
    if not blocks:
        raise ParseError(f"{path}: no data rows")
    return (np.concatenate([b[:, 1:] for b in blocks]),
            np.concatenate([b[:, 0] for b in blocks], dtype=np.int8))


def _raise_first_fault(block: list[str], line_no: int, n_cols: int) -> None:
    """Raise the :class:`ParseError` of the first bad line of ``block``,
    whose first line is line ``line_no`` of the file."""
    for line_no, line in enumerate(block, start=line_no):
        if line.strip():
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_cols:
                raise ParseError(f"line {line_no}: expected {n_cols} columns, got {len(parts)}")
            label = parts[0].strip()
            if label not in _LABELS:
                raise ParseError(f"line {line_no}: label must be 0 or 1, got {label!r}")


def read_csv(csv_path, min_freq: int = 0) -> tuple[FieldSchema, Dataset]:
    """Read a CSV once into the schema it defines and its encoded dataset.

    Indices are assigned in first-appearance order, which makes the schema a
    deterministic function of the file. Values seen fewer than ``min_freq``
    times map to the OOV bucket. The result equals :func:`build_vocab`
    followed by :func:`load_dataset`, at half the reading.
    """
    check_min_freq(min_freq)
    names = read_header(csv_path)
    fields = [_codes() for _ in names]
    indices, labels = _encode(csv_path, fields)
    vocabs = []
    for f, codes in enumerate(fields):  # a dict keeps its keys in first-insertion order
        if min_freq > 1:
            keep = np.bincount(indices[:, f], minlength=len(codes)) >= min_freq
            # the kept values close ranks; the others go to the OOV bucket
            indices[:, f] = np.where(keep, np.cumsum(keep) - 1, keep.sum())[indices[:, f]]
            codes = zip(compress(codes, keep), count())
        vocabs.append(dict(codes))
    return FieldSchema(names=names, vocabs=vocabs, min_freq=min_freq), Dataset(indices, labels)


def build_vocab(csv_path, min_freq: int = 0) -> FieldSchema:
    """The schema of :func:`read_csv`: per-field vocabularies in
    first-appearance order, values seen fewer than ``min_freq`` times left out."""
    return read_csv(csv_path, min_freq)[0]


def load_dataset(csv_path, schema: FieldSchema) -> Dataset:
    """Encode a CSV with a given schema; a value it does not hold is OOV."""
    names = read_header(csv_path)
    if names != schema.names:
        raise SchemaError(f"CSV fields {names} do not match schema fields {schema.names}")
    fields = [_codes(vocab) for vocab in schema.vocabs]
    return Dataset(*_encode(csv_path, fields))


def check_ratios(ratios) -> None:
    """Reject train/val/test ratios that are not three positive numbers
    summing to 1."""
    if len(ratios) != 3 or any(not r > 0 for r in ratios):  # NaN is not > 0
        raise SchemaError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SchemaError(f"ratios must sum to 1, got {sum(ratios)}")


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
    check_ratios(ratios)
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
        batch = (dataset.indices.take(rows, axis=0), dataset.labels.take(rows))
        yield (rows, *batch) if with_positions else batch

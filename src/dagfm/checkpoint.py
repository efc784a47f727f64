"""Self-describing binary checkpoints (format version 3) and the model registry.

Layout: an 8-byte little-endian unsigned header length, a JSON header, then
the raw parameter payload. The header carries the format version, the model
kind, a config echo sufficient to rebuild the model, the per-field
vocabulary sizes, and a manifest of (name, shape, dtype) in payload order.
Since version 3 every layout opens with one ``emb`` table of
``sum(vocab_sizes)`` rows, field ``i``'s rows after those of fields
``0..i-1``. Version 2 files, which held one table per field, are rejected
by the version check like any other version.
The config echo is the build spec's dataclass fields (``dataclasses.asdict``,
so the DAG spec of ``dagfm+`` nests untagged under ``dagfm``) plus a
``model`` tag naming the family; ``model.spec`` is that build spec for every
family. The payload is the concatenation of each parameter's contiguous
little-endian bytes in manifest order, so save -> load -> save reproduces the
file byte for byte.

Loading checks the file against the model family's declared parameter
layout (``spec.layout``) before it allocates anything: the header length
against the file size, then the layout's parameters, every one of them,
against the payload size, so a small file cannot force a large allocation,
then every manifest entry (known and unique name, exact shape, float dtype)
and the exact payload size. It then reads the weights, rejects non-finite
ones, and builds the model from them with no random draws. Every malformed
file raises :class:`CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import typing

import numpy as np

from .interactions import DagfmModel, DagfmPlusModel
from .numcore import ConfigurationError
from .teachers import CinModel, CrossNetModel, FmfmModel, FwfmModel, TinyMlpModel

FORMAT_VERSION = 3
_LEN = struct.Struct("<Q")
# fewest bytes per weight: float16 is the narrowest float a manifest may name
_NARROWEST_FLOAT = np.dtype(np.float16).itemsize


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or of the wrong version."""


MODELS = (DagfmModel, DagfmPlusModel, CinModel, CrossNetModel, FwfmModel, FmfmModel, TinyMlpModel)
_BY_KIND = {cls.kind: cls for cls in MODELS}
_BY_SPEC = {cls.spec_type: cls for cls in MODELS}


def model_class(spec):
    """The model family built from ``spec``."""
    if type(spec) not in _BY_SPEC:
        raise ConfigurationError(f"no model family for spec type {type(spec).__name__}")
    return _BY_SPEC[type(spec)]


def spec_to_dict(spec) -> dict:
    return {"model": model_class(spec).kind, **dataclasses.asdict(spec)}


def _construct(spec_type, fields: dict):
    """Build a spec from JSON fields; a field typed as a spec dataclass recurses."""
    hints = typing.get_type_hints(spec_type)
    try:
        return spec_type(**{
            k: _construct(hints[k], v) if dataclasses.is_dataclass(hints.get(k)) else v
            for k, v in fields.items()
        })
    # RecursionError: the repr, in a field check's message, of a value nested too deep
    except (AttributeError, TypeError, ValueError, RecursionError) as e:
        raise CheckpointError(f"bad {spec_type.__name__} config: {e}") from e


def spec_from_dict(d: dict):
    kind = d.get("model") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _BY_KIND:
        raise CheckpointError(f"unknown model kind {kind!r}")
    return _construct(_BY_KIND[kind].spec_type, {k: v for k, v in d.items() if k != "model"})


def build_model(spec, vocab_sizes, seed: int = 0):
    """Instantiate the model class matching a spec."""
    return model_class(spec)(spec, vocab_sizes, seed=seed)


def save_checkpoint(model, path) -> None:
    names = model.store.names()
    manifest = [
        {
            "name": n,
            "shape": list(model.store[n].shape),
            "dtype": np.dtype(model.store.dtype).newbyteorder("<").str,
        }
        for n in names
    ]
    header = {
        "version": FORMAT_VERSION,
        "kind": model.kind,
        "config": spec_to_dict(model.spec),
        "vocab_sizes": list(model.vocab_sizes),
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_LEN.pack(len(blob)))
        fh.write(blob)
        for n in names:
            arr = model.store[n]
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def _payload_plan(shapes, manifest) -> dict[str, tuple[np.dtype, tuple]]:
    """{name: (dtype, shape)} in manifest order, checked against the layout's
    ``shapes`` ({name: shape})."""
    if not isinstance(manifest, list):
        raise CheckpointError("corrupt header: manifest is not a list")
    plan = {}
    for entry in manifest:
        try:
            name, shape, dtype = entry["name"], entry["shape"], np.dtype(entry["dtype"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"corrupt manifest entry {entry!r}") from e
        if not isinstance(name, str) or name not in shapes:
            raise CheckpointError(f"manifest names unknown parameter {name!r}")
        if name in plan:
            raise CheckpointError(f"manifest lists parameter {name!r} twice")
        expected = shapes[name]
        if not isinstance(shape, list) or any(type(n) is not int for n in shape) \
                or tuple(shape) != expected:
            raise CheckpointError(
                f"parameter {name!r}: manifest shape {shape!r} does not match the model's "
                f"{list(expected)}"
            )
        if not isinstance(entry["dtype"], str) or dtype.kind != "f":
            raise CheckpointError(f"parameter {name!r}: dtype {entry['dtype']!r} is not a float")
        plan[name] = dtype, expected
    missing = sorted(shapes.keys() - plan.keys())
    if missing:
        raise CheckpointError(f"manifest missing parameters {missing}")
    return plan


def load_checkpoint(path):
    with open(path, "rb") as fh:
        prefix = fh.read(_LEN.size)
        if len(prefix) != _LEN.size:
            raise CheckpointError("file shorter than the header-length prefix")
        (header_len,) = _LEN.unpack(prefix)
        size = os.fstat(fh.fileno()).st_size
        if header_len > size - _LEN.size:
            raise CheckpointError(f"truncated header: {header_len} bytes claimed, file holds fewer")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        # json.loads raises RecursionError, not JSONDecodeError, on arrays nested too deep
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise CheckpointError(f"corrupt header: {e}") from e
        if not isinstance(header, dict):
            raise CheckpointError("corrupt header: not a JSON object")
        version = header.get("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r}; this build reads {FORMAT_VERSION}"
            )
        for key in ("kind", "config", "vocab_sizes", "manifest"):
            if key not in header:
                raise CheckpointError(f"corrupt header: missing {key!r}")
        spec = spec_from_dict(header["config"])
        cls = model_class(spec)
        if header["kind"] != cls.kind:
            raise CheckpointError(f"header kind {header['kind']!r} != config {cls.kind!r}")
        vocab_sizes = header["vocab_sizes"]
        if not isinstance(vocab_sizes, list) or len(vocab_sizes) != spec.num_fields or \
                any(type(v) is not int or v < 1 for v in vocab_sizes):
            raise CheckpointError(
                f"vocab_sizes must be a list of {spec.num_fields} positive ints, "
                f"got {vocab_sizes!r}"
            )
        # the layout is read one entry at a time and stops as soon as it
        # claims more weights than the payload can hold
        available = size - fh.tell()
        shapes, weights = {}, 0
        for name, shape, _ in spec.layout(vocab_sizes):
            weights += math.prod(shape)
            if weights * _NARROWEST_FLOAT > available:
                raise CheckpointError(f"{sum(vocab_sizes)} embedding rows and the other "
                                      f"parameters need more than the {available}-byte payload")
            shapes[name] = shape
        plan = _payload_plan(shapes, header["manifest"])
        expected = sum(math.prod(shape) * dtype.itemsize for dtype, shape in plan.values())
        if available < expected:
            raise CheckpointError(f"truncated payload: {available} of {expected} bytes")
        if available > expected:
            raise CheckpointError("trailing bytes after payload")
        values = {}
        for name, (dtype, shape) in plan.items():
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise CheckpointError(f"truncated payload in parameter {name!r}")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite weights in parameter {name!r}")
            values[name] = arr
    return cls.from_values(spec, vocab_sizes, values)

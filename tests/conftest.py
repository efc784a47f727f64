"""Shared fixtures and helpers: random small model configs and loss closures
used by the gradient suite."""

from __future__ import annotations

import numpy as np
import pytest

from dagfm.interactions import (
    DagfmModel,
    DagfmPlusModel,
    DagfmPlusSpec,
    DagfmSpec,
)
from dagfm.numcore import RowGrad, grad_check
from dagfm.teachers import (
    CinModel,
    CinSpec,
    CrossNetModel,
    CrossNetSpec,
    FmfmModel,
    FmfmSpec,
    FwfmModel,
    FwfmSpec,
    TinyMlpModel,
    TinyMlpSpec,
)

# Every trainable model family in the package, used by the gradient suite.
MODEL_TAGS = (
    "dagfm-basic-inner",
    "dagfm-inner",
    "dagfm-kernel",
    "dagfm-outer",
    "dagfm+",
    "cin",
    "crossnet",
    "fwfm",
    "fmfm",
    "tinymlp",
)


def random_small_model(tag: str, rng: np.random.Generator):
    """A randomly configured small instance of the given model family,
    plus a random batch to feed it.

    Relu models are resampled until no hidden pre-activation sits near the
    kink: central differences assume the loss is smooth around the point
    being checked, and a unit crossing zero under the +-h probe breaks that.
    """
    for _ in range(100):
        model, idx, labels = _draw_model(tag, rng)
        if relu_kink_margin(model, idx) > 1e-3:
            return model, idx, labels
    raise RuntimeError(f"could not draw a kink-free configuration for {tag}")


def _draw_model(tag: str, rng: np.random.Generator):
    m = int(rng.integers(2, 5))
    d = int(rng.integers(1, 4))
    layers = int(rng.integers(1, 3))
    vocab = [int(v) for v in rng.integers(2, 6, size=m)]
    seed = int(rng.integers(0, 2**31 - 1))
    if tag.startswith("dagfm-"):
        model = DagfmModel(DagfmSpec(tag[len("dagfm-"):], m, d, layers), vocab, seed=seed)
    elif tag == "dagfm+":
        kind = str(rng.choice(("inner", "kernel", "outer")))
        feed = str(rng.choice(("all-states", "final-state")))
        spec = DagfmPlusSpec(
            DagfmSpec(kind, m, d, layers), mlp_hidden=(5, 4), mlp_feed=feed
        )
        model = DagfmPlusModel(spec, vocab, seed=seed)
    elif tag == "cin":
        sizes = tuple(int(h) for h in rng.integers(1, 4, size=layers))
        model = CinModel(CinSpec(m, d, sizes), vocab, seed=seed)
    elif tag == "crossnet":
        model = CrossNetModel(CrossNetSpec(m, d, layers), vocab, seed=seed)
    elif tag == "fwfm":
        model = FwfmModel(FwfmSpec(m, d), vocab, seed=seed)
    elif tag == "fmfm":
        model = FmfmModel(FmfmSpec(m, d), vocab, seed=seed)
    elif tag == "tinymlp":
        model = TinyMlpModel(TinyMlpSpec(m, d, hidden=(6, 5)), vocab, seed=seed)
    else:
        raise ValueError(tag)
    perturb_params(model, rng)
    batch = int(rng.integers(2, 5))
    idx = np.stack([rng.integers(0, vocab[i], size=batch) for i in range(m)], axis=1)
    labels = rng.integers(0, 2, size=batch).astype(np.float64)
    return model, idx, labels


def relu_kink_margin(model, idx) -> float:
    """Smallest |pre-activation| over hidden relu units for this batch
    (inf when the model has no relu tower)."""
    mlp = getattr(model, "mlp", None)
    if mlp is None or mlp.activation != "relu":
        return float("inf")
    _, tape = model._forward(model.embedding.table_rows(idx), keep=True)
    # the tower's tape ends a tiny MLP's and a DAGFM+ student's; it holds the
    # hidden layers' pre-activations, and the affine final layer has no kink
    _, hidden = tape[-1]
    return float(min(np.min(np.abs(z)) for z in hidden))


def perturb_params(model, rng: np.random.Generator, scale: float = 0.4) -> None:
    """Knock every parameter off its (often structured) initial value so the
    gradient check exercises all paths — zero-initialised heads would
    otherwise hide entire branches of the backward pass."""
    for name in model.store.names():
        value = model.store[name]
        model.store.set(name, value + scale * rng.normal(size=value.shape))


def store_state(store) -> dict:
    """Every parameter's bytes, Adam moments and step count."""
    return {
        name: (store[name].tobytes(), *(a.tobytes() for a in store.moments(name)),
               store.step_count(name))
        for name in store.names()
    }


def held_moments(store) -> set[str]:
    """The parameters whose Adam moments the store holds: those that an
    ``adam_step`` has updated."""
    return set(store._moments)


def moment_rows(store, name: str) -> list[int] | None:
    """The table rows whose Adam moments parameter ``name`` holds in
    row-compact form, in the order of their slots; None for moments held
    at the parameter's full shape."""
    slot = store._moments[name].slot
    if slot is None:
        return None
    moved = np.flatnonzero(slot)
    return moved[np.argsort(slot[moved])].tolist()


def field_rows(model, i: int) -> np.ndarray:
    """Field ``i``'s rows of the model's one ``emb`` table, as a view: they
    start after the rows of fields ``0..i-1``."""
    start = sum(model.vocab_sizes[:i])
    return model.store["emb"][start : start + model.vocab_sizes[i]]


def field_major_row_grads(table, rows, d_emb) -> dict:
    """A trainable table's gradient as the field-major scatter forms it: the
    table rows (``table.table_rows``) and ``d_emb`` (B, m, d) copied
    field-major, and one bincount in that order over the touched rows."""
    shape = table.store["emb"].shape
    flat_rows = rows.T.ravel()
    compact = np.bincount(flat_rows, minlength=shape[0])
    touched = np.flatnonzero(compact)
    compact[touched] = np.arange(len(touched))
    d = shape[1]
    flat = (compact[flat_rows].reshape(-1, 1) * d + np.arange(d)).ravel()
    g = np.bincount(flat, weights=d_emb.transpose(1, 0, 2).ravel(), minlength=len(touched) * d)
    return {"emb": RowGrad(touched, g.reshape(-1, d), shape)}


def arrays_in(nest) -> list[np.ndarray]:
    """Every array in a nest of tuples, lists and dicts."""
    if isinstance(nest, np.ndarray):
        return [nest]
    if isinstance(nest, dict):
        nest = nest.values()
    elif not isinstance(nest, (tuple, list)):
        return []
    return [a for item in nest for a in arrays_in(item)]


def assert_same_bits(got: dict, expected: dict) -> None:
    """Both dicts hold the same names, and each array (or RowGrad's rows and
    values) the same shape and bytes."""
    assert sorted(got) == sorted(expected)
    for name, g in got.items():
        e = expected[name]
        pairs = [(g.rows, e.rows), (g.values, e.values)] if isinstance(e, RowGrad) else [(g, e)]
        for a, b in pairs:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def grad_error(fn, model, rng=None) -> float:
    """grad_check's worst relative error over five sampled coordinates of
    every parameter, then over every coordinate of the one ``emb`` table,
    checked alone with the other parameters frozen."""
    store = model.store
    err = grad_check(fn, store, rng=rng)
    store.freeze(*(name for name in store.names() if name != "emb"))
    try:
        return max(err, grad_check(fn, store, max_coords_per_param=store["emb"].size))
    finally:
        store.unfreeze_all()


def squared_logit_closure(model, idx, targets):
    """`fn(store) -> (loss, grads)` for grad_check: mean squared error of the
    model logits against fixed targets (smooth everywhere)."""
    targets = np.asarray(targets, dtype=np.float64)

    def fn(store):
        logits = model.forward(idx)
        diff = logits - targets
        loss = float(np.mean(diff * diff))
        grads = model.backward(2.0 * diff / len(targets))
        return loss, grads

    return fn


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

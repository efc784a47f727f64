"""The parameter write contract: every write goes through the ParamStore and
moves its version, and the dense edge-weight layouts a model keeps between
forwards follow every write path bitwise."""

import numpy as np
import pytest

from dagfm import interactions
from dagfm.interactions import DagfmModel, DagfmPlusModel, DagfmPlusSpec, DagfmSpec
from dagfm.numcore import adam_step, grad_check
from dagfm.teachers import FwfmModel, FwfmSpec

from conftest import perturb_params, random_small_model, squared_logit_closure

# the families whose forward reads a dense layout of compact pair weights;
# the "-blocked" students run their outer layers in field blocks
TAGS = ("dagfm-basic-inner", "dagfm-inner", "dagfm-kernel", "dagfm-outer", "dagfm+", "fwfm", "fmfm",
        "dagfm-outer-blocked", "dagfm+-blocked")


def small_model(tag, rng, monkeypatch):
    """``random_small_model``, or for a "-blocked" tag an m=5 ``outer``
    student (plain or DAGFM+) built and run with blocks of two fields."""
    if not tag.endswith("-blocked"):
        return random_small_model(tag, rng)
    monkeypatch.setattr(interactions, "FIELD_BLOCK", 2)
    m, vocab = 5, [int(v) for v in rng.integers(2, 6, size=5)]
    spec = DagfmSpec("outer", m, 3, 2)
    if tag == "dagfm+-blocked":
        model = DagfmPlusModel(DagfmPlusSpec(spec, mlp_hidden=(4,), activation="tanh"), vocab)
    else:
        model = DagfmModel(spec, vocab)
    assert len(model._sources) == 3
    perturb_params(model, rng)
    idx = np.stack([rng.integers(0, v, size=4) for v in vocab], axis=1)
    return model, idx, None


def fresh(model):
    """A model built from the current values, with no layout kept."""
    return type(model).from_values(model.spec, model.vocab_sizes, model.store.snapshot())


def assert_matches_fresh(model, idx) -> None:
    assert model.forward(idx).tobytes() == fresh(model).forward(idx).tobytes()


@pytest.mark.parametrize("tag", TAGS)
def test_forward_after_every_write_path_matches_a_fresh_model(tag, rng, monkeypatch):
    model, idx, _ = small_model(tag, rng, monkeypatch)
    store = model.store
    model.forward(idx)  # lay the weights out before the first write
    adam_step(store, model.backward(np.ones(len(idx))), lr=0.1)
    assert_matches_fresh(model, idx)
    snap = store.snapshot()
    perturb_params(model, rng)  # store.set on every parameter
    assert_matches_fresh(model, idx)
    store.restore(snap)
    assert_matches_fresh(model, idx)
    for name in store.names():
        store.put(name, store[name].size - 1, 0.7)
        assert_matches_fresh(model, idx)

    targets = rng.normal(size=len(idx))
    closure = squared_logit_closure(model, idx, targets)

    def checked(s):  # every one of grad_check's perturbations reaches the layouts
        assert_matches_fresh(model, idx)
        return closure(s)

    grad_check(checked, store, max_coords_per_param=2, rng=rng)


@pytest.mark.parametrize("tag", TAGS)
def test_stored_arrays_reject_writes(tag, rng, monkeypatch):
    model, _, _ = small_model(tag, rng, monkeypatch)
    for name in model.store.names():
        with pytest.raises(ValueError):
            model.store[name][...] = 0.0


@pytest.mark.parametrize("tag", TAGS)
def test_from_values_keeps_its_inputs_and_locks_them(tag, rng, monkeypatch):
    model, idx, _ = small_model(tag, rng, monkeypatch)
    values = model.store.snapshot()
    built = type(model).from_values(model.spec, model.vocab_sizes, values)
    for name, value in values.items():
        assert np.shares_memory(built.store[name], value)  # no second copy
        with pytest.raises(ValueError):
            value[...] = 0.0
    assert built.forward(idx).tobytes() == model.forward(idx).tobytes()


@pytest.mark.parametrize("tag", TAGS)
def test_forwards_with_no_write_between_reuse_the_layouts(tag, rng, monkeypatch):
    model, idx, _ = small_model(tag, rng, monkeypatch)
    scatters = []
    scatter = interactions._scatter
    monkeypatch.setattr(interactions, "_scatter", lambda *a: scatters.append(a) or scatter(*a))
    model.store.set("emb", model.store["emb"])  # a write: whatever was laid out is stale
    model.forward(idx)
    built = len(scatters)
    kept = dict(getattr(model, "_layouts", {}))
    model.forward(idx)
    assert len(scatters) == built
    assert all(model._layouts[name] is layout for name, layout in kept.items())
    model.store.set("emb", model.store["emb"])
    model.forward(idx)
    assert len(scatters) == 2 * built  # a write lays every parameter out again
    assert (built > 0) == (tag != "dagfm-basic-inner")  # its adjacency is built once, in setup


def corrupted(closure, name):
    def fn(store):
        loss, grads = closure(store)
        grads[name] = grads[name] + 1.0
        return loss, grads

    return fn


@pytest.mark.parametrize(
    "model, weights",
    [
        (lambda: DagfmModel(DagfmSpec("outer", 3, 2, 2), [3, 2, 4], seed=5), "dag.p0"),
        (lambda: FwfmModel(FwfmSpec(3, 2), [3, 2, 4], seed=5), "fwfm.w"),
    ],
    ids=["outer-p0", "fwfm-w"],
)
def test_grad_check_flags_a_corrupted_pair_weight_gradient(model, weights, rng):
    # finite differences see the pair weights only through the kept layouts,
    # so a layout that missed grad_check's perturbations would fail the
    # intact check as well
    model = model()
    perturb_params(model, rng)
    idx = np.array([[0, 1, 3], [2, 0, 1], [1, 1, 0]])
    closure = squared_logit_closure(model, idx, rng.normal(size=len(idx)))
    assert grad_check(closure, model.store) < 1e-5
    assert grad_check(corrupted(closure, weights), model.store) > 1e-2

"""The span recorder: nesting, self time, restoration, and the metric list."""

import json
from pathlib import Path

import numpy as np

import spans
import workloads
from dagfm import distill, interactions, numcore
from dagfm.interactions import DagfmModel, DagfmSpec

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _one_step(model):
    idx = np.random.default_rng(0).integers(0, 5, size=(32, 4))
    logits = model.forward(idx)
    grads = model.backward(np.ones_like(logits) / len(logits))
    distill.adam_step(model.store, grads, 1e-3)


def test_spans_nest_and_self_time_excludes_children():
    model = DagfmModel(DagfmSpec("outer", 4, 3, 2), [5] * 4, seed=0)
    tracer = spans.Tracer()
    with tracer.installed():
        _one_step(model)
    names = [s[0] for s in tracer.spans]
    assert names == [
        "interactions.DagfmModel.forward",
        "interactions.EmbeddingTable.lookup",
        "interactions.DagfmModel.backward",
        "interactions.EmbeddingTable.grads",
        "numcore.adam_step",
    ]
    forward, lookup = tracer.spans[0], tracer.spans[1]
    assert lookup[3] == 0 and forward[3] == -1
    self_s, calls = tracer.self_times()["interactions.DagfmModel.forward"]
    assert calls == 1
    expected_ns = (forward[2] - forward[1]) - (lookup[2] - lookup[1])
    assert abs(self_s * 1e9 - expected_ns) < 1.0
    assert forward[5] == 32
    metrics = tracer.layer_metrics()
    assert metrics["interactions.EmbeddingTable.grads.useful_ratio"]["value"] == 1.0
    assert metrics["numcore.adam_step.scalars"]["value"] == model.store.n_scalars()


def test_originals_restored_and_arithmetic_unchanged():
    originals = (interactions.DagfmModel.forward, distill.adam_step, numcore.adam_step)
    plain = DagfmModel(DagfmSpec("outer", 4, 3, 2), [5] * 4, seed=0)
    traced = DagfmModel(DagfmSpec("outer", 4, 3, 2), [5] * 4, seed=0)
    _one_step(plain)
    with spans.Tracer().installed():
        _one_step(traced)
    assert (interactions.DagfmModel.forward, distill.adam_step, numcore.adam_step) == originals
    for name in plain.store.names():
        assert np.array_equal(plain.store[name], traced.store[name])


def test_frozen_embedding_grads_count_as_wasted():
    model = DagfmModel(DagfmSpec("outer", 4, 3, 2), [5] * 4, seed=0)
    model.store.freeze(*model.embedding_names())
    tracer = spans.Tracer()
    with tracer.installed():
        _one_step(model)
    assert tracer.layer_metrics()["interactions.EmbeddingTable.grads.useful_ratio"]["value"] == 0.0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    layer = spans.Tracer().layer_metrics()
    layer["trace.overhead_ratio"] = {"unit": "ratio"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()
    }

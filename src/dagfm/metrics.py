"""Ranking metrics and efficiency accounting (params, FLOPs).

Each spec declares its parameters (``spec.layout``) and, beside them, the
closed form of its per-instance forward cost (``spec.flops``).
``count_params`` sums the shapes of the layout, the same layout a fresh
model is initialised from and a checkpoint is checked against, so nothing
is built to count. ``count_flops`` returns the spec's closed form. Both
reject an object that no model family is built from. Every closed form
follows one convention, documented here and nowhere else.

FLOPs convention, applied uniformly:

* one multiplication = 1, one addition = 1, no fused ops;
* embedding lookups, copies, concatenations, and activations cost 0;
* pairwise terms are costed naively, i.e. as if every enabled pair (and for
  the compressed interaction network every output row) recomputes its own
  products — matching the per-pair formulas, not a shared-subexpression
  implementation;
* sum-pooling the *initial* node states costs 0 (those scalars are a
  per-feature lookup, precomputable like the embedding itself), pooling of
  every propagated state is counted;
* vector biases are counted, scalar biases feeding the final logit are not.

A closed form counts a family's defining arithmetic, which its forward need
not execute. CIN's counts every layer's feature map and then its sum-pool,
but ``CinModel`` pools its last layer before that layer's weights, with d
times fewer products with them, so it executes less than it declares, and
an achieved GFLOP/s figure for CIN is declared FLOPs over time.

``instrumented_flops`` re-executes each family's forward arithmetic under an
op counter and must agree exactly with the closed forms. It is the oracle
they are tested against, so it keeps its own dispatch over the model
classes and shares no arithmetic with them. Nothing here measures time:
wall-clock and CPU-time measurement lives in the ``perfbench/`` harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import model_class
from .interactions import DagfmModel, DagfmPlusModel, FlopCount
from .numcore import ConfigurationError
from .teachers import CinModel, CrossNetModel, FmfmModel, FwfmModel, TinyMlpModel


class UndefinedMetricError(ValueError):
    """The requested metric has no defined value on this input."""


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------

def auc(labels, scores) -> float:
    """Probability a random positive outranks a random negative (ties 0.5).

    Computed from rank sums with average ranks on tied scores, so it is
    exact and invariant under strictly increasing score transforms. Any NaN
    or infinite score (the mark of a diverged model) raises
    :class:`UndefinedMetricError`, and a label outside {0, 1}
    :class:`ConfigurationError`.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape or labels.ndim != 1:
        raise ConfigurationError(
            f"labels {labels.shape} and scores {scores.shape} must be equal-length vectors"
        )
    _check_labels(labels)
    if not np.isfinite(scores).all():
        raise UndefinedMetricError(
            f"AUC undefined: {int((~np.isfinite(scores)).sum())} non-finite scores"
        )
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC undefined: {n_pos} positives and {n_neg} negatives"
        )
    # each tied run shares one average rank, so the order within a run never
    # reaches the rank sum and need not be stable
    order = np.argsort(scores)
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [scores.size]))
    # 1-based ranks, each tied run [s, e) sharing its average rank (s + 1 + e) / 2
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum_pos = ranks[pos].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(labels, probs, eps: float = 1e-12) -> float:
    """Mean binary cross entropy against predicted probabilities; a label
    outside {0, 1} raises :class:`ConfigurationError`."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0 - eps)
    if labels.shape != probs.shape or labels.ndim != 1:
        raise ConfigurationError(
            f"labels {labels.shape} and probs {probs.shape} must be equal-length vectors"
        )
    _check_labels(labels)
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


def _check_labels(labels: np.ndarray) -> None:
    if ((labels != 0) & (labels != 1)).any():
        raise ConfigurationError(f"labels must be 0 or 1, got {np.unique(labels)}")


# ---------------------------------------------------------------------------
# parameter and FLOPs counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCount:
    non_embedding: int
    embedding: int

    @property
    def total(self) -> int:
        return self.non_embedding + self.embedding


def count_params(spec, vocab_sizes) -> ParamCount:
    """Parameter counts for a model spec, summed over its declared layout;
    the embedding count is ``sum(vocab_sizes) * embed_dim``."""
    model_class(spec)  # a ConfigurationError for a spec no model family is built from
    total = sum(math.prod(shape) for _, shape, _ in spec.layout(vocab_sizes))
    embedding = int(sum(vocab_sizes)) * spec.embed_dim
    return ParamCount(total - embedding, embedding)


def count_flops(spec) -> FlopCount:
    """Forward-pass cost of one instance under the documented convention:
    the closed form the spec declares (``spec.flops()``)."""
    model_class(spec)  # a ConfigurationError for a spec no model family is built from
    return spec.flops()


# ---------------------------------------------------------------------------
# instrumented execution (the FLOPs oracle)
# ---------------------------------------------------------------------------

class OpCounter:
    """Executes numpy arithmetic while counting scalar mults/adds."""

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def mul(self, a, b):
        out = np.multiply(a, b)
        self.mults += out.size
        return out

    def add(self, a, b, counted: bool = True):
        out = np.add(a, b)
        if counted:
            self.adds += out.size
        return out

    def dot(self, a, b) -> float:
        self.mults += a.size
        self.adds += a.size - 1
        return float(np.dot(a, b))

    def matvec(self, W, x):
        self.mults += W.size
        self.adds += W.shape[0] * (W.shape[1] - 1)
        return W @ x

    def sum_last(self, a, counted: bool = True):
        out = a.sum(axis=-1)
        if counted:
            self.adds += (a.shape[-1] - 1) * out.size
        return out

    def reduce(self, arrays):
        total = arrays[0]
        for a in arrays[1:]:
            total = self.add(total, a)
        return total

    @property
    def count(self) -> FlopCount:
        return FlopCount(self.mults, self.adds)


def _instr_dagfm(model: DagfmModel, E: np.ndarray, cnt: OpCounter):
    """Single-instance student forward under the counter; E is (m, d).

    Also returns the per-state node tensors so the MLP-augmented variant can
    reuse them.
    """
    spec = model.dag
    m, d = E.shape
    pairs = model.pairs
    states = [E]
    for t in range(spec.num_layers):
        h = states[-1]
        phis = []
        for p_idx, (j, i) in enumerate(pairs):
            a, b = h[j], E[i]
            if spec.kind == "basic-inner":
                phis.append(cnt.mul(a, b))
            elif spec.kind == "inner":
                w = model.store[f"dag.w{t}"][p_idx]
                phis.append(cnt.mul(cnt.mul(w, a), b))
            elif spec.kind == "kernel":
                K = model.store[f"dag.K{t}"][p_idx]
                phis.append(cnt.mul(cnt.matvec(K.T, a), b))
            else:
                p = model.store[f"dag.p{t}"][p_idx]
                q = model.store[f"dag.q{t}"][p_idx]
                s = cnt.dot(a, p)
                phis.append(cnt.mul(s, cnt.mul(q, b)))
        nxt = np.empty_like(E)
        for i in range(m):
            incoming = [phi for (j, ii), phi in zip(pairs, phis) if ii == i]
            nxt[i] = cnt.reduce(incoming)
        states.append(nxt)
    pooled = [cnt.sum_last(s, counted=(t > 0)) for t, s in enumerate(states)]
    pvec = np.concatenate(pooled)
    logit = cnt.dot(model.store["head.w"], pvec)
    logit = cnt.add(logit, model.store["head.b"][0], counted=False)
    return logit, states


def _instr_mlp(tower, x: np.ndarray, cnt: OpCounter) -> float:
    a = x
    for k, (wname, bname) in enumerate(tower.names):
        W, b = tower.store[wname], tower.store[bname]
        z = cnt.matvec(W.T, a)
        last = k == len(tower.names) - 1
        z = cnt.add(z, b, counted=not (last and b.size == 1))
        a = z if last else (np.maximum(z, 0.0) if tower.activation == "relu" else np.tanh(z))
    return float(a[0])


def instrumented_flops(model, idx_row: np.ndarray) -> tuple[float, FlopCount]:
    """Re-executes ``model``'s forward pass for one instance, counting every
    scalar mult/add per the documented convention. Returns (logit, counts).
    """
    cnt = OpCounter()
    idx_row = np.asarray(idx_row).reshape(1, -1)
    E = model.embedding.lookup(model.embedding.table_rows(idx_row))[0]
    if isinstance(model, DagfmPlusModel):
        logit, states = _instr_dagfm(model, E, cnt)
        feed = model.spec.mlp_feed
        x = (
            np.concatenate([s.reshape(-1) for s in states])
            if feed == "all-states"
            else states[-1].reshape(-1)
        )
        logit = cnt.add(logit, _instr_mlp(model.mlp, x, cnt))
        return float(logit), cnt.count
    if isinstance(model, DagfmModel):
        logit, _ = _instr_dagfm(model, E, cnt)
        return float(logit), cnt.count
    if isinstance(model, CinModel):
        maps = [E]
        for k in range(model.spec.num_layers):
            W = model.store[f"cin.W{k}"]
            prev = maps[-1]
            rows = []
            for h in range(W.shape[0]):
                # the double sum is costed naively: each output row recomputes
                # the pair products
                pair = cnt.mul(prev[:, None, :], E[None, :, :])
                weighted = cnt.mul(W[h][:, :, None], pair)
                rows.append(cnt.reduce(list(weighted.reshape(-1, E.shape[1]))))
            maps.append(np.stack(rows))
        pooled = np.concatenate([cnt.sum_last(x) for x in maps[1:]])
        logit = cnt.dot(model.store["head.w"], pooled)
        logit = cnt.add(logit, model.store["head.b"][0], counted=False)
        return float(logit), cnt.count
    if isinstance(model, CrossNetModel):
        x0 = E.reshape(-1)
        x = x0
        for t in range(model.spec.num_layers):
            u = cnt.matvec(model.store[f"cross.W{t}"], x)
            u = cnt.add(u, model.store[f"cross.b{t}"])
            x = cnt.add(cnt.mul(x0, u), x)
        logit = cnt.dot(model.store["head.w"], x)
        logit = cnt.add(logit, model.store["head.b"][0], counted=False)
        return float(logit), cnt.count
    if isinstance(model, (FwfmModel, FmfmModel)):
        terms = []
        for p_idx, (i, j) in enumerate(model.pairs):
            if isinstance(model, FwfmModel):
                prod = cnt.mul(cnt.mul(E[i], E[j]), model.store["fwfm.w"][p_idx])
                terms.append(cnt.sum_last(prod))
            else:
                W = model.store["fmfm.W"][p_idx]
                terms.append(cnt.dot(cnt.matvec(W.T, E[i]), E[j]))
        pair_term = cnt.reduce(terms)
        linear = cnt.dot(model.store["linear.u"].reshape(-1), E.reshape(-1))
        logit = cnt.add(pair_term, linear)
        logit = cnt.add(logit, model.store["head.b"][0], counted=False)
        return float(logit), cnt.count
    if isinstance(model, TinyMlpModel):
        return _instr_mlp(model.mlp, E.reshape(-1), cnt), cnt.count
    raise ConfigurationError(f"no instrumented forward for {type(model).__name__}")


# ---------------------------------------------------------------------------
# efficiency report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyReport:
    params: ParamCount
    flops: FlopCount

    def as_dict(self) -> dict:
        return {
            "params": {
                "non_embedding": self.params.non_embedding,
                "embedding": self.params.embedding,
                "total": self.params.total,
            },
            "flops": {"mults": self.flops.mults, "adds": self.flops.adds,
                      "total": self.flops.total},
        }


def efficiency_report(model) -> EfficiencyReport:
    """Parameter counts of ``model``'s layout and closed-form per-instance
    forward FLOPs of its spec."""
    return EfficiencyReport(count_params(model.spec, model.vocab_sizes), model.spec.flops())

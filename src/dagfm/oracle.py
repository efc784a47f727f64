"""Brute-force enumeration oracle for the DAG propagation dynamics.

On the full lower-triangular graph the state of node ``i`` after ``t - 1``
propagation steps must equal a sum over all non-decreasing index tuples
``(j_1 <= ... <= j_t = i)``: each tuple is one path through the graph, and
its value is the fold of the combiner along that path.  With identity-valued
edge weights the fold is a plain elementwise embedding product
(:func:`oracle_node_state`), which is the classic dynamic-programming
correspondence; with arbitrary weights the fold applies each traversed
edge's weights (:func:`oracle_node_state_weighted`).  The certification
(:func:`assert_dp_equivalence`) runs the weighted fold for every combiner,
over the weights a fresh student starts from: identity for inner and
kernel, seeded rank-1 vectors for outer, which has no identity for d > 1.

Everything here is deliberately slow and obvious — it is the reference the
fast path is judged against, so it shares no code with the model's layers;
the weighted fold applies the single-pair ``phi_*`` combiners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .interactions import DagfmModel, DagfmSpec
from .interactions import phi_basic_inner, phi_inner, phi_kernel, phi_outer
from .numcore import ConfigurationError

MAX_ORACLE_FIELDS = 6
MAX_ORACLE_ORDER = 5

# Spec'd floor for the relative-deviation denominator: keeps the measure
# defined when an enumerated sum is exactly zero.
DEVIATION_FLOOR = 1e-12


def enumerate_suffix_set(i: int, t: int) -> list[tuple[int, ...]]:
    """All non-decreasing tuples of length ``t`` over 1-based field indices
    that end at ``i`` (e.g. i=3, t=2 -> [(1,3), (2,3), (3,3)])."""
    if i < 1 or t < 1:
        raise ConfigurationError(f"need i >= 1 and t >= 1, got i={i}, t={t}")
    if t > MAX_ORACLE_ORDER:
        raise ConfigurationError(
            f"enumeration capped at order {MAX_ORACLE_ORDER}, got {t}"
        )
    return [
        (*prefix, i)
        for prefix in itertools.combinations_with_replacement(range(1, i + 1), t - 1)
    ]


def suffix_set_size(i: int, t: int) -> int:
    """Closed form for ``len(enumerate_suffix_set(i, t))``."""
    if i < 1 or t < 1:
        raise ConfigurationError(f"need i >= 1 and t >= 1, got i={i}, t={t}")
    return math.comb(i + t - 2, t - 1)


def oracle_node_state(embeddings: np.ndarray, i: int, t: int) -> np.ndarray:
    """Sum of order-``t`` embedding products ending at 1-based field ``i``.

    ``embeddings`` is (m, d) with row ``k`` holding field ``k + 1``.  This is
    the identity-weight oracle: every tuple contributes the plain elementwise
    product of its member embeddings.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m = embeddings.shape[0]
    if not 1 <= i <= m:
        raise ConfigurationError(f"node {i} out of range 1..{m}")
    total = np.zeros(embeddings.shape[1])
    for tup in enumerate_suffix_set(i, t):
        prod = np.ones(embeddings.shape[1])
        for j in tup:
            prod = prod * embeddings[j - 1]
        total += prod
    return total


# kind -> phi(state, embedding, edge weights as in ``oracle_node_state_weighted``)
_COMBINERS = {
    "basic-inner": lambda a, b, w: phi_basic_inner(a, b),
    "inner": phi_inner,
    "kernel": phi_kernel,
    "outer": lambda a, b, w: phi_outer(a, b, *w),
}


def oracle_node_state_weighted(
    kind: str,
    embeddings: np.ndarray,
    edge_weights: list[dict],
    i: int,
    t: int,
) -> np.ndarray:
    """Weighted path-sum oracle: fold the combiner along every suffix tuple.

    ``edge_weights[s]`` maps a 1-based ordered pair ``(j, i)`` to the weights
    the combiner uses on that edge during propagation step ``s``:
    ``None`` (basic-inner), a d-vector (inner), a (d, d) matrix (kernel), or
    a ``(p, q)`` vector pair (outer).  A tuple ``(j_1, ..., j_t)`` walks edge
    ``(j_s, j_{s+1})`` at step ``s``, so its value is the left fold of the
    combiner over the tuple, and the node state is the sum over the suffix
    set — the state-transfer recurrence unrolled path by path.  A tuple that
    walks an edge absent from its step's table is no path of the graph and
    contributes zero, so a sparse-edge student is folded over its own edges.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    m = embeddings.shape[0]
    if not 1 <= i <= m:
        raise ConfigurationError(f"node {i} out of range 1..{m}")
    if t - 1 > len(edge_weights):
        raise ConfigurationError(
            f"order {t} needs {t - 1} weight layers, got {len(edge_weights)}"
        )
    if kind not in _COMBINERS:
        raise ConfigurationError(f"unknown interaction kind {kind!r}")
    phi = _COMBINERS[kind]
    total = np.zeros(embeddings.shape[1])
    for tup in enumerate_suffix_set(i, t):
        state = embeddings[tup[0] - 1]
        for table, edge in zip(edge_weights, zip(tup, tup[1:])):
            if edge not in table:
                break
            state = phi(state, embeddings[edge[1] - 1], table[edge])
        else:
            total = total + state
    return total


def _model_edge_weights(model: DagfmModel) -> list[dict]:
    """Per-layer {1-based (j, i) pair -> combiner weights} wired for the
    weighted oracle."""
    spec = model.dag
    pairs = spec.pairs()
    layers: list[dict] = []
    for t in range(spec.num_layers):
        table: dict = {}
        for e, (j, i) in enumerate(pairs):
            if spec.kind == "basic-inner":
                w = None
            elif spec.kind == "inner":
                w = model.store[f"dag.w{t}"][e]
            elif spec.kind == "kernel":
                w = model.store[f"dag.K{t}"][e]
            else:
                w = (model.store[f"dag.p{t}"][e], model.store[f"dag.q{t}"][e])
            table[(j + 1, i + 1)] = w
        layers.append(table)
    return layers


@dataclass
class DpEquivalenceReport:
    """Per-node deviations between propagation and enumeration.

    Deviations are relative: ``|dp - enum| / (|enum| + 1e-12)``, the floor
    keeping the ratio defined when the enumerated sum is exactly zero.
    """

    kind: str
    num_fields: int
    embed_dim: int
    num_layers: int
    tol: float
    max_deviation: float
    deviations: dict[tuple[int, int], float]  # (order t, node i) -> max deviation

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def __str__(self) -> str:
        lines = [
            f"DP-vs-enumeration: kind={self.kind} m={self.num_fields} "
            f"d={self.embed_dim} layers={self.num_layers} "
            f"max dev={self.max_deviation:.3e} tol={self.tol:.1e} "
            f"{'OK' if self.passed else 'MISMATCH'}"
        ]
        for (t, i), dev in sorted(self.deviations.items()):
            lines.append(
                f"  order {t} node {i}: dev = {dev:.3e}"
                + ("" if dev <= self.tol else "  <-- MISMATCH")
            )
        return "\n".join(lines)


def assert_dp_equivalence(
    kind: str,
    num_fields: int,
    embed_dim: int,
    num_layers: int,
    seed: int = 0,
    tol: float = 1e-10,
    raise_on_fail: bool = True,
) -> DpEquivalenceReport:
    """Compare every node state of a fresh full-graph student against the
    brute-force path enumeration, order by order, in float64.

    Every combiner is checked the same way: the weighted path fold over the
    model's own initial edge weights.  Those are the identity values for
    inner (ones) and kernel (identity matrices), so the fold is then the
    plain product sum of :func:`oracle_node_state`; the rank-1 outer
    combiner has no identity for d > 1 and is folded over its seeded vectors.

    Intentionally capped at small sizes: the enumeration is exponential and
    exists only to certify the propagation arithmetic.
    """
    if num_fields > MAX_ORACLE_FIELDS:
        raise ConfigurationError(
            f"enumeration oracle capped at {MAX_ORACLE_FIELDS} fields, got {num_fields}"
        )
    if num_layers + 1 > MAX_ORACLE_ORDER:
        raise ConfigurationError(
            f"enumeration oracle capped at order {MAX_ORACLE_ORDER}; "
            f"{num_layers} layers reaches order {num_layers + 1}"
        )
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_fields, embed_dim))
    model = DagfmModel(
        DagfmSpec(kind, num_fields, embed_dim, num_layers), [1] * num_fields, seed=seed
    )
    model.store.set("emb", embeddings)
    weights = _model_edge_weights(model)
    _, trace = model.forward_trace(np.zeros((1, num_fields), dtype=np.int64))
    deviations: dict[tuple[int, int], float] = {}
    worst = 0.0
    for order in range(1, num_layers + 2):
        state = trace.node_states[order - 1][0]
        for i in range(1, num_fields + 1):
            expected = oracle_node_state_weighted(kind, embeddings, weights, i, order)
            rel = np.abs(state[i - 1] - expected) / (np.abs(expected) + DEVIATION_FLOOR)
            dev = float(np.max(rel))
            deviations[(order, i)] = dev
            worst = max(worst, dev)
    report = DpEquivalenceReport(
        kind, num_fields, embed_dim, num_layers, tol, worst, deviations
    )
    if raise_on_fail and not report.passed:
        raise AssertionError(str(report))
    return report


def outer_kernel_equivalence(
    num_fields: int,
    embed_dim: int,
    num_layers: int,
    seed: int = 0,
    batch: int = 8,
    tol: float = 1e-10,
) -> float:
    """Max deviation between an ``outer`` student and a ``kernel`` student
    whose matrices are the rank-1 products of the outer vectors.

    The two models share embeddings and head; returns the largest absolute
    difference over all node states, pooled values, and logits of a random
    batch.
    """
    rng = np.random.default_rng(seed)
    vocab = [4] * num_fields
    outer = DagfmModel(DagfmSpec("outer", num_fields, embed_dim, num_layers), vocab, seed=seed)
    kernel = DagfmModel(DagfmSpec("kernel", num_fields, embed_dim, num_layers), vocab, seed=seed)
    kernel.store.set("emb", outer.store["emb"])
    for t in range(num_layers):
        p = outer.store[f"dag.p{t}"]
        q = outer.store[f"dag.q{t}"]
        kernel.store.set(f"dag.K{t}", np.einsum("pd,pe->pde", p, q))
    head = rng.normal(size=outer.store["head.w"].shape)
    bias = rng.normal(size=1)
    for model in (outer, kernel):
        model.store.set("head.w", head)
        model.store.set("head.b", bias)
    idx = rng.integers(0, 4, size=(batch, num_fields))
    lo, to = outer.forward_trace(idx)
    lk, tk = kernel.forward_trace(idx)
    dev = float(np.max(np.abs(lo - lk)))
    dev = max(dev, float(np.max(np.abs(to.pooled_concat - tk.pooled_concat))))
    for so, sk in zip(to.node_states, tk.node_states):
        dev = max(dev, float(np.max(np.abs(so - sk))))
    if dev > tol:
        raise AssertionError(
            f"outer/kernel mismatch: max|dev|={dev:.3e} > tol={tol:.1e} "
            f"(m={num_fields}, d={embed_dim}, layers={num_layers})"
        )
    return dev

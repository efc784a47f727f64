"""Pairwise interaction combiners and the DAG-propagation student model.

The student assigns one graph node per feature field, seeds node ``i`` with
its embedding ``e_i``, and propagates along directed edges ``j -> i``
(``j <= i``, self-edges always present). At every layer each node aggregates

    h_i^(t+1) = sum_{j <= i} phi(h_j^t, e_i)

where ``phi`` is one of four combiners: plain elementwise product
(``basic-inner``), a per-edge weight vector (``inner``), a per-edge matrix
(``kernel``), or the rank-1 factorization of the kernel matrix (``outer``,
which costs O(d) per edge instead of O(d^2)). Every state set is sum-pooled
per node and a linear head maps the concatenated pooled vector to a logit.

Parameters are stored compactly, one row per edge, in the order the
declared layout (:meth:`DagfmSpec.layout`) lists them. The layers read them
laid out as dense (m, m, ...) arrays, zero off the edge list, and run as
batched BLAS GEMMs (``np.matmul``). A layout is built by
:meth:`Model._layout` and kept until the store's next write
(``ParamStore.version``), so a forward after no weight change, as in
serving, scatters nothing.

The student works field-major: one contiguous (L+1, m, B, d) buffer holds
every state set, ``H[t, i]`` being node ``i``'s (B, d) block after ``t``
steps. ``EmbeddingTable.lookup`` gathers every field's rows into ``H[0]``
with one ``np.take``, and each layer writes ``agg * e`` straight into the
next slot. ``outer`` runs two GEMMs per layer: per source ``j`` an
(m, d) x (d, B) product gives the edge scalars
``S[j, i, b] = p[j, i] . h[j, b]``, and per target ``i`` a (B, m) x (m, d)
product reads ``S`` as an F-ordered operand.
Its backward is four batched GEMMs over the same ``S`` and the same
buffer, with no copies. ``basic-inner`` is one (m, m) x (m, B*d) GEMM
with the transposed adjacency matrix. ``inner`` and ``kernel`` are the
bilinear pair GEMM that :class:`PairGemm` lays out, shared with the FwFM
and FmFM baselines: one (B, m) x (m, m) GEMM per embedding dim over a
dim-major copy of the states (``inner``), or one (B, m*d) x (m*d, m*d)
GEMM over a batch-major copy (``kernel``). Pooling every state
set is one matrix-vector product of the buffer with ``ones(d)``, and the
head is another. Public shapes stay batch-major: ``lookup`` and
``PropagationTrace`` give (B, m, d) arrays, as views where they can.
The per-pair ``phi_*`` functions are the reference the layers are tested
against.

With identity-valued weights and the full lower-triangular edge set, node
``i`` at layer ``t`` is exactly the sum of all order-``t`` products of
embeddings whose largest field index is ``i``; the ``oracle`` module checks
this by brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numcore import ConfigurationError, ParamStore, ShapeError, as_tuples, check_int

KINDS = ("basic-inner", "inner", "kernel", "outer")


# ---------------------------------------------------------------------------
# single-pair combiners
# ---------------------------------------------------------------------------

def _check_vec(name: str, v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ShapeError(f"{name}: expected shape ({d},), got {v.shape}")
    return v


def phi_basic_inner(a, b):
    """Elementwise product of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"a: expected a vector, got shape {a.shape}")
    b = _check_vec("b", b, a.shape[0])
    return a * b


def phi_inner(a, b, w):
    """Weighted elementwise product ``w * a * b``."""
    a = np.asarray(a, dtype=np.float64)
    b = _check_vec("b", b, a.shape[0])
    w = _check_vec("w", w, a.shape[0])
    return w * a * b


def phi_kernel(a, b, W):
    """Matrix-weighted product ``(a W) * b`` with ``W`` of shape (d, d)."""
    a = np.asarray(a, dtype=np.float64)
    b = _check_vec("b", b, a.shape[0])
    W = np.asarray(W, dtype=np.float64)
    if W.shape != (a.shape[0], a.shape[0]):
        raise ShapeError(f"W: expected shape ({a.shape[0]}, {a.shape[0]}), got {W.shape}")
    return (a @ W) * b


def phi_outer(a, b, p, q):
    """Rank-1 kernel product ``(a . p) * (q * b)``; O(d) per pair.

    Equals :func:`phi_kernel` with ``W = outer(p, q)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = _check_vec("b", b, a.shape[0])
    p = _check_vec("p", p, a.shape[0])
    q = _check_vec("q", q, a.shape[0])
    return (a @ p) * (q * b)


# ---------------------------------------------------------------------------
# specs and embeddings
# ---------------------------------------------------------------------------

def full_dag_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All edges ``(j, i)`` with ``j <= i``, ordered by target then source."""
    return tuple((j, i) for i in range(m) for j in range(i + 1))


EMBED_INIT_STD = 0.1  # embeddings start small so the zero head gives sigma(0)=0.5


def identity(shape) -> np.ndarray:
    """A stack of identity matrices over the leading axes."""
    return np.broadcast_to(np.eye(shape[-1]), shape).copy()


def embedding_layout(spec, vocab_sizes) -> Iterator[tuple]:
    """The one embedding table that opens every layout: field ``i``'s rows
    (``vocab_sizes[i]`` of them, the OOV bucket included, i.e.
    ``FieldSchema.vocab_sizes()``) start at row ``sum(vocab_sizes[:i])``."""
    if len(vocab_sizes) != spec.num_fields:
        raise ConfigurationError(f"{len(vocab_sizes)} vocab sizes for {spec.num_fields} fields")
    yield "emb", (sum(int(rows) for rows in vocab_sizes), spec.embed_dim), EMBED_INIT_STD


@dataclass(frozen=True)
class DagfmSpec:
    """Hyperparameters of the DAG student.

    ``num_layers`` counts propagation steps, so a model exposes
    ``num_layers + 1`` state sets (the embeddings plus one per step).
    ``edges=None`` means the full lower-triangular DAG; an explicit edge list
    is for ablation only and must keep every self-edge ``(i, i)``.
    """

    kind: str
    num_fields: int
    embed_dim: int
    num_layers: int
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown interaction kind {self.kind!r}; pick from {KINDS}")
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)
        check_int("num_layers", self.num_layers, 1)
        object.__setattr__(self, "edges", as_tuples(self.edges))
        if self.edges is not None:
            for j, i in self.edges:
                if type(j) is not int or type(i) is not int or not 0 <= j <= i < self.num_fields:
                    raise ConfigurationError(
                        f"edges: ({j!r}, {i!r}) is not a forward-directed int pair in range"
                    )
            present = set(self.edges)
            for i in range(self.num_fields):
                if (i, i) not in present:
                    raise ConfigurationError(f"self-edge ({i}, {i}) must be present")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        if self.edges is None:
            return full_dag_pairs(self.num_fields)
        return tuple(sorted(set(self.edges), key=lambda ji: (ji[1], ji[0])))

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        """Every parameter of the student, in store order (see :class:`Model`)."""
        yield from embedding_layout(self, vocab_sizes)
        P, d = self.num_pairs, self.embed_dim
        # basic-inner has no edge weights: no loop over the layers a header claims
        for t in range(self.num_layers if self.kind != "basic-inner" else 0):
            if self.kind == "inner":
                yield f"dag.w{t}", (P, d), np.ones
            elif self.kind == "kernel":
                yield f"dag.K{t}", (P, d, d), identity
            elif self.kind == "outer":
                yield f"dag.p{t}", (P, d), 1.0 / np.sqrt(d)
                yield f"dag.q{t}", (P, d), 1.0 / np.sqrt(d)
        yield "head.w", (self.num_fields * self.num_states,), np.zeros
        yield "head.b", (1,), np.zeros

    def flops(self) -> FlopCount:
        """Forward cost of one instance (convention in :mod:`dagfm.metrics`)."""
        m, d, L, P = self.num_fields, self.embed_dim, self.num_layers, self.num_pairs
        # (mults, adds) of the combiner on one enabled edge
        pm, pa = {
            "basic-inner": (d, 0),
            "inner": (2 * d, 0),
            "kernel": (d * d + d, d * (d - 1)),
            "outer": (3 * d, d - 1),
        }[self.kind]
        layer_adds = P * pa + (P - m) * d + m * (d - 1)
        head = FlopCount(m * (L + 1), m * (L + 1) - 1)
        return FlopCount(L * P * pm, L * layer_adds) + head

    @property
    def num_pairs(self) -> int:
        """Edge count; a formula on the full DAG, so a layout is sized
        without listing the edges."""
        m = self.num_fields
        return m * (m + 1) // 2 if self.edges is None else len(set(self.edges))

    @property
    def num_states(self) -> int:
        return self.num_layers + 1


class EmbeddingTable:
    """The ``emb`` matrix of a ParamStore, every field's rows stacked in field
    order. Lookup of index ``j`` for field ``i`` is row ``offsets[i] + j``.
    """

    def __init__(self, store: ParamStore, vocab_sizes):
        self.store = store
        self._rows = np.array(vocab_sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self._rows)[:-1]))
        self.dim = store["emb"].shape[1]

    @property
    def num_fields(self) -> int:
        return len(self._rows)

    def lookup(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (B, m, d) embeddings of an index batch, as a view of a
        field-major (m, B, d) array (``out`` if given) filled by one gather."""
        idx = np.asarray(idx)
        if idx.ndim != 2 or idx.shape[1] != self.num_fields:
            raise ShapeError(f"index matrix must be (batch, {self.num_fields}), got {idx.shape}")
        # the per-field check also keeps field i's indices off field i+1's rows
        bad = (idx < 0) | (idx >= self._rows)
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            raise IndexError(
                f"field {i}: index {idx[bad[:, i], i][0]} outside vocab range "
                f"[0, {self._rows[i]})"
            )
        if out is None:
            out = np.empty((self.num_fields, idx.shape[0], self.dim))
        # bounds are checked above; "clip" lets take write into out unbuffered
        np.take(self.store["emb"], idx.T + self.offsets[:, None], axis=0, out=out, mode="clip")
        return out.transpose(1, 0, 2)

    def grads(self, idx: np.ndarray, d_emb: np.ndarray) -> dict[str, np.ndarray]:
        """Scatter-add ``d_emb`` (B, m, d) into the table's row gradient, or
        nothing when the table is frozen (``adam_step`` would ignore it).
        Each row sums its contributions in batch-row order. A field-major
        ``d_emb``, like ``lookup``'s, is read without copies."""
        if not self.store.is_trainable("emb"):
            return {}
        rows, d = self.store["emb"].shape
        # rows as a C-order column: from idx.T's layout, ravel would gather
        flat = ((idx.T + self.offsets[:, None]).reshape(-1, 1) * d + np.arange(d)).ravel()
        g = np.bincount(flat, weights=d_emb.transpose(1, 0, 2).ravel(), minlength=rows * d)
        return {"emb": g.reshape(rows, d)}


class Model:
    """Common surface: a ParamStore plus forward/backward over index batches.

    ``spec.layout(vocab_sizes)`` declares every parameter as ``(name, shape,
    initialiser)``, in store order, the embedding table first. An
    initialiser is either a float, the standard deviation of Gaussian
    draws, or a function of the shape (``np.zeros``, ``np.ones``,
    :func:`identity`). A fresh model runs the initialisers, in layout order,
    on a generator seeded with ``seed``; ``from_values`` fills the same
    layout from given arrays and draws nothing.

    ``kind`` tags the family in checkpoints; ``spec_type`` is the frozen
    dataclass the model is built from, and ``spec`` is always that build
    spec.
    """

    kind = "?"
    spec_type = None
    _cache = None  # what ``backward`` reads from the latest ``forward``
    _layouts_at = None  # the ``store.version`` that ``_layouts`` were built at

    def __init__(self, spec, vocab_sizes, seed: int = 0):
        rng = np.random.default_rng(seed)

        def initial_value(name, shape, init):
            return rng.normal(scale=init, size=shape) if isinstance(init, float) else init(shape)

        self._assemble(spec, vocab_sizes, initial_value)

    @classmethod
    def from_values(cls, spec, vocab_sizes, values: dict[str, np.ndarray]) -> "Model":
        """The model whose parameters are ``values``, keyed by layout name."""
        model = cls.__new__(cls)
        model._assemble(spec, vocab_sizes, lambda name, shape, init: values[name])
        return model

    def _assemble(self, spec, vocab_sizes, value_of) -> None:
        self.spec = spec
        self.vocab_sizes = [int(v) for v in vocab_sizes]
        self.store = ParamStore()
        for name, shape, init in spec.layout(vocab_sizes):
            self.store.add(name, value_of(name, shape, init))
        self.embedding = EmbeddingTable(self.store, self.vocab_sizes)
        self._setup()

    def _setup(self) -> None:
        """Derive what ``forward`` reads besides the store."""

    def _layout(self, name: str, lay_out) -> np.ndarray:
        """``lay_out(store[name])``, a dense layout of one parameter, built
        once and kept, read-only, until the store's version moves."""
        if self._layouts_at != self.store.version:
            self._layouts, self._layouts_at = {}, self.store.version
        dense = self._layouts.get(name)
        if dense is None:
            dense = self._layouts[name] = lay_out(self.store[name])
            dense.flags.writeable = False
        return dense

    def _head(self, x: np.ndarray) -> np.ndarray:
        """The linear head: ``x @ head.w + head.b``, one logit per row."""
        return x @ self.store["head.w"] + self.store["head.b"][0]

    def _head_backward(self, x: np.ndarray, dlogits) -> tuple[dict, np.ndarray]:
        """A grads dict holding the head's gradients, and d(loss)/d(x)."""
        dlogits = np.asarray(dlogits, dtype=np.float64)
        grads = {"head.w": x.T @ dlogits, "head.b": np.array([dlogits.sum()])}
        return grads, dlogits[:, None] * self.store["head.w"][None, :]

    def forward(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        raise NotImplementedError

    @property
    def num_fields(self) -> int:
        return self.spec.num_fields

    @property
    def embed_dim(self) -> int:
        return self.spec.embed_dim

    def embedding_names(self) -> list[str]:
        return ["emb"]


# ---------------------------------------------------------------------------
# the student model
# ---------------------------------------------------------------------------

@dataclass
class PropagationTrace:
    """All node states and pooled values of one forward pass.

    ``node_states[t]`` is the state set after ``t`` propagation steps
    (``node_states[0]`` are the embeddings), each of shape (batch, m, d)
    and a view of the student's field-major state buffer.
    ``pooled[b, t, i]`` sums ``node_states[t][b, i, :]`` over the embedding
    axis; ``pooled_concat`` flattens ``pooled`` state-major to length
    ``m * (num_layers + 1)``.
    """

    node_states: list[np.ndarray]
    pooled: np.ndarray
    pooled_concat: np.ndarray


class DagfmModel(Model):
    """DAG-propagation factorization machine (the distillation student)."""

    kind = "dagfm"
    spec_type = DagfmSpec

    @property
    def dag(self) -> DagfmSpec:
        """The DAG part of the build spec (all of it for the plain student)."""
        return self.spec

    def _setup(self) -> None:
        self.pairs = self.dag.pairs()
        self._jj = np.array([j for j, _ in self.pairs])
        self._ii = np.array([i for _, i in self.pairs])
        m = self.num_fields
        per_dim = self.dag.kind == "inner"
        self._gemm = PairGemm(self._jj, self._ii, m, self.embed_dim, per_dim)
        self._adjacency = _scatter((m, m), (self._jj, self._ii), 1.0)  # A[j, i] = 1 on an edge
        self._adjacency.flags.writeable = False

    def _weights(self, t: int) -> str:
        """Store name of an ``inner`` or ``kernel`` layer's edge weights."""
        return f"dag.w{t}" if self.dag.kind == "inner" else f"dag.K{t}"

    def set_identity_edge_weights(self) -> None:
        """Reset edge weights to the values that reduce every combiner to the
        plain elementwise product: the declared initialisers of ``inner``
        (ones) and ``kernel`` (identity matrices); for the rank-1 ``outer``
        combiner, p = q = 1, which is the identity only at d=1."""
        d = self.embed_dim
        outer = self.dag.kind == "outer"
        if outer and d != 1:
            raise ConfigurationError(
                "outer weights are rank-1 and cannot express the identity "
                f"matrix for embed_dim={d}; identity exists only at d=1"
            )
        for name, shape, init in self.dag.layout(self.vocab_sizes):
            if name.startswith("dag."):
                self.store.set(name, np.ones(shape) if outer else init(shape))

    # -- forward ----------------------------------------------------------------

    def _aggregate(self, h: np.ndarray, t: int):
        """``agg[i, b] = sum over edges j -> i of phi(h[j, b], .)`` without the
        final ``* e_i``, for contiguous field-major states ``h`` (m, B, d), as
        batched GEMMs. Returns ``(agg, cache)``: ``agg`` is (m, B, d), maybe a
        transposed view, and the cache holds what the backward GEMMs read, in
        the layout they read it."""
        m, B, d = h.shape
        jj, ii = self._jj, self._ii
        kind = self.dag.kind
        if kind == "basic-inner":
            A = self._adjacency
            return (A.T @ h.reshape(m, B * d)).reshape(m, B, d), A
        if kind in ("inner", "kernel"):
            # the pair GEMM, sources j as rows and targets i as columns
            g = self._gemm
            K = self._layout(self._weights(t), g.dense)
            return g.fields(g.states(h) @ K), K
        p = self._layout(f"dag.p{t}", lambda w: _scatter((m, m, d), (jj, ii), w))  # p[j, i]
        q = self._layout(f"dag.q{t}", lambda w: _scatter((m, m, d), (ii, jj), w))  # q[i, j]
        # S[j, i, b] = p[j, i] . h[j, b]: per source j an (m, d) x (d, B) GEMM
        S = np.matmul(p, h.transpose(0, 2, 1))
        # agg[i, b] = sum_j S[j, i, b] q[i, j]: per target i a (B, m) x (m, d)
        # GEMM; S.transpose(1, 2, 0) is F-ordered per target, so BLAS reads S
        # as it is, and so do the backward GEMMs
        return np.matmul(S.transpose(1, 2, 0), q), (p, q, S)

    def forward_trace(self, idx: np.ndarray) -> tuple[np.ndarray, PropagationTrace]:
        idx = np.asarray(idx)
        L, m, d = self.dag.num_layers, self.num_fields, self.embed_dim
        # every state set, field-major: H[t, i] is node i's (B, d) block after
        # t steps (an idx that is not (B, m) reaches lookup's shape check)
        H = np.empty((L + 1, m, *idx.shape[:1], d))
        E = H[0]
        self.embedding.lookup(idx, out=E)
        B = len(idx)
        layer_caches = []
        for t in range(L):
            agg, cache = self._aggregate(H[t], t)
            np.multiply(agg, E, out=H[t + 1])
            layer_caches.append((agg, cache))
        pooled = (H.reshape(-1, d) @ np.ones(d)).reshape((L + 1) * m, B)  # state-major rows
        logits = self._head(pooled.T)
        self._cache = (idx, H, layer_caches, pooled)
        trace = PropagationTrace(
            list(H.transpose(0, 2, 1, 3)), pooled.reshape(L + 1, m, B).transpose(2, 0, 1), pooled.T
        )
        return logits, trace

    def forward(self, idx: np.ndarray) -> np.ndarray:
        return self.forward_trace(idx)[0]

    # -- backward ---------------------------------------------------------------

    def backward(self, dlogits: np.ndarray, extra_dstates=None) -> dict[str, np.ndarray]:
        """Analytic gradients for every parameter given d(loss)/d(logit).

        ``extra_dstates`` lets a wrapper (the MLP-augmented variant) inject
        additional gradient into each state set before the layer walk, one
        field-major (m, B, d) array or ``None`` per state set.
        """
        idx, H, layer_caches, pooled = self._cache
        n_states, m, B, _ = H.shape
        grads, dpool = self._head_backward(pooled.T, dlogits)
        dpool = dpool.T.reshape(n_states, m, B, 1)
        if extra_dstates is None:
            extra_dstates = [None] * n_states

        def dstate(t, dh):
            # d(loss)/d(state t): the head's share broadcast over d, plus the
            # share that flows back from layer t (dh, a fresh array) and from
            # a wrapper
            dh = dpool[t] if dh is None else np.add(dh, dpool[t], out=dh)
            return dh if extra_dstates[t] is None else dh + extra_dstates[t]

        E = H[0]
        dh = dstate(n_states - 1, None)
        dE = np.zeros_like(E)
        for t in range(n_states - 2, -1, -1):
            agg, cache = layer_caches[t]
            dE += dh * agg
            dh = dstate(t, self._aggregate_backward(t, H[t], dh * E, cache, grads))
        dE += dh
        grads.update(self.embedding.grads(idx, dE.transpose(1, 0, 2)))
        return grads

    def _aggregate_backward(self, t, h, dU, cache, grads) -> np.ndarray:
        """Store the edge-weight gradients of layer ``t`` and return
        d(loss)/d(h), given ``dU`` = d(loss)/d(agg); all field-major (m, B, d)
        and ``dU`` contiguous."""
        m, B, d = h.shape
        jj, ii = self._jj, self._ii
        kind = self.dag.kind
        if kind == "basic-inner":
            return (cache @ dU.reshape(m, B * d)).reshape(m, B, d)
        if kind in ("inner", "kernel"):
            g, K = self._gemm, cache
            dX = g.states(dU)
            grads[self._weights(t)] = g.at_pairs(g.states(h).transpose(0, 2, 1) @ dX)
            return g.fields(dX @ K.transpose(0, 2, 1))
        p, q, S = cache
        dS = np.matmul(q, dU.transpose(0, 2, 1))  # dS[i, j, b] = q[i, j] . dU[i, b]
        grads[f"dag.q{t}"] = np.matmul(S.transpose(1, 0, 2), dU)[ii, jj]  # (i, j, e)
        grads[f"dag.p{t}"] = np.matmul(dS.transpose(1, 0, 2), h)[jj, ii]  # (j, i, e)
        # dh[j, b] = sum_i dS[i, j, b] p[j, i]: per source j a (B, m) x (m, d) GEMM
        return np.matmul(dS.transpose(1, 2, 0), p)


def _scatter(shape, index, values) -> np.ndarray:
    """Zeros of ``shape`` with the per-pair ``values`` written at ``index``:
    compact pair weights laid out for the GEMMs (zero off the pair list)."""
    dense = np.zeros(shape)
    dense[index] = values
    return dense


class PairGemm:
    """The dense GEMM layout of compact pair weights: a field ``rows[k]``
    meets a field ``cols[k]`` through pair ``k``'s weight vector (``per_dim``)
    or d x d matrix. The student's ``inner`` and ``kernel`` layers and the
    FwFM and FmFM baselines are all ``states(F) @ dense(w)`` over it.

    Field-major (m, B, d) states become (g, B, n) GEMM operands: dim-major
    (d, B, m), one (m, m) block per embedding dim, when ``per_dim``;
    batch-major (1, B, m*d), one (m*d, m*d) block whose rows are (field,
    dim) of the ``rows`` side and columns (field, dim) of the ``cols`` side,
    otherwise. ``dense`` scatters the pair weights into the (g, n, n)
    blocks, zero off the pairs, and ``at_pairs`` reads a dense gradient back
    in the compact layout.
    """

    def __init__(self, rows, cols, m: int, d: int, per_dim: bool):
        self.rows, self.cols = np.asarray(rows), np.asarray(cols)
        self.m, self.d, self.per_dim = m, d, per_dim

    def states(self, F: np.ndarray) -> np.ndarray:
        """Field-major (m, B, d) as a contiguous (g, B, n) copy."""
        if self.per_dim:
            return np.ascontiguousarray(F.transpose(2, 1, 0))
        m, B, d = F.shape
        return F.transpose(1, 0, 2).reshape(1, B, m * d)

    def fields(self, X: np.ndarray) -> np.ndarray:
        """The inverse of ``states``, as a field-major (m, B, d) view."""
        if self.per_dim:
            return X.transpose(2, 1, 0)
        return X.reshape(X.shape[1], self.m, self.d).transpose(1, 0, 2)

    def dense(self, w: np.ndarray) -> np.ndarray:
        m, d = self.m, self.d
        if self.per_dim:
            return _scatter((d, m, m), (slice(None), self.rows, self.cols), w.T)
        K = _scatter((m, d, m, d), (self.rows, slice(None), self.cols), w)
        return K.reshape(1, m * d, m * d)

    def at_pairs(self, dK: np.ndarray) -> np.ndarray:
        if self.per_dim:
            return dK[:, self.rows, self.cols].T
        m, d = self.m, self.d
        return dK.reshape(m, d, m, d)[self.rows, :, self.cols]


# ---------------------------------------------------------------------------
# MLP-augmented variant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DagfmPlusSpec:
    """DAG student plus an MLP tower over concatenated node states.

    ``mlp_feed`` selects whether the tower sees every state set
    (``"all-states"``, input width ``m * (num_layers + 1) * d``) or only the
    last one (``"final-state"``, width ``m * d``).
    """

    dagfm: DagfmSpec
    mlp_hidden: tuple[int, ...] = (128, 128, 128)
    activation: str = "relu"
    mlp_feed: str = "all-states"

    def __post_init__(self):
        if self.activation not in ("relu", "tanh"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if self.mlp_feed not in ("all-states", "final-state"):
            raise ConfigurationError(f"unknown mlp_feed {self.mlp_feed!r}")
        object.__setattr__(self, "mlp_hidden", as_tuples(self.mlp_hidden))
        if not self.mlp_hidden:
            raise ConfigurationError("mlp_hidden must name at least one layer")
        for h in self.mlp_hidden:
            check_int("mlp_hidden width", h, 1)

    @property
    def num_fields(self) -> int:
        return self.dagfm.num_fields

    @property
    def embed_dim(self) -> int:
        return self.dagfm.embed_dim

    @property
    def num_layers(self) -> int:
        return self.dagfm.num_layers

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from self.dagfm.layout(vocab_sizes)
        yield from mlp_layout(self.widths, self.activation)

    def flops(self) -> FlopCount:
        # the tower's logit joins the DAG's with one addition
        return self.dagfm.flops() + mlp_flops(self.widths) + FlopCount(0, 1)

    @property
    def mlp_input_width(self) -> int:
        m, d = self.dagfm.num_fields, self.dagfm.embed_dim
        if self.mlp_feed == "all-states":
            return m * self.dagfm.num_states * d
        return m * d

    @property
    def widths(self) -> list[int]:
        return [self.mlp_input_width, *self.mlp_hidden, 1]


def mlp_layout(widths: list[int], activation: str, zero_final: bool = True) -> Iterator[tuple]:
    """Weight then bias of each tower layer. With ``zero_final`` the output
    layer starts at zero so the tower is an additive no-op until trained."""
    for k, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = k == len(widths) - 2
        if last and zero_final:
            init = np.zeros
        else:
            gain = 2.0 if activation == "relu" and not last else 1.0
            init = np.sqrt(gain / n_in)
        yield f"mlp.W{k}", (n_in, n_out), init
        yield f"mlp.b{k}", (n_out,), np.zeros


@dataclass(frozen=True)
class FlopCount:
    """Scalar multiplications and additions of one forward pass."""

    mults: int
    adds: int

    @property
    def total(self) -> int:
        return self.mults + self.adds

    def __add__(self, other: "FlopCount") -> "FlopCount":
        return FlopCount(self.mults + other.mults, self.adds + other.adds)


def mlp_flops(widths: list[int]) -> FlopCount:
    """Forward cost of a tower of these widths; a scalar output's bias feeds
    the logit and is not counted."""
    mults = adds = 0
    for k, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = k == len(widths) - 2
        mults += n_in * n_out
        adds += (n_in - 1) * n_out
        if not (last and n_out == 1):
            adds += n_out
    return FlopCount(mults, adds)


class MlpTower:
    """Plain fully connected tower over the store's ``mlp.*`` parameters."""

    def __init__(self, store: ParamStore, widths: list[int], activation: str):
        self.store = store
        self.activation = activation
        names = [name for name, _, _ in mlp_layout(widths, activation)]
        self.names = list(zip(names[0::2], names[1::2]))


    def _act(self, z):
        return np.maximum(z, 0.0) if self.activation == "relu" else np.tanh(z)

    def forward(self, x: np.ndarray) -> np.ndarray:
        acts = [x]
        pre = []
        for k, (wname, bname) in enumerate(self.names):
            z = acts[-1] @ self.store[wname] + self.store[bname]
            pre.append(z)
            acts.append(z if k == len(self.names) - 1 else self._act(z))
        self._cache = (acts, pre)
        return acts[-1][:, 0]

    def backward(self, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        acts, pre = self._cache
        delta = dout[:, None]
        for k in range(len(self.names) - 1, -1, -1):
            wname, bname = self.names[k]
            grads[wname] = acts[k].T @ delta
            grads[bname] = delta.sum(axis=0)
            delta = delta @ self.store[wname].T
            if k > 0:
                z = pre[k - 1]
                if self.activation == "relu":
                    delta = delta * (z > 0)
                else:
                    delta = delta * (1.0 - np.tanh(z) ** 2)
        return delta


class DagfmPlusModel(DagfmModel):
    """DAG student with an MLP tower added to the logit (for distilling
    teachers that also carry implicit interactions)."""

    kind = "dagfm+"
    spec_type = DagfmPlusSpec

    @property
    def dag(self) -> DagfmSpec:
        return self.spec.dagfm

    def _setup(self) -> None:
        super()._setup()
        self.mlp = MlpTower(self.store, self.spec.widths, self.spec.activation)

    def _mlp_input(self, states: list[np.ndarray]) -> np.ndarray:
        B = len(states[0])
        if self.spec.mlp_feed == "all-states":
            return np.stack(states, axis=1).reshape(B, -1)
        return states[-1].reshape(B, -1)

    def forward_trace(self, idx: np.ndarray):
        logits, trace = super().forward_trace(idx)
        x = self._mlp_input(trace.node_states)
        if x.shape[1] != self.spec.mlp_input_width:
            raise ConfigurationError(
                f"MLP input width {x.shape[1]} != configured {self.spec.mlp_input_width}"
            )
        logits = logits + self.mlp.forward(x)
        return logits, trace

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        n_states, m, B, d = self._cache[1].shape  # the state buffer
        grads: dict[str, np.ndarray] = {}
        dx = self.mlp.backward(np.asarray(dlogits, dtype=np.float64), grads)
        extra = [None] * n_states
        if self.spec.mlp_feed == "all-states":
            extra = list(dx.reshape(B, n_states, m, d).transpose(1, 2, 0, 3))
        else:
            extra[-1] = dx.reshape(B, m, d).transpose(1, 0, 2)
        base = super().backward(dlogits, extra_dstates=extra)
        base.update(grads)
        return base

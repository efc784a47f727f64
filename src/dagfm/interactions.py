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
serving, scatters nothing. ``_layout`` is the one place any family's
forward gets an operand derived from its weights, and its backward reads
the same arrays back there.

Every model family is a pure core under :class:`Model`: ``_forward(rows,
keep) -> (logits, tape)`` over the table rows that ``Model.forward`` or
``Model.score`` checked once (``EmbeddingTable.table_rows``), and
``_backward(tape, dlogits) -> (grads, d_emb)``, every gradient but the
table's and the (B, m, d) embeddings' gradient, which ``Model.backward``
scatters (``EmbeddingTable.grads``) unless it is ``None``, as the student's
is for a frozen table. ``forward`` runs a core with ``keep`` and holds its
tape for ``backward``; ``score`` runs it without, and the core then returns
no tape and holds nothing, while it runs, that only a backward would read.
Only ``Model`` keeps a tape between calls; :class:`MlpTower` returns its own.
``Model.backward`` runs a core only against its own forward: on the weights
that forward read (the store's ``version`` then), with the table trainable
or frozen as it was then, and with one ``dlogits`` entry per row of its
batch, so that no core checks any of these. A tape holds only what its
forward computed from the batch, never a weight or a layout of one. A
backward consumes its tape: ``Model`` lets go of it before the core runs,
and ``_backward`` may drop each part of it once it has read it.

The student works field-major: one contiguous (L+1, m, B, d) buffer holds
every state set, ``H[t, i]`` being node ``i``'s (B, d) block after ``t``
steps. ``EmbeddingTable.lookup`` gathers every field's rows into ``H[0]``
with one ``np.take``, and each layer writes ``agg * e`` straight into the
next slot: ``agg`` itself is written there and multiplied by ``e`` in place
where its GEMM's layout allows (``outer``, ``basic-inner``), and a layer's
GEMM operands go before the next layer runs. The tape is the state buffer
and the pooled values, (L+1) m B d floats and the pooled values, with the
table trainable or frozen: no aggregate and no ``outer`` edge scalars. Only
the table's gradient reads an aggregate, and a backward that takes that
gradient forms each layer's aggregate again when its walk reaches the
layer; an ``outer`` backward forms each layer's ``S`` again before ``dq``
and frees it before ``dS``. Each is formed by the forward's own GEMM calls
on the tape's states, the layouts the forward read (``_layout``) and its
plan (:meth:`DagfmModel._plan`), so bitwise as the forward did. ``outer``
runs two GEMMs per layer: per source ``j`` a (B, d) x (d, n) product of
``h[j]`` with the contiguous (d, m) block ``pT[j]`` gives the edge scalars
``S[j, i, b] = p[j, i] . h[j, b]`` over n targets, written F-ordered into
``S[j]``, and per target ``i`` a (B, n) x (n, d) product reads ``S`` as an
F-ordered operand over n sources. Its backward runs four GEMMs over ``S``
and the same buffer, with no copy of either: ``dS`` is formed as ``S`` is,
from ``qT[i]``, and the other three read ``S`` and ``dS`` as the forward's
second GEMM reads ``S``; ``qT`` and ``p`` are contiguous transposes of the
kept ``(pT, q)``. The edge-scalar GEMMs sum over only d terms, and BLAS
runs them fastest with the batch as their rows (README gives the timing).
Edges only run ``j -> i`` with ``j <= i``, so fields are cut into blocks of
:data:`FIELD_BLOCK`, and a field of block [a, b) reads as a source only the
targets ``i >= a`` and as a target only the sources ``j < b``: the GEMMs
skip the upper block pairs, which are zero, and never read the parts of
``S`` they leave unwritten. With one block, n = m and each is one dense
batched GEMM. A forward of fewer than :data:`SMALL_ROWS` rows runs its two
GEMMs dense at any m, since there a block's call overhead outweighs the
upper blocks' arithmetic; its backward forms ``S`` again densely and still
reads only its lower blocks. ``basic-inner`` is one (m, m) x (m, B*d) GEMM
with the transposed adjacency matrix. ``inner`` and ``kernel`` are the
bilinear pair GEMM that :class:`PairGemm` lays out, shared with the FwFM
and FmFM baselines: one (B, m) x (m, m) GEMM per embedding dim over a
dim-major copy of the states (``inner``), or one (B, m*d) x (m*d, m*d) GEMM
over a batch-major copy (``kernel``). Pooling every state set is one
matrix-vector product of the buffer with ``ones(d)``, and the head is
another. The combiner's GEMMs are resolved once, when the model is built.
``_forward`` builds no trace: ``forward_trace`` runs the core on a buffer
of its own and returns a :class:`PropagationTrace` of views of that run's
tape. Public shapes stay batch-major: ``lookup`` and ``PropagationTrace``
give (B, m, d) arrays, as views where they can. The per-pair ``phi_*``
functions are the reference the layers are tested against.

:class:`DagfmPlusModel` adds an MLP tower to the logit. The tower reads one
slice of the state axis, every state set or the last one
(:attr:`DagfmPlusSpec.fed_states`), and its input gradient flows back into
that slice. The tape keeps no copy of the tower's input: backward reads it
from the state buffer again. Every tower obeys :func:`check_mlp` and
:data:`ACTIVATIONS`.

With identity-valued weights and the full lower-triangular edge set, node
``i`` at layer ``t`` is exactly the sum of all order-``t`` products of
embeddings whose largest field index is ``i``; the ``oracle`` module checks
this by brute-force enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .numcore import ConfigurationError, ParamStore, RowGrad, ShapeError, as_tuples, check_int

KINDS = ("basic-inner", "inner", "kernel", "outer")

# Fields per block of an ``outer`` layer's block-triangular GEMMs. With k
# blocks they do (k + 1) / (2k) of the dense (m, m) work, 62.5% at m=39, in
# k calls each. A student with m <= FIELD_BLOCK is one block and makes the
# one dense call per GEMM: a loop over one block would only add slicing. The
# blocks are the plan of a forward of at least SMALL_ROWS rows, and of every
# backward.
FIELD_BLOCK = 10

# Rows from which an ``outer`` forward runs the block plan. A smaller batch
# runs each product as one dense GEMM: there a block's extra ``np.matmul``
# call and slicing cost more than the upper blocks' arithmetic. In a depth-3
# forward at m=39, d=16 the two are even at 21 and 22 rows (README gives the
# sweep).
SMALL_ROWS = 21


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
        """Every parameter of the student, in store order (see :class:`Model`);
        ``inner`` and ``kernel`` start at identity (ones, identity matrices)."""
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

    def logit_bound(self, scales: dict[str, float]) -> float:
        """The logit, on any row, of this model with every weight of each
        parameter ``name`` equal to ``scales[name]``.

        Every family declares this bound. A forward forms each value from the
        weights by sums, products, relu and tanh, so when each scale is at
        least 1 and at least its parameter's largest weight magnitude, no
        value that any forward forms is larger in magnitude than the bound.
        """
        d = self.embed_dim
        return d * scales["head.w"] * sum(h.sum() for h in self._state_bounds(scales)) \
            + scales["head.b"]

    def _state_bounds(self, scales: dict[str, float]) -> list[np.ndarray]:
        """Every node's entries in each state set of the constant model."""
        m, d, e = self.num_fields, self.embed_dim, scales["emb"]
        if self.edges is None:  # every j -> i with j <= i
            edges = np.triu(np.ones((m, m)))
        else:
            edges = np.zeros((m, m))
            edges[tuple(np.array(self.pairs()).T)] = 1.0
        weight = {
            "basic-inner": lambda t: 1.0,
            "inner": lambda t: scales[f"dag.w{t}"],
            "kernel": lambda t: d * scales[f"dag.K{t}"],
            "outer": lambda t: d * scales[f"dag.p{t}"] * scales[f"dag.q{t}"],
        }[self.kind]
        states = [np.full(m, e)]
        for t in range(self.num_layers):
            states.append(weight(t) * e * (states[-1] @ edges))
        return states

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
        # each field's row count, as the bound of an unsigned view of the
        # int32 or int64 indices that ``table_rows`` reads; no int32 index
        # reaches 2**31, and a negative one reads as at least that
        self._bounds = {
            np.dtype(np.int32): np.minimum(self._rows, 2**31).astype(np.uint32),
            np.dtype(np.int64): self._rows.astype(np.uint64),
        }

    @property
    def num_fields(self) -> int:
        return len(self._rows)

    def table_rows(self, idx: np.ndarray) -> np.ndarray:
        """The (B, m) table rows an index batch reads: ``offsets[i] + j`` for
        field i's index j, once the batch's integer dtype, its shape and every
        field's range are checked. A bool matrix is not indices, and a float
        or str one is rejected before any arithmetic reads it. int32 indices,
        a :class:`~dagfm.data.Dataset`'s, are checked at their width, other
        integers as int64; the rows are int64, as a table's row count may
        exceed int32."""
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu":
            raise ShapeError(f"index matrix must hold integers, got dtype {idx.dtype}")
        if idx.ndim != 2 or idx.shape[1] != self.num_fields:
            raise ShapeError(f"index matrix must be (batch, {self.num_fields}), got {idx.shape}")
        if idx.dtype not in self._bounds:
            idx = idx.astype(np.int64)
        bound = self._bounds[idx.dtype]
        # read unsigned, a negative index lies above every bound, so one
        # compare checks both ends; the per-field bound also keeps field i's
        # indices off field i+1's rows
        if not (idx.view(bound.dtype) < bound).all():
            bad = (idx < 0) | (idx >= self._rows)
            i = int(np.argmax(bad.any(axis=0)))
            raise IndexError(
                f"field {i}: index {idx[bad[:, i], i][0]} outside vocab range "
                f"[0, {self._rows[i]})"
            )
        return idx + self.offsets

    def lookup(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (B, m, d) embeddings of checked table rows (``table_rows``), as
        a view of a field-major (m, B, d) array (``out`` if given) filled by
        one gather."""
        if out is None:
            out = np.empty((self.num_fields, len(rows), self.dim))
        # the rows are checked; "clip" lets take write into out unbuffered
        self.store["emb"].take(rows.T, axis=0, out=out, mode="clip")
        return out.transpose(1, 0, 2)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The (B, m, d) embeddings of checked table rows, batch-major and
        contiguous, from one gather: ``reshape(B, m * d)`` is a view."""
        return self.store["emb"].take(rows, axis=0, mode="clip")

    def grads(self, rows: np.ndarray, d_emb: np.ndarray) -> dict[str, RowGrad]:
        """The table's gradient as a :class:`RowGrad` over the checked table
        rows a batch read, or nothing when the table is frozen (``adam_step``
        would ignore it). ``d_emb`` (B, m, d) is scatter-added into those
        rows in its own memory order, without copies, when that is
        batch-major like ``gather``'s or field-major like ``lookup``'s; any
        other layout is copied batch-major. Every row belongs to one field,
        so in either order its contributions arrive in batch-row order: each
        sum is bitwise the dense scatter-add's."""
        if not self.store.is_trainable("emb"):
            return {}
        shape = self.store["emb"].shape
        # the touched rows, from one count over the table; the counts are then
        # overwritten with each touched row's position among them
        compact = np.bincount(rows.ravel(), minlength=shape[0])
        touched = np.flatnonzero(compact)
        compact[touched] = np.arange(len(touched))
        d = shape[1]
        firsts = compact[rows] * d  # each (batch row, field)'s first output cell
        if d_emb.strides[0] < d_emb.strides[1]:  # field-major
            firsts, d_emb = firsts.T, d_emb.transpose(1, 0, 2)
        cells = (firsts.reshape(-1, 1) + np.arange(d)).ravel()
        g = np.bincount(cells, weights=d_emb.ravel(), minlength=len(touched) * d)
        return {"emb": RowGrad(touched, g.reshape(-1, d), shape)}


class Model:
    """Common surface: a ParamStore plus forward/backward over index batches,
    which keep the tape of each family's ``_forward``/``_backward`` core, and
    ``score``, which runs the core with ``keep=False`` and keeps no tape.

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
    # the table rows, tape, ``store.version`` and table trainability of the
    # latest ``forward``, until a ``backward`` takes them
    _cache = None
    _kept_layout = None  # ``(store.version, _lay_out())`` of the latest ``_layout``

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
        """Derive what ``_forward`` reads besides the store."""

    def _layout(self):
        """The family's ``_lay_out()``, the arrays (or lists and tuples of
        them) that its forward lays out from its weights, built once, made
        read-only and kept until the store's version moves, so that a
        backward, run on its forward's version, reads them back."""
        version = self.store.version
        if self._kept_layout is None or self._kept_layout[0] != version:
            layout = self._lay_out()
            _lock(layout)
            self._kept_layout = (version, layout)
        return self._kept_layout[1]

    def _head(self, x: np.ndarray) -> np.ndarray:
        """The linear head: ``x @ head.w + head.b``, one logit per row."""
        return x @ self.store["head.w"] + self.store["head.b"][0]

    def _head_backward(self, x: np.ndarray, dlogits: np.ndarray) -> tuple[dict, np.ndarray]:
        """A grads dict holding the head's gradients, and d(loss)/d(x)."""
        grads = {"head.w": x.T @ dlogits, "head.b": np.array([dlogits.sum()])}
        return grads, dlogits[:, None] * self.store["head.w"][None, :]

    def forward(self, idx: np.ndarray) -> np.ndarray:
        """One logit per row of an index batch. Releases the previous call's
        tape first, checks the batch once (``EmbeddingTable.table_rows``)
        and keeps the table rows, the family's tape, the store's version and
        whether the table is trainable for one ``backward``."""
        self._cache = None  # the last tape goes before this one is allocated
        rows = self.embedding.table_rows(idx)
        logits, tape = self._forward(rows, keep=True)
        self._cache = (rows, tape, self.store.version, self.store.is_trainable("emb"))
        return logits

    def score(self, idx: np.ndarray) -> np.ndarray:
        """``forward``'s logits, bitwise, from the family's core run with no
        tape: nothing that only ``backward`` reads is kept, and the latest
        ``forward``'s tape is left as it was."""
        return self._forward(self.embedding.table_rows(idx), keep=False)[0]

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Analytic gradients of every parameter given d(loss)/d(logit), one
        per row, of the latest forward, on the weights it read; the table's
        over the rows that forward read, and none for a frozen table. Once
        its checks pass it consumes the forward's tape: the model holds
        nothing of it afterwards, and a second backward is an error."""
        if self._cache is None:
            raise ConfigurationError(
                "backward needs the tape of a forward that returned: no forward has run "
                "since the model was built, the latest one raised, or a backward has "
                "consumed its tape"
            )
        rows, tape, version, trainable = self._cache
        if version != self.store.version:
            raise ConfigurationError(
                "backward needs the weights its forward read: the store was written since"
            )
        if trainable != self.store.is_trainable("emb"):
            raise ConfigurationError(
                "backward needs the table as its forward read it: the table was "
                f"{'frozen' if trainable else 'unfrozen'} since"
            )
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != (len(rows),):
            raise ShapeError(
                f"dlogits: expected shape ({len(rows)},) for the forward's batch, "
                f"got {dlogits.shape}"
            )
        self._cache = None  # the core drops each part of the tape once read
        grads, d_emb = self._backward(tape, dlogits)
        del tape  # before the table's gradient is scattered
        if d_emb is not None:
            grads.update(self.embedding.grads(rows, d_emb))
        return grads

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
        # the outer GEMMs' block plan: a block [a, b) of sources reaches the
        # targets from a on, and a block of targets the sources before b
        blocks = [slice(a, min(a + FIELD_BLOCK, m)) for a in range(0, m, FIELD_BLOCK)]
        self._sources = tuple((f, slice(f.start, None)) for f in blocks)
        self._targets = tuple((f, slice(None, f.stop)) for f in blocks)
        # the combiner's layer GEMMs, forward and backward, as functions of
        # the model, read off its class so that a subclass may override one
        cls = type(self)
        self._layer_gemms = {
            "basic-inner": (cls._adjacency_gemm, cls._adjacency_gemm_backward),
            "inner": (cls._pair_gemm, cls._pair_gemm_backward),
            "kernel": (cls._pair_gemm, cls._pair_gemm_backward),
            "outer": (cls._outer_gemms, cls._outer_gemms_backward),
        }[self.dag.kind]

    def _weights(self, t: int) -> str:
        """Store name of an ``inner`` or ``kernel`` layer's edge weights."""
        return f"dag.w{t}" if self.dag.kind == "inner" else f"dag.K{t}"

    # -- forward ----------------------------------------------------------------

    def _lay_out(self) -> list:
        """Per layer, the dense edge weights its forward GEMMs read: the
        adjacency matrix (``basic-inner``), the pair GEMM's blocks
        (``inner``, ``kernel``), or ``outer``'s pair, the (m, d, m)
        ``pT[j, :, i] = p[j, i]`` and the (m, m, d) ``q[i, j]``; an
        ``outer`` backward transposes the pair its forward read."""
        kind, L = self.dag.kind, self.dag.num_layers
        if kind == "basic-inner":
            return [self._adjacency] * L
        if kind != "outer":
            return [self._gemm.dense(self.store[self._weights(t)]) for t in range(L)]
        m, d, jj, ii = self.num_fields, self.embed_dim, self._jj, self._ii
        return [
            (_scatter((m, d, m), (jj, slice(None), ii), self.store[f"dag.p{t}"]),
             _scatter((m, m, d), (ii, jj), self.store[f"dag.q{t}"]))
            for t in range(L)
        ]

    def _plan(self, B: int) -> tuple:
        """The ``outer`` GEMMs' plan of a forward of ``B`` rows, which its
        backward forms again: below :data:`SMALL_ROWS` rows each product is
        one dense GEMM, from there on the block-triangular ones."""
        return (self._sources, self._targets) if B >= SMALL_ROWS else (_ONE_BLOCK, _ONE_BLOCK)

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        """The logits, and with ``keep`` the tape ``(H, pooled)``, the state
        buffer and the pooled values: no aggregate outlives its layer (see
        the module docstring)."""
        L, m, d = self.dag.num_layers, self.num_fields, self.embed_dim
        B = len(rows)
        # every state set, field-major: H[t, i] is node i's (B, d) block after t steps
        H = np.empty((L + 1, m, B, d))
        E = H[0]
        self.embedding.lookup(rows, out=E)
        gemm, plan = self._layer_gemms[0], self._plan(B)
        for t, w in enumerate(self._layout()):
            agg = gemm(self, H[t], w, plan, H[t + 1])
            np.multiply(agg, E, out=H[t + 1])
            del agg  # a pair GEMM's aggregate is an array of its own: free it now
        pooled = (H.reshape(-1, d) @ np.ones(d)).reshape((L + 1) * m, B)  # state-major rows
        return self._head(pooled.T), (H, pooled) if keep else None

    def forward_trace(self, idx: np.ndarray) -> tuple[np.ndarray, PropagationTrace]:
        """:meth:`forward`'s logits, and the states and pooled values of a
        run of its own as a trace of views of its tape. The live tape,
        which ``backward`` reads, is left as it was."""
        logits, (H, pooled, *_) = self._forward(self.embedding.table_rows(idx), keep=True)
        n_states, m, B, _ = H.shape
        trace = PropagationTrace(
            list(H.transpose(0, 2, 1, 3)),
            pooled.reshape(n_states, m, B).transpose(2, 0, 1),
            pooled.T,
        )
        return logits, trace

    # Each layer's GEMMs: ``agg[i, b] = sum over edges j -> i of phi(h[j, b],
    # .)`` without the final ``* e_i``, for contiguous field-major states
    # ``h`` (m, B, d), given the layer's dense weights ``w`` and the forward's
    # ``outer`` plan. Each returns ``agg``, (m, B, d), maybe a transposed
    # view, written into ``out`` (contiguous, field-major) where the GEMM's
    # layout allows.

    def _adjacency_gemm(self, h, A, plan, out=None):
        m, B, d = h.shape
        flat = None if out is None else out.reshape(m, B * d)
        return np.matmul(A.T, h.reshape(m, B * d), out=flat).reshape(m, B, d)

    def _pair_gemm(self, h, K, plan, out=None):
        # the pair GEMM, sources j as rows and targets i as columns; its
        # output is laid out as its states, not field-major
        g = self._gemm
        return g.fields(g.states(h) @ K)

    def _outer_gemms(self, h, w, plan, out=None):
        (pT, q), (sources, targets) = w, plan  # pT[j, :, i] = p[j, i], q[i, j]
        S = _edge_scalars(h, pT, sources)
        # agg[i, b] = sum_j S[j, i, b] q[i, j]: per target i a (B, n) x (n, d)
        # GEMM; S.transpose(1, 2, 0) is F-ordered per target, so BLAS reads S
        # as it is, and so do the backward GEMMs
        return _tri_matmul(S.transpose(1, 2, 0), q, targets, "inner", out=out)

    # -- backward ---------------------------------------------------------------

    def _backward(self, tape, dlogits: np.ndarray, extra_dstate=None) -> tuple[dict, np.ndarray]:
        """See the module docstring. ``extra_dstate`` lets a wrapper (the
        MLP-augmented variant) inject additional gradient into state set
        ``t``: ``extra_dstate(t)`` is called when the layer walk reaches that
        set and returns a field-major (m, B, d) array or ``None``. A frozen
        table (the distill stage's) takes no gradient: no dE is formed, no
        layer forms its aggregate again, and layer 0's backward forms no
        d(state 0).
        """
        H, pooled = tape
        n_states, m, B, _ = H.shape
        grads, dpool = self._head_backward(pooled.T, dlogits)
        dpool = dpool.T.reshape(n_states, m, B, 1)

        def dstate(t, dh):
            # d(loss)/d(state t): the head's share broadcast over d, plus the
            # share that flows back from layer t (dh, a fresh array) and from
            # a wrapper
            dh = dpool[t] if dh is None else np.add(dh, dpool[t], out=dh)
            extra = None if extra_dstate is None else extra_dstate(t)
            return dh if extra is None else dh + extra

        # the forward's layouts, as Model.backward runs on the weights it read
        gemms_backward, plan = self._layer_gemms[1], self._plan(B)
        layouts = self._layout()
        E = H[0]
        dh = dstate(n_states - 1, None)
        dE = np.zeros_like(E) if self.store.is_trainable("emb") else None
        for t in range(n_states - 2, -1, -1):
            # only dE reads the embeddings' gradient d(state 0)
            wants_dh = t > 0 or dE is not None
            dh = gemms_backward(self, t, H[t], dh, dh * E, layouts[t], plan, grads, dE, wants_dh)
            if wants_dh:
                dh = dstate(t, dh)
        if dE is None:
            return grads, None
        dE += dh
        return grads, dE.transpose(1, 0, 2)

    # Each layer's backward GEMMs: store the edge-weight gradients of layer
    # ``t`` and return d(loss)/d(h), or ``None`` unless ``wants_dh``, given
    # ``dh`` = d(loss)/d(state t+1) and ``dU`` = d(loss)/d(agg) = dh * e;
    # all field-major (m, B, d) and ``dU`` contiguous, and the forward's
    # layer weights ``w`` and plan. Unless the table is frozen (``dE`` is
    # ``None``), each first forms the layer's aggregate again by its
    # forward's GEMM calls on those operands, so bitwise as the forward did,
    # and adds the table's share dh * agg to ``dE`` (:func:`_add_table_share`).

    def _adjacency_gemm_backward(self, t, h, dh, dU, A, plan, grads, dE, wants_dh):
        m, B, d = h.shape
        if dE is not None:
            _add_table_share(dE, dh, self._adjacency_gemm(h, A, plan))
        return (A @ dU.reshape(m, B * d)).reshape(m, B, d) if wants_dh else None

    def _pair_gemm_backward(self, t, h, dh, dU, K, plan, grads, dE, wants_dh):
        if dE is not None:
            _add_table_share(dE, dh, self._pair_gemm(h, K, plan))
        g = self._gemm
        dX = g.states(dU)
        grads[self._weights(t)] = g.at_pairs(g.states(h).transpose(0, 2, 1) @ dX)
        return g.fields(dX @ K.transpose(0, 2, 1)) if wants_dh else None

    def _outer_gemms_backward(self, t, h, dh, dU, w, plan, grads, dE, wants_dh):
        # S and the aggregate again by the forward's own plan and calls, so
        # bitwise the forward's; the rest run the block plan at every batch
        # size: a small batch's dense S is whole, and they read only its
        # lower blocks
        jj, ii = self._jj, self._ii
        (pT, q), (sources, targets) = w, plan
        m, B, _ = h.shape
        S = _edge_scalars(h, pT, sources)
        if dE is not None:
            _add_table_share(dE, dh, _tri_matmul(S.transpose(1, 2, 0), q, targets, "inner"))
        dq = _tri_matmul(S.transpose(1, 0, 2), dU, self._targets, "rows")
        grads[f"dag.q{t}"] = dq[ii, jj]  # (i, j, e)
        del S, dq  # so that S and dS never coexist
        # dS[i, j, b] = q[i, j] . dU[i, b]: per target i a (B, d) x (d, n)
        # GEMM over the contiguous qT[i], written F-ordered into dS[i]
        dS = np.empty((m, m, B))
        qT = np.ascontiguousarray(q.transpose(0, 2, 1))
        _tri_matmul(dU, qT, self._targets, "cols", out=dS.transpose(0, 2, 1))
        dp = _tri_matmul(dS.transpose(1, 0, 2), h, self._sources, "rows")
        grads[f"dag.p{t}"] = dp[jj, ii]  # (j, i, e)
        if not wants_dh:
            return None
        # dh[j, b] = sum_i dS[i, j, b] p[j, i]: per source j a (B, n) x (n, d)
        # GEMM over the contiguous p[j]
        p = np.ascontiguousarray(pT.transpose(0, 2, 1))
        return _tri_matmul(dS.transpose(1, 2, 0), p, self._sources, "inner")


def _add_table_share(dE: np.ndarray, dh: np.ndarray, agg: np.ndarray) -> None:
    """``dE += dh * agg``, the table's share through a layer's product
    ``agg * e``, formed in the memory of ``agg``, a fresh array."""
    dE += np.multiply(dh, agg, out=agg)


# the plan of one dense GEMM per product: one block spans every field
_ONE_BLOCK = ((slice(None), slice(None)),)


def _edge_scalars(h: np.ndarray, pT: np.ndarray, sources) -> np.ndarray:
    """An ``outer`` layer's (m, m, B) edge scalars ``S[j, i, b] = p[j, i] .
    h[j, b]`` over the ``sources`` plan: per source j a (B, d) x (d, n) GEMM
    over the contiguous ``pT[j]``, written F-ordered into ``S[j]``. Forward
    and backward both form ``S`` here, by the same calls."""
    m, B, _ = h.shape
    S = np.empty((m, m, B))
    _tri_matmul(h, pT, sources, "cols", out=S.transpose(0, 2, 1))
    return S


def _tri_matmul(x, y, cuts, mode: str, out=None) -> np.ndarray:
    """``np.matmul(x, y, out=out)`` over a stack of per-field GEMMs that
    reads only the DAG's lower block triangle. ``cuts`` pairs each block of
    fields, a slice of the stack axis, with the partner fields its edges
    reach (see :meth:`DagfmModel._setup`). ``mode`` names the axis those
    partners run along: the inner axis (``"inner"``: x's last and y's
    middle axis), x's and the result's rows (``"rows"``), or y's and the
    result's columns (``"cols"``). In the last two the result's other rows
    or columns are left unwritten, and no caller reads them. With one block
    this is the dense ``np.matmul``."""
    if len(cuts) == 1:
        return np.matmul(x, y, out=out)
    if out is None:
        out = np.empty((*x.shape[:2], y.shape[2]))
    for fields, reach in cuts:
        if mode == "inner":
            np.matmul(x[fields, :, reach], y[fields, reach], out=out[fields])
        elif mode == "rows":
            np.matmul(x[fields, reach], y[fields], out=out[fields, reach])
        elif mode == "cols":
            np.matmul(x[fields], y[fields, :, reach], out=out[fields, :, reach])
        else:
            raise ValueError(f"unknown _tri_matmul mode {mode!r}")
    return out


def _scatter(shape, index, values) -> np.ndarray:
    """Zeros of ``shape`` with the per-pair ``values`` written at ``index``,
    read-only: compact pair weights laid out for the GEMMs (zero off the pair list)."""
    dense = np.zeros(shape)
    dense[index] = values
    dense.flags.writeable = False
    return dense


def _lock(nest) -> None:
    """Make every array of a nest of lists and tuples read-only."""
    if isinstance(nest, np.ndarray):
        nest.flags.writeable = False
    elif isinstance(nest, (list, tuple)):
        for item in nest:
            _lock(item)


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

    ``mlp_feed`` selects the state sets the tower reads, :attr:`fed_states`:
    every one (``"all-states"``, input width ``m * (num_layers + 1) * d``)
    or only the last one (``"final-state"``, width ``m * d``).
    """

    dagfm: DagfmSpec
    mlp_hidden: tuple[int, ...] = (128, 128, 128)
    activation: str = "relu"
    mlp_feed: str = "all-states"

    def __post_init__(self):
        if self.mlp_feed not in ("all-states", "final-state"):
            raise ConfigurationError(f"unknown mlp_feed {self.mlp_feed!r}")
        hidden = check_mlp("mlp_hidden", self.mlp_hidden, self.activation)
        object.__setattr__(self, "mlp_hidden", hidden)

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

    def logit_bound(self, scales: dict[str, float]) -> float:
        """See :meth:`DagfmSpec.logit_bound`."""
        fed = self.dagfm._state_bounds(scales)[self.fed_states]
        inputs = self.embed_dim * sum(h.sum() for h in fed)
        return self.dagfm.logit_bound(scales) + mlp_bound(self.widths, scales, inputs)

    def flops(self) -> FlopCount:
        # the tower's logit joins the DAG's with one addition
        return self.dagfm.flops() + mlp_flops(self.widths) + FlopCount(0, 1)

    @property
    def fed_states(self) -> slice:
        """The state sets the tower reads, as a slice of the state axis."""
        return slice(None) if self.mlp_feed == "all-states" else slice(-1, None)

    @property
    def mlp_input_width(self) -> int:
        return self.num_fields * len(range(self.num_layers + 1)[self.fed_states]) * self.embed_dim

    @property
    def widths(self) -> list[int]:
        return [self.mlp_input_width, *self.mlp_hidden, 1]


# Each tower activation: its function, its derivative at the pre-activation,
# and the init gain of the hidden layer whose output it takes (He for relu).
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: z > 0, 2.0),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2, 1.0),
}


def check_mlp(name: str, hidden, activation: str) -> tuple[int, ...]:
    """The rules of every tower: an activation of :data:`ACTIVATIONS`, and
    the spec's field ``name`` holding its ``hidden`` widths, as a tuple."""
    if activation not in tuple(ACTIVATIONS):  # a tuple: no hash of an unhashable value
        raise ConfigurationError(f"unknown activation {activation!r}")
    return check_widths(name, hidden)


def check_widths(name: str, widths) -> tuple[int, ...]:
    """The layer widths of a tower or a CIN stack, the spec's field
    ``name``: at least one, each an int >= 1, as a tuple."""
    widths = as_tuples(widths)
    if not widths:
        raise ConfigurationError(f"{name} must name at least one layer")
    for w in widths:
        check_int(f"{name} width", w, 1)
    return widths


def mlp_layout(widths: list[int], activation: str, zero_final: bool = True) -> Iterator[tuple]:
    """Weight then bias of each tower layer. With ``zero_final`` the output
    layer starts at zero so the tower is an additive no-op until trained."""
    for k, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = k == len(widths) - 2
        if last and zero_final:
            init = np.zeros
        else:
            gain = 1.0 if last else ACTIVATIONS[activation][2]
            init = np.sqrt(gain / n_in)
        yield f"mlp.W{k}", (n_in, n_out), init
        yield f"mlp.b{k}", (n_out,), np.zeros


def mlp_bound(widths: list[int], scales: dict[str, float], inputs: float) -> float:
    """A bound on the output of a tower of these widths whose weights and
    biases are no larger than their ``scales``, given the summed bounds of its
    inputs: relu and tanh grow no magnitude."""
    for k, n_out in enumerate(widths[1:]):
        inputs = n_out * (scales[f"mlp.W{k}"] * inputs + scales[f"mlp.b{k}"])
    return inputs


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
    """Plain fully connected tower over the store's ``mlp.*`` parameters. It
    keeps no state: ``forward`` returns the tape that ``backward`` reads,
    along with the input that the caller hands it again."""

    def __init__(self, store: ParamStore, widths: list[int], activation: str):
        self.store = store
        self.activation = activation
        self._act, self._grad, _ = ACTIVATIONS[activation]
        names = [name for name, _, _ in mlp_layout(widths, activation)]
        self.names = list(zip(names[0::2], names[1::2]))

    def forward(self, x: np.ndarray, keep: bool = True) -> tuple[np.ndarray, tuple | None]:
        """The (B,) outputs, and with ``keep`` the tape of every hidden
        layer's output and pre-activation; not of ``x``."""
        acts, pre = [], []
        last = len(self.names) - 1
        for k, (wname, bname) in enumerate(self.names):
            z = x @ self.store[wname] + self.store[bname]
            if k == last:
                break
            x = self._act(z)
            if keep:
                pre.append(z)
                acts.append(x)
        return z[:, 0], (acts, pre) if keep else None

    def backward(self, x: np.ndarray, tape, dout: np.ndarray,
                 grads: dict[str, np.ndarray], to_input: bool = True) -> np.ndarray:
        """Store the tower's gradients in ``grads`` and return d(loss)/d(x),
        given the input ``x`` of the forward that made ``tape``. Each
        layer's part of the tape goes once it is read. With ``to_input``
        false it returns the first layer's d(loss)/d(x @ W0 + b0) instead,
        which times ``W0[cols].T`` is the gradient of ``x[:, cols]``."""
        acts, pre = tape
        delta = dout[:, None]
        for k in range(len(self.names) - 1, -1, -1):
            wname, bname = self.names[k]
            grads[wname] = (acts.pop() if k else x).T @ delta
            grads[bname] = delta.sum(axis=0)
            if k == 0 and not to_input:
                return delta
            delta = delta @ self.store[wname].T
            if k > 0:
                delta = delta * self._grad(pre.pop())
        return delta


class DagfmPlusModel(DagfmModel):
    """DAG student with an MLP tower added to the logit (for distilling
    teachers that also carry implicit interactions). Its tape is the
    student's with the tower's appended. The tower reads the fed slice of
    the state buffer as a batch-major array that the tape does not keep:
    backward forms it again from the state buffer."""

    kind = "dagfm+"
    spec_type = DagfmPlusSpec

    @property
    def dag(self) -> DagfmSpec:
        return self.spec.dagfm

    def _setup(self) -> None:
        super()._setup()
        self.mlp = MlpTower(self.store, self.spec.widths, self.spec.activation)

    def _tower_input(self, H: np.ndarray) -> np.ndarray:
        """The fed slice of the state buffer (L+1, m, B, d), batch-major;
        an explicit width, since reshape(0, -1) cannot infer one."""
        fed = H[self.spec.fed_states]
        return fed.transpose(2, 0, 1, 3).reshape(H.shape[2], self.spec.mlp_input_width)

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        # the tower reads the state buffer, which the student's tape is
        logits, tape = super()._forward(rows, keep=True)
        out, tower = self.mlp.forward(self._tower_input(tape[0]), keep)
        return logits + out, (*tape, tower) if keep else None

    def _backward(self, tape, dlogits: np.ndarray) -> tuple[dict, np.ndarray | None]:
        *tape, tower = tape
        n_states, m, B, d = tape[0].shape
        grads: dict[str, np.ndarray] = {}
        delta = self.mlp.backward(self._tower_input(tape[0]), tower, dlogits, grads,
                                  to_input=False)
        W0 = self.store[self.mlp.names[0][0]]
        fed = range(n_states)[self.spec.fed_states]

        def tower_dstate(t):
            # state t's share of the tower's input gradient, formed only when
            # the walk reaches it, so that one state's share lives at a time
            if t not in fed:
                return None
            start = fed.index(t) * m * d
            return (delta @ W0[start : start + m * d].T).reshape(B, m, d).transpose(1, 0, 2)

        base, d_emb = super()._backward(tape, dlogits, extra_dstate=tower_dstate)
        base.update(grads)
        return base, d_emb

"""Explicit-interaction teacher networks and shallow comparison baselines.

Teachers are the networks the student is distilled from: a compressed
interaction network (CIN) that crosses each layer's feature map with the
raw embeddings, and a full-matrix cross network whose layers compute
``x_{t+1} = x_0 * (W_t x_t + b_t) + x_t``. The baselines (FwFM, FmFM,
tiny MLP) are lightweight students used for comparison only.

All models share the :class:`~dagfm.interactions.Model` surface: embeddings
in a ParamStore, ``forward(idx) -> logits``, ``backward(dlogits) -> grads``
with hand-derived gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .interactions import MlpTower, Model, PairGemm, embedding_layout, identity, mlp_layout
from .numcore import ConfigurationError, check_int


def upper_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """Unordered field pairs ``(i, j)`` with ``i < j``, lexicographic."""
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


# ---------------------------------------------------------------------------
# CIN
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CinSpec:
    """Compressed interaction network: layer k maps ``H_{k-1}`` rows to
    ``H_k`` rows via ``x^k_h = sum_{i,j} W^k_{h,i,j} (x^{k-1}_i * x^0_j)``,
    each layer is sum-pooled over the embedding axis, and a linear head
    reads the ``sum(H_k)`` pooled values."""

    num_fields: int
    embed_dim: int
    layer_sizes: tuple[int, ...] = (200, 200, 200)

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)
        if not self.layer_sizes:
            raise ConfigurationError("layer_sizes must name at least one layer")
        for h in self.layer_sizes:
            check_int("layer_sizes width", h, 1)

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from embedding_layout(self, vocab_sizes)
        m = prev = self.num_fields
        for k, h in enumerate(self.layer_sizes):
            yield f"cin.W{k}", (h, prev, m), 1.0 / np.sqrt(prev * m)
            prev = h
        yield "head.w", (self.pooled_width,), 1.0 / np.sqrt(self.pooled_width)
        yield "head.b", (1,), np.zeros

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def pooled_width(self) -> int:
        return sum(self.layer_sizes)


class CinModel(Model):
    kind = "cin"
    spec_type = CinSpec

    # Feature maps are kept embedding-dim-major, (d, B, H): layer k is one
    # GEMM per embedding dim e, (B, H_prev*m) x (H_prev*m, H), over the pair
    # products Z_e[b, i*m + j] = x^{k-1}[b, i, e] * x^0[b, j, e]. Backward takes
    # dW from one GEMM over Z_e and dZ_e from another, then contracts dZ_e
    # with each input as batched matrix-vector products. Z_e and dZ_e are
    # formed one e at a time, so no intermediate grows past B*H_prev*m.

    @staticmethod
    def _pairs(prev_e: np.ndarray, E_e: np.ndarray) -> np.ndarray:
        return prev_e[:, :, None] * E_e[:, None, :]

    def forward(self, idx: np.ndarray) -> np.ndarray:
        E = self.embedding.lookup(idx)
        B, m, d = E.shape
        E_d = np.ascontiguousarray(E.transpose(2, 0, 1))  # (d, B, m)
        maps = [E_d]
        for k in range(self.spec.num_layers):
            W = self.store[f"cin.W{k}"]
            W2 = W.reshape(W.shape[0], -1)
            prev = maps[-1]
            nxt = np.empty((d, B, W.shape[0]))
            for e in range(d):
                np.matmul(self._pairs(prev[e], E_d[e]).reshape(B, -1), W2.T, out=nxt[e])
            maps.append(nxt)
        feats = np.concatenate([x.sum(axis=0) for x in maps[1:]], axis=1)
        self._cache = (np.asarray(idx), maps, feats)
        return self._head(feats)

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        idx, maps, feats = self._cache
        E_d = maps[0]
        d, B, m = E_d.shape
        grads, dfeat = self._head_backward(feats, dlogits)
        offsets = np.cumsum((0, *self.spec.layer_sizes))
        d_maps = [np.zeros_like(x) for x in maps]
        for k in range(self.spec.num_layers):
            d_maps[k + 1] += dfeat[:, offsets[k] : offsets[k + 1]]
        dE = d_maps[0]  # the embeddings are map 0
        for k in range(self.spec.num_layers - 1, -1, -1):
            W = self.store[f"cin.W{k}"]
            W2 = W.reshape(W.shape[0], -1)  # rows h, columns (i, j)
            prev = maps[k]
            dW2 = np.zeros_like(W2)
            for e in range(d):
                dn = d_maps[k + 1][e]
                dW2 += dn.T @ self._pairs(prev[e], E_d[e]).reshape(B, -1)
                dZ = (dn @ W2).reshape(B, -1, m)  # d(loss)/d(pair products)
                d_maps[k][e] += (dZ @ E_d[e][:, :, None])[:, :, 0]
                dE[e] += (prev[e][:, None, :] @ dZ)[:, 0, :]
            grads[f"cin.W{k}"] = dW2.reshape(W.shape)
        grads.update(self.embedding.grads(idx, dE.transpose(1, 2, 0)))
        return grads


# ---------------------------------------------------------------------------
# cross network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossNetSpec:
    """Full-matrix cross network over the flattened embedding vector
    (width ``m * d`` at every layer), linear head on the final state."""

    num_fields: int
    embed_dim: int
    num_layers: int = 3

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)
        check_int("num_layers", self.num_layers, 1)

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from embedding_layout(self, vocab_sizes)
        n = self.width
        for t in range(self.num_layers):
            yield f"cross.W{t}", (n, n), 1.0 / np.sqrt(n)
            yield f"cross.b{t}", (n,), np.zeros
        yield "head.w", (n,), 1.0 / np.sqrt(n)
        yield "head.b", (1,), np.zeros

    @property
    def width(self) -> int:
        return self.num_fields * self.embed_dim


class CrossNetModel(Model):
    kind = "crossnet"
    spec_type = CrossNetSpec

    def forward(self, idx: np.ndarray) -> np.ndarray:
        E = self.embedding.lookup(idx)
        x0 = E.reshape(len(E), -1)  # a copy: lookup's array is field-major
        xs = [x0]
        us = []
        for t in range(self.spec.num_layers):
            u = xs[-1] @ self.store[f"cross.W{t}"].T + self.store[f"cross.b{t}"]
            us.append(u)
            xs.append(x0 * u + xs[-1])
        self._cache = (np.asarray(idx), xs, us)
        return self._head(xs[-1])

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        idx, xs, us = self._cache
        x0 = xs[0]
        grads, dx = self._head_backward(xs[-1], dlogits)
        dx0 = np.zeros_like(x0)
        for t in range(self.spec.num_layers - 1, -1, -1):
            du = dx * x0
            dx0 += dx * us[t]
            grads[f"cross.b{t}"] = du.sum(axis=0)
            grads[f"cross.W{t}"] = du.T @ xs[t]
            dx = dx + du @ self.store[f"cross.W{t}"]
        dx0 += dx
        grads.update(self.embedding.grads(idx, dx0.reshape(len(dx0), self.num_fields, -1)))
        return grads


# ---------------------------------------------------------------------------
# shallow baselines
# ---------------------------------------------------------------------------

def _pairwise_layout(spec, vocab_sizes) -> Iterator[tuple]:
    """Embeddings, per-field linear weights and the bias of FwFM and FmFM."""
    yield from embedding_layout(spec, vocab_sizes)
    yield "linear.u", (spec.num_fields, spec.embed_dim), np.zeros
    yield "head.b", (1,), np.zeros


@dataclass(frozen=True)
class FwfmSpec:
    """Field-pair weight *vectors*: logit = bias + sum_i u_i . e_i
    + sum_{i<j} sum(w_ij * e_i * e_j)."""

    num_fields: int
    embed_dim: int

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from _pairwise_layout(self, vocab_sizes)
        m = self.num_fields
        yield "fwfm.w", (m * (m - 1) // 2, self.embed_dim), np.ones


@dataclass(frozen=True)
class FmfmSpec:
    """Field-pair weight *matrices*: pairwise term sum((e_i W_ij) * e_j)."""

    num_fields: int
    embed_dim: int

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from _pairwise_layout(self, vocab_sizes)
        m, d = self.num_fields, self.embed_dim
        yield "fmfm.W", (m * (m - 1) // 2, d, d), identity


class _PairwiseModel(Model):
    # The pair term is a bilinear form over each row's embeddings, laid out
    # by a PairGemm over the pairs i < j: FwFM one (m, m) block per embedding
    # dim (the GEMM of the student's ``inner`` combiner), FmFM one strictly
    # block-upper (m*d, m*d) matrix (the GEMM of ``kernel``). With X the
    # embeddings as (g, B, n) states, K the dense pair weights and the
    # linear weights u laid out like one row, a row's logit is
    # bias + sum(x * (x K + u)). Backward is dX = dlogits * (X (K + K^T) + u),
    # and the pair weights' gradient is one GEMM, X^T diag(dlogits) X, read
    # back at the pairs.

    weights = "?"  # store name of the pair weights
    per_dim = True  # one weight per pair and embedding dim (FwFM), else a d x d matrix

    def _setup(self) -> None:
        m = self.spec.num_fields
        self.pairs = upper_pairs(m)
        self._gemm = PairGemm(*np.triu_indices(m, 1), m, self.spec.embed_dim, self.per_dim)

    def forward(self, idx: np.ndarray) -> np.ndarray:
        g = self._gemm
        X = g.states(self.embedding.lookup(idx).transpose(1, 0, 2))  # from field-major (m, B, d)
        K = g.dense(self.store[self.weights])
        u = g.states(self.store["linear.u"][:, None, :])
        self._cache = (np.asarray(idx), X, K, u)
        return np.einsum("gbn,gbn->b", X, X @ K + u) + self.store["head.b"][0]

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        idx, X, K, u = self._cache
        g = self._gemm
        dlogits = np.asarray(dlogits, dtype=np.float64)
        gX = X * dlogits[:, None]  # X diag(dlogits), block by block
        grads = {
            self.weights: g.at_pairs(gX.transpose(0, 2, 1) @ X),
            "linear.u": g.fields(gX.sum(axis=1, keepdims=True))[:, 0],
            "head.b": np.array([dlogits.sum()]),
        }
        dX = gX @ (K + K.transpose(0, 2, 1)) + u * dlogits[:, None]
        grads.update(self.embedding.grads(idx, g.fields(dX).transpose(1, 0, 2)))
        return grads


class FwfmModel(_PairwiseModel):
    kind = "fwfm"
    spec_type = FwfmSpec
    weights = "fwfm.w"


class FmfmModel(_PairwiseModel):
    kind = "fmfm"
    spec_type = FmfmSpec
    weights = "fmfm.W"
    per_dim = False


@dataclass(frozen=True)
class TinyMlpSpec:
    """Fully connected net over the concatenated embeddings."""

    num_fields: int
    embed_dim: int
    hidden: tuple[int, ...] = (128, 128, 128)
    activation: str = "relu"

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)
        if not self.hidden:
            raise ConfigurationError("hidden must name at least one layer")
        for h in self.hidden:
            check_int("hidden width", h, 1)
        if self.activation not in ("relu", "tanh"):
            raise ConfigurationError(f"unknown activation {self.activation!r}")

    @property
    def widths(self) -> list[int]:
        return [self.num_fields * self.embed_dim, *self.hidden, 1]

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from embedding_layout(self, vocab_sizes)
        yield from mlp_layout(self.widths, self.activation, zero_final=False)


class TinyMlpModel(Model):
    kind = "tinymlp"
    spec_type = TinyMlpSpec

    def _setup(self) -> None:
        self.mlp = MlpTower(self.store, self.spec.widths, self.spec.activation)

    def forward(self, idx: np.ndarray) -> np.ndarray:
        E = self.embedding.lookup(idx)
        logits = self.mlp.forward(E.reshape(len(E), -1))
        self._cache = np.asarray(idx)
        return logits

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        idx = self._cache
        grads: dict[str, np.ndarray] = {}
        dx = self.mlp.backward(np.asarray(dlogits, dtype=np.float64), grads)
        grads.update(self.embedding.grads(idx, dx.reshape(len(dx), self.num_fields, -1)))
        return grads

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

from .interactions import (
    FlopCount, MlpTower, Model, PairGemm, embedding_layout, identity, mlp_flops, mlp_layout,
)
from .numcore import ConfigurationError, as_tuples, check_int


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
        object.__setattr__(self, "layer_sizes", as_tuples(self.layer_sizes))
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

    def flops(self) -> FlopCount:
        m, d = self.num_fields, self.embed_dim
        mults = adds = 0
        prev = m
        for h in self.layer_sizes:
            mults += 2 * d * h * prev * m
            adds += h * (prev * m - 1) * d  # double-sum reduction per output row
            adds += h * (d - 1)  # sum-pool the new feature map
            prev = h
        return FlopCount(mults, adds) + FlopCount(self.pooled_width, self.pooled_width - 1)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def pooled_width(self) -> int:
        return sum(self.layer_sizes)


#: Elements in the largest intermediate of one CIN row tile (16 MiB of
#: float64): the product of a layer's weights with one of its inputs, or the
#: pair products of its two inputs, over the tile's (batch row, embedding dim)
#: rows. At d=16 a tile holds 256 flat rows of the paper's CIN(200, 200, 200)
#: at m=39, as many rows as each of the GEMMs that accumulate its weight
#: gradients needs to amortise that sum. CIN(4, 4) at m=8 would take 4096
#: batch rows in one tile, so its forwards, which training and scoring cut to
#: ``distill.TRAIN_ROWS`` and ``distill.SCORE_ROWS`` rows, are never tiled
#: again here.
CIN_TILE_ELEMENTS = 1 << 21


class CinModel(Model):
    kind = "cin"
    spec_type = CinSpec

    # Layer k is the trilinear form x[h, r] = sum_{i,j} W[h, i, j] a[i, r] b[j, r]
    # over flat rows r = (batch row, embedding dim): a is the previous map
    # (H_prev features), b the embeddings (m features). Rows run in tiles of
    # whole batch rows; in a tile each map is one feature-major (H, r) block,
    # and every product with W is one GEMM over all the tile's rows. W is
    # contracted first with u, the wider of a and b, into S[h, v, r]; the
    # narrower, v, then contracts S: x = sum_v S * v. Backward recomputes what
    # it needs per tile, so nothing wider than a map outlives the forward.
    #   narrow layer (H < max(H_prev, m)): dv = sum_h S * g, and with the
    #     products O = g (x) v, dW = u O^T and du = W O, all (H*V, r) blocks.
    #   wide layer: the pair products Z = a (x) b give dW = g Z^T, and
    #     dZ = W^T g gives da = sum_j dZ * b and db = sum_i dZ * a: one GEMM
    #     fewer, over (H_prev*m, r) blocks no wider than S.
    # GEMMs bound a wide layer's time, so it lays S, Z and dZ out rows-outer,
    # the order in which those GEMMs run fastest; a narrow layer is bound by
    # memory traffic, which the rows-inner order keeps contiguous.

    def _layers(self) -> list[tuple]:
        """Per layer: W, whether u is the previous map, and whether the layer
        is wide."""
        m = self.spec.num_fields
        layers = []
        for k in range(self.spec.num_layers):
            W = self.store[f"cin.W{k}"]
            H, H_prev = W.shape[:2]
            layers.append((W, H_prev >= m, H >= max(H_prev, m)))
        return layers

    @staticmethod
    def _w_u(W: np.ndarray, prev_first: bool) -> np.ndarray:
        """W as the (U, H*V) GEMM operand of u."""
        W_uv = W if prev_first else W.transpose(0, 2, 1)
        return W_uv.transpose(1, 0, 2).reshape(W_uv.shape[1], -1)

    def _tiles(self, B: int) -> list[slice]:
        """Batch-row slices whose S stays within CIN_TILE_ELEMENTS (one row
        at least)."""
        m, d = self.spec.num_fields, self.spec.embed_dim
        widths = (m, *self.spec.layer_sizes)
        widest = max(h * min(h_prev, m) for h_prev, h in zip(widths, widths[1:]))
        rows = max(1, CIN_TILE_ELEMENTS // (widest * d))
        return [slice(a, min(a + rows, B)) for a in range(0, B, rows)]

    def forward(self, idx: np.ndarray) -> np.ndarray:
        emb = self.embedding.lookup(idx).transpose(1, 0, 2)  # field-major (m, B, d)
        m, B, d = emb.shape
        layers = [(W, self._w_u(W, prev_first), prev_first, wide) for W, prev_first, wide in self._layers()]
        feats = np.empty((B, self.spec.pooled_width))
        tape = []
        for rows in self._tiles(B):
            E = emb[:, rows].reshape(m, -1)
            r = E.shape[1]
            maps = [E]
            col = 0
            for W, Wu, prev_first, wide in layers:
                u, v = (maps[-1], E) if prev_first else (E, maps[-1])
                x = np.empty((len(W), r))
                if wide:
                    np.einsum("rhv,rv->hr", (u.T @ Wu).reshape(r, len(W), -1), v.T.copy(), out=x)
                else:
                    np.einsum("hvr,vr->hr", (Wu.T @ u).reshape(len(W), -1, r), v, out=x)
                maps.append(x)
                feats[rows, col : col + len(x)] = x.reshape(len(x), -1, d).sum(axis=2).T
                col += len(x)
            tape.append(maps)
        self._cache = (np.asarray(idx), tape, feats)
        return self._head(feats)

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        idx, tape, feats = self._cache
        m, d = self.spec.num_fields, self.spec.embed_dim
        grads, dfeat = self._head_backward(feats, dlogits)
        layers = [(W, None if wide else self._w_u(W, prev_first), prev_first, wide)
                  for W, prev_first, wide in self._layers()]
        dWs = [np.zeros(W.shape if wide else Wu.shape) for W, Wu, _, wide in layers]
        offsets = np.cumsum((0, *self.spec.layer_sizes))
        dE_all = np.empty((m, len(feats), d))
        for rows, maps in zip(self._tiles(len(feats)), tape):
            E = maps[0]
            r = E.shape[1]
            ET = E.T.copy()  # rows-outer, as a wide layer's Z and dZ
            dE = np.zeros_like(E)
            # pooling sums each row's d embedding dims, so its gradient repeats
            g = np.repeat(dfeat[rows, offsets[-2] :].T, d, axis=1)
            for k in range(len(layers) - 1, -1, -1):
                W, Wu, prev_first, wide = layers[k]
                prev = maps[k]
                dprev = np.repeat(dfeat[rows, offsets[k - 1] : offsets[k]].T, d, axis=1) if k else dE
                if wide:
                    prevT = prev.T.copy()
                    Z = (prevT[:, :, None] * ET[:, None, :]).reshape(r, -1)
                    dWs[k] += (g @ Z).reshape(W.shape)
                    del Z  # so that Z and dZ never coexist
                    dZ = (g.T @ W.reshape(len(W), -1)).reshape(r, len(prev), m)
                    dprev += np.einsum("rij,rj->ir", dZ, ET)
                    dE += np.einsum("rij,ri->jr", dZ, prevT)
                else:
                    (u, du), (v, dv) = ((prev, dprev), (E, dE)) if prev_first else ((E, dE), (prev, dprev))
                    dv += np.einsum("hvr,hr->vr", (Wu.T @ u).reshape(len(W), len(v), r), g)
                    O = (g[:, None, :] * v[None]).reshape(-1, r)
                    dWs[k] += u @ O.T
                    du += Wu @ O
                g = dprev
            dE_all[:, rows] = dE.reshape(m, -1, d)
        for k, (W, Wu, prev_first, wide) in enumerate(layers):
            dW = dWs[k]
            if not wide:  # (U, H*V) back to (H, H_prev, m)
                dW = dW.reshape(len(Wu), len(W), -1).transpose(1, 0, 2)
                dW = dW if prev_first else dW.transpose(0, 2, 1)
            grads[f"cin.W{k}"] = dW
        grads.update(self.embedding.grads(idx, dE_all.transpose(1, 0, 2)))
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

    def flops(self) -> FlopCount:
        n, L = self.width, self.num_layers
        # per layer n^2 + n mults (matvec, elementwise) and adds (bias, residual), then the head
        return FlopCount(L * (n * n + n), L * (n * n + n)) + FlopCount(n, n - 1)

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

@dataclass(frozen=True)
class _PairwiseSpec:
    """What FwFM and FmFM share: logit = bias + sum_i u_i . e_i + one weighted
    term per field pair i < j. A subclass adds its pair weights to the layout
    and declares one pair term's cost."""

    num_fields: int
    embed_dim: int

    def __post_init__(self):
        check_int("num_fields", self.num_fields, 2)
        check_int("embed_dim", self.embed_dim, 1)

    @property
    def num_pairs(self) -> int:
        m = self.num_fields
        return m * (m - 1) // 2

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        """Embeddings, per-field linear weights and the bias."""
        yield from embedding_layout(self, vocab_sizes)
        yield "linear.u", (self.num_fields, self.embed_dim), np.zeros
        yield "head.b", (1,), np.zeros

    def flops(self) -> FlopCount:
        pm, pa = self._pair_cost()  # one pair term and its addition into the sum
        n = self.num_fields * self.embed_dim  # the linear term, and its addition
        return FlopCount(self.num_pairs * pm + n, self.num_pairs * pa + n - 1)


class FwfmSpec(_PairwiseSpec):
    """Field-pair weight *vectors*: pairwise term sum(w_ij * e_i * e_j)."""

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from super().layout(vocab_sizes)
        yield "fwfm.w", (self.num_pairs, self.embed_dim), np.ones

    def _pair_cost(self) -> tuple[int, int]:
        d = self.embed_dim
        return 2 * d, d


class FmfmSpec(_PairwiseSpec):
    """Field-pair weight *matrices*: pairwise term sum((e_i W_ij) * e_j)."""

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from super().layout(vocab_sizes)
        d = self.embed_dim
        yield "fmfm.W", (self.num_pairs, d, d), identity

    def _pair_cost(self) -> tuple[int, int]:
        d = self.embed_dim
        return d * d + d, d * d


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
        K = self._layout(self.weights, g.dense)
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
        object.__setattr__(self, "hidden", as_tuples(self.hidden))
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

    def flops(self) -> FlopCount:
        return mlp_flops(self.widths)


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

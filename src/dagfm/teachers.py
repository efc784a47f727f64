"""Explicit-interaction teacher networks and shallow comparison baselines.

Teachers are the networks the student is distilled from: a compressed
interaction network (CIN) that crosses each layer's feature map with the
raw embeddings, and a full-matrix cross network whose layers compute
``x_{t+1} = x_0 * (W_t x_t + b_t) + x_t``. The baselines (FwFM, FmFM,
tiny MLP) are lightweight students used for comparison only.

All models share the :class:`~dagfm.interactions.Model` surface: embeddings
in a ParamStore, ``forward(idx) -> logits`` and ``backward(dlogits) ->
grads`` with hand-derived gradients, and ``score(idx) -> logits``, which
keeps no tape. Each family here is only the pure core under it:
``_forward(rows, keep) -> (logits, tape)`` over the table rows that
``Model.forward`` or ``Model.score`` checked, the tape ``None`` unless
``keep``, and ``_backward(tape, dlogits) -> (grads, d_emb)``, whose
``d_emb`` ``Model.backward`` scatters into the table. A tape holds only
what the forward computed from the batch: FwFM's and FmFM's is their GEMM
states, and their weights, like CIN's, are laid out by ``Model._layout``,
where backward reads them back. A backward consumes its tape: the cross
network's drops each layer's activations, and CIN's each row tile's maps.

CIN reads the embeddings field-major (``EmbeddingTable.lookup``); the cross
network, FwFM, FmFM and the tiny MLP read them batch-major
(``EmbeddingTable.gather``). The cross network, FmFM and the tiny MLP take
their (B, m*d) input as a view of the gather and return a batch-major
``d_emb``, which ``EmbeddingTable.grads`` scatters without a copy; FwFM
copies its states dim-major. The cross network spends its time in its
GEMMs: each layer adds its bias into the GEMM's output and forms
``x0 * u + x_t`` in place, in the GEMM's output itself when no tape keeps
``u``, and backward starts ``dx0`` from its first term, reuses one scratch
array for ``dx * u_t`` and adds ``dx`` into the ``du @ W`` product in
place. Logits and gradients are bitwise those of the plain arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .interactions import (
    FlopCount, MlpTower, Model, PairGemm, check_mlp, check_widths, embedding_layout, identity,
    mlp_bound, mlp_flops, mlp_layout,
)
from .numcore import check_int


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
        object.__setattr__(self, "layer_sizes", check_widths("layer_sizes", self.layer_sizes))

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

    def logit_bound(self, scales: dict[str, float]) -> float:
        """See :meth:`~dagfm.interactions.DagfmSpec.logit_bound`."""
        m, d, e = self.num_fields, self.embed_dim, scales["emb"]
        x, prev, pooled = e, m, 0.0
        for k, h in enumerate(self.layer_sizes):
            x = prev * m * scales[f"cin.W{k}"] * x * e  # each entry of map k
            pooled += h * d * x
            prev = h
        return scales["head.w"] * pooled + scales["head.b"]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def pooled_width(self) -> int:
        return sum(self.layer_sizes)


#: Elements of the largest intermediate of one CIN row tile (512 KiB of
#: float64, an L2's share). The layers before the last are bound by memory
#: traffic where they form products elementwise: a narrow layer's S and O, a
#: wide one's pair products Z and their gradient dZ, per batch row d times
#: the product of the two narrowest of H_prev, H and m. A tile takes no more
#: batch rows than keep those within this: CIN(4, 4) at m=8 and d=16 takes
#: 128 rows, CIN(16, 16, 16) 32.
CIN_CACHE_ELEMENTS = 1 << 16
#: Flat (batch row, embedding dim) rows that a tile holds at least: the
#: GEMMs that accumulate a layer's weight gradients sum over a tile's rows,
#: and need this many to amortise that sum. At d=16 it is 16 batch rows,
#: whose intermediates in the paper's CIN(200, 200, 200) at m=39 are 16 MiB.
CIN_GEMM_ROWS = 256
#: Batch rows that a tile holds at most. The pooled last layer's GEMMs sum
#: over batch rows and are amortised by this many; more only grows the
#: tile's arrays. One-layer stacks and wide, shallow ones (CIN(200, 200) at
#: m=8, d=4) take it.
CIN_TILE_ROWS = 256


class CinModel(Model):
    kind = "cin"
    spec_type = CinSpec

    # Layer k is the trilinear form x[h, r] = sum_{i,j} W[h, i, j] a[i, r] b[j, r]
    # over flat rows r = (batch row, embedding dim): a is the previous map
    # (H_prev features), b the embeddings (m features). Rows run in tiles of
    # whole batch rows; in a tile each map is one feature-major (H, r) block,
    # sum-pooled by one GEMV with ones(d).
    # The last map feeds only the sum-pool, so the last layer pools before
    # its weights: per batch row t, G[t, i, j] = sum_e a[i, (t, e)] b[j, (t, e)]
    # is one (H_prev, d) x (d, m) product, and the pooled values are
    # G @ W^T, one (T, H_prev*m) x (H_prev*m, H) GEMM: d times fewer
    # products with W than forming the map. With gp the pooled values'
    # gradient, dW = gp^T G, dG = gp W, da = dG b and db = dG^T a; when it
    # is the only layer, a = b = E and dE = (dG + dG^T) E.
    # Each earlier layer forms its map with one GEMM with W over all the
    # tile's flat rows: W is contracted first with u, the wider of a and b,
    # into S[h, v, r]; the narrower, v, then contracts S: x = sum_v S * v.
    # The tape, with keep, holds each tile's maps but the last, and G;
    # backward recomputes the rest per tile and drops each tile's part of
    # the tape once it has run it. Without keep a tile's maps go when the
    # next tile starts.
    #   narrow layer (H < max(H_prev, m)): dv = sum_h S * g, and with the
    #     products O = g (x) v, dW = u O^T and du = W O, all (H*V, r) blocks.
    #   symmetric layer, a narrow first one (a wide first layer runs as any
    #     wide layer): it reads the embeddings twice,
    #     x[h] = sum_{i,j} W[h, i, j] e_i e_j, so it depends on W only through
    #     Ws = W + W^T (transposed in i, j), and du and dv are one gradient:
    #     dE = Ws O, one GEMM, with no S and no dv.
    #   wide layer: the pair products Z = a (x) b give dW = g Z^T, and
    #     dZ = W^T g gives da = sum_j dZ * b and db = sum_i dZ * a: one GEMM
    #     fewer, over (H_prev*m, r) blocks no wider than S.
    # GEMMs bound a wide layer's time, so it lays S, Z and dZ out rows-outer,
    # the order in which those GEMMs run fastest; a narrow layer is bound by
    # memory traffic, which the rows-inner order keeps contiguous.

    def _setup(self) -> None:
        """Per layer before the last, whether u is the previous map, and its
        kind ("wide", "narrow", or "symmetric" for a narrow first layer);
        and a tile's batch rows: CIN_TILE_ROWS, fewer where an earlier
        layer's elementwise products would outgrow CIN_CACHE_ELEMENTS, but
        never fewer than CIN_GEMM_ROWS flat rows."""
        m, d = self.spec.num_fields, self.spec.embed_dim
        widths = (m, *self.spec.layer_sizes)
        shapes = list(zip(widths[:-2], widths[1:-1]))  # (H_prev, H) per layer before the last
        self._kinds = tuple(
            (h_prev >= m, "wide" if h >= max(h_prev, m) else "narrow" if k else "symmetric")
            for k, (h_prev, h) in enumerate(shapes)
        )
        # per batch row and layer before the last: its S and O, or its Z and dZ
        per_row = [d * math.prod(sorted((h_prev, h, m))[:2]) for h_prev, h in shapes]
        self._tile_rows = max(min([CIN_TILE_ROWS, *(CIN_CACHE_ELEMENTS // n for n in per_row)]),
                              -(-CIN_GEMM_ROWS // d))

    def _lay_out(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Per layer before the last, W as the (U, H*V) GEMM operand of u;
        and the last layer's W as (H, H_prev*m)."""
        *first, last = (self.store[f"cin.W{k}"] for k in range(self.spec.num_layers))
        Wus = [self._w_u(W, prev_first) for W, (prev_first, _) in zip(first, self._kinds)]
        return Wus, last.reshape(len(last), -1)

    @staticmethod
    def _w_u(W: np.ndarray, prev_first: bool) -> np.ndarray:
        """W as the (U, H*V) GEMM operand of u."""
        W_uv = W if prev_first else W.transpose(0, 2, 1)
        return W_uv.transpose(1, 0, 2).reshape(W_uv.shape[1], -1)

    def _tiles(self, B: int) -> list[slice]:  # batch-row slices of _tile_rows rows
        return [slice(a, min(a + self._tile_rows, B)) for a in range(0, B, self._tile_rows)]

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        emb = self.embedding.lookup(rows).transpose(1, 0, 2)  # field-major (m, B, d)
        m, B, d = emb.shape
        Wus, W_last = self._layout()
        ones = np.ones(d)
        feats = np.empty((B, self.spec.pooled_width))
        tiles = []
        for tile in self._tiles(B):
            E = emb[:, tile].reshape(m, -1)
            r = E.shape[1]
            maps = [E]
            col = 0
            for Wu, (prev_first, kind), h in zip(Wus, self._kinds, self.spec.layer_sizes):
                u, v = (maps[-1], E) if prev_first else (E, maps[-1])
                x = np.empty((h, r))
                if kind == "wide":
                    np.einsum("rhv,rv->hr", (u.T @ Wu).reshape(r, h, -1), v.T.copy(), out=x)
                else:
                    np.einsum("hvr,vr->hr", (Wu.T @ u).reshape(h, -1, r), v, out=x)
                maps.append(x)
                feats[tile, col : col + len(x)] = (x.reshape(-1, d) @ ones).reshape(len(x), -1).T
                col += len(x)
            G = _rows(maps[-1], d) @ _rows(E, d).transpose(0, 2, 1)  # (T, H_prev, m)
            feats[tile, col:] = G.reshape(len(G), -1) @ W_last.T
            if keep:
                tiles.append((maps, G))
        return self._head(feats), (tiles, feats) if keep else None

    def _backward(self, tape, dlogits: np.ndarray) -> tuple[dict, np.ndarray]:
        tiles, feats = tape
        m, d = self.spec.num_fields, self.spec.embed_dim
        grads, dfeat = self._head_backward(feats, dlogits)
        Wus, W_last = self._layout()
        weights = (self.store[f"cin.W{k}"] for k in range(len(Wus)))
        # a symmetric layer reads W only as Ws = W + W^T, a backward temporary
        layers = [(W, self._w_u(W + W.transpose(0, 2, 1), True) if kind == "symmetric" else Wu,
                   prev_first, kind)
                  for W, Wu, (prev_first, kind) in zip(weights, Wus, self._kinds)]
        dWs = [np.zeros(W.shape if kind == "wide" else Wu.shape) for W, Wu, _, kind in layers]
        dW_last = np.zeros_like(W_last)
        offsets = np.cumsum((0, *self.spec.layer_sizes))
        dE_all = np.empty((m, len(feats), d))
        any_wide = any(kind == "wide" for *_, kind in layers)
        for rows in self._tiles(len(feats)):
            maps, G = tiles.pop(0)  # each tile goes once it is read
            E = maps[0]
            r = E.shape[1]
            ET = E.T.copy() if any_wide else None  # rows-outer, as a wide layer's Z and dZ
            # the pooled last layer: its map's gradient is never formed
            k = len(layers)
            prev = maps[k]
            gp = dfeat[rows, offsets[k] :]
            dW_last += gp.T @ G.reshape(len(G), -1)
            dG = (gp @ W_last).reshape(G.shape)
            dE = np.empty_like(E)
            if k:  # db = dG^T a, da = dG b plus the previous map's share of the pool
                np.matmul(dG.transpose(0, 2, 1), _rows(prev, d), out=_rows(dE, d))
                g = np.empty_like(prev)
                np.matmul(dG, _rows(E, d), out=_rows(g, d))
                g.reshape(len(prev), -1, d)[...] += dfeat[rows, offsets[k - 1] : offsets[k]].T[:, :, None]
            else:  # one layer: a = b = E
                np.matmul(dG + dG.transpose(0, 2, 1), _rows(E, d), out=_rows(dE, d))
            for k in range(len(layers) - 1, -1, -1):
                W, Wu, prev_first, kind = layers[k]
                prev = maps[k]
                dprev = np.repeat(dfeat[rows, offsets[k - 1] : offsets[k]].T, d, axis=1) if k else dE
                if kind == "wide":
                    prevT = prev.T.copy()
                    Z = (prevT[:, :, None] * ET[:, None, :]).reshape(r, -1)
                    dWs[k] += (g @ Z).reshape(W.shape)
                    del Z  # so that Z and dZ never coexist
                    dZ = (g.T @ W.reshape(len(W), -1)).reshape(r, len(prev), m)
                    dprev += np.einsum("rij,rj->ir", dZ, ET)
                    dE += np.einsum("rij,ri->jr", dZ, prevT)
                else:
                    (u, du), (v, dv) = ((prev, dprev), (E, dE)) if prev_first else ((E, dE), (prev, dprev))
                    if kind == "narrow":  # a symmetric layer's Wu carries dv's share
                        dv += np.einsum("hvr,hr->vr", (Wu.T @ u).reshape(len(W), len(v), r), g)
                    O = (g[:, None, :] * v[None]).reshape(-1, r)
                    dWs[k] += u @ O.T
                    du += Wu @ O
                g = dprev
            dE_all[:, rows] = dE.reshape(m, -1, d)
        for k, (W, Wu, prev_first, kind) in enumerate(layers):
            dW = dWs[k]
            if kind != "wide":  # (U, H*V) back to (H, H_prev, m)
                dW = dW.reshape(len(Wu), len(W), -1).transpose(1, 0, 2)
                dW = dW if prev_first else dW.transpose(0, 2, 1)
            grads[f"cin.W{k}"] = dW
        grads[f"cin.W{len(layers)}"] = dW_last.reshape(len(W_last), -1, m)
        return grads, dE_all.transpose(1, 0, 2)


def _rows(x: np.ndarray, d: int) -> np.ndarray:
    """A feature-major (H, T*d) tile block as the (T, H, d) view of its
    batch rows."""
    return x.reshape(len(x), -1, d).transpose(1, 0, 2)


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

    def logit_bound(self, scales: dict[str, float]) -> float:
        """See :meth:`~dagfm.interactions.DagfmSpec.logit_bound`."""
        n, e = self.width, scales["emb"]
        x = e
        for t in range(self.num_layers):
            x = e * (n * scales[f"cross.W{t}"] * x + scales[f"cross.b{t}"]) + x
        return n * scales["head.w"] * x + scales["head.b"]

    @property
    def width(self) -> int:
        return self.num_fields * self.embed_dim


class CrossNetModel(Model):
    kind = "crossnet"
    spec_type = CrossNetSpec

    # Layer t is u_t = x_t W_t^T + b_t and x_{t+1} = x0 * u_t + x_t. With dx
    # the gradient of x_{t+1}: du = dx * x0, dW_t = du^T x_t, db_t = sum(du)
    # and dx_t = du W_t + dx; dx0 sums dx * u_t over the layers, plus dx_0.
    # With no tape, u_t's own array becomes x_{t+1}: the same products and
    # sums, so bitwise the same values.

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        E = self.embedding.gather(rows)
        x = x0 = E.reshape(len(E), self.spec.width)
        xs, us = [x0], []
        for t in range(self.spec.num_layers):
            u = x @ self.store[f"cross.W{t}"].T
            u += self.store[f"cross.b{t}"]
            if keep:
                us.append(u)
                u = x0 * u
            else:
                u *= x0
            u += x
            x = u
            if keep:
                xs.append(x)
        return self._head(x), (xs, us) if keep else None

    def _backward(self, tape, dlogits: np.ndarray) -> tuple[dict, np.ndarray]:
        xs, us = tape  # each layer's x_t and u_t go once they are read
        x0 = xs[0]
        grads, dx = self._head_backward(xs.pop(), dlogits)
        last = self.spec.num_layers - 1
        for t in range(last, -1, -1):
            u, x = us.pop(), xs.pop()
            du = dx * x0
            if t == last:
                dx0, scratch = dx * u, np.empty_like(x0)
            else:
                dx0 += np.multiply(dx, u, out=scratch)
            grads[f"cross.b{t}"] = du.sum(axis=0)
            grads[f"cross.W{t}"] = du.T @ x
            del u, x
            dx_prev = du @ self.store[f"cross.W{t}"]
            dx_prev += dx
            dx = dx_prev
        dx0 += dx
        return grads, dx0.reshape(len(dx0), self.num_fields, self.embed_dim)


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

    def logit_bound(self, scales: dict[str, float]) -> float:
        """See :meth:`~dagfm.interactions.DagfmSpec.logit_bound`."""
        m, d, e = self.num_fields, self.embed_dim, scales["emb"]
        name, terms = self._pair_terms()  # each pair term sums `terms` weighted products
        return self.num_pairs * terms * scales[name] * e * e \
            + m * d * scales["linear.u"] * e + scales["head.b"]


class FwfmSpec(_PairwiseSpec):
    """Field-pair weight *vectors*: pairwise term sum(w_ij * e_i * e_j)."""

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from super().layout(vocab_sizes)
        yield "fwfm.w", (self.num_pairs, self.embed_dim), np.ones

    def _pair_cost(self) -> tuple[int, int]:
        d = self.embed_dim
        return 2 * d, d

    def _pair_terms(self) -> tuple[str, int]:
        return "fwfm.w", self.embed_dim


class FmfmSpec(_PairwiseSpec):
    """Field-pair weight *matrices*: pairwise term sum((e_i W_ij) * e_j)."""

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from super().layout(vocab_sizes)
        d = self.embed_dim
        yield "fmfm.W", (self.num_pairs, d, d), identity

    def _pair_cost(self) -> tuple[int, int]:
        d = self.embed_dim
        return d * d + d, d * d

    def _pair_terms(self) -> tuple[str, int]:
        return "fmfm.W", self.embed_dim ** 2


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

    def _lay_out(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense pair weights K, and the linear weights u as one row."""
        g = self._gemm
        return g.dense(self.store[self.weights]), g.states(self.store["linear.u"][:, None, :])

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, np.ndarray | None]:
        # FmFM's batch-major states are a view of the gather, FwFM's dim-major
        # ones a copy
        X = self._gemm.states(self.embedding.gather(rows).transpose(1, 0, 2))
        K, u = self._layout()
        logits = np.einsum("gbn,gbn->b", X, X @ K + u) + self.store["head.b"][0]
        return logits, X if keep else None

    def _backward(self, X, dlogits: np.ndarray) -> tuple[dict, np.ndarray]:
        K, u = self._layout()
        g = self._gemm
        gX = X * dlogits[:, None]  # X diag(dlogits), block by block
        grads = {
            self.weights: g.at_pairs(gX.transpose(0, 2, 1) @ X),
            "linear.u": g.fields(gX.sum(axis=1, keepdims=True))[:, 0],
            "head.b": np.array([dlogits.sum()]),
        }
        dX = gX @ (K + K.transpose(0, 2, 1)) + u * dlogits[:, None]
        return grads, g.fields(dX).transpose(1, 0, 2)


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
        object.__setattr__(self, "hidden", check_mlp("hidden", self.hidden, self.activation))

    @property
    def widths(self) -> list[int]:
        return [self.num_fields * self.embed_dim, *self.hidden, 1]

    def layout(self, vocab_sizes) -> Iterator[tuple]:
        yield from embedding_layout(self, vocab_sizes)
        yield from mlp_layout(self.widths, self.activation, zero_final=False)

    def flops(self) -> FlopCount:
        return mlp_flops(self.widths)

    def logit_bound(self, scales: dict[str, float]) -> float:
        """See :meth:`~dagfm.interactions.DagfmSpec.logit_bound`."""
        return mlp_bound(self.widths, scales, self.num_fields * self.embed_dim * scales["emb"])


class TinyMlpModel(Model):
    kind = "tinymlp"
    spec_type = TinyMlpSpec

    def _setup(self) -> None:
        self.mlp = MlpTower(self.store, self.spec.widths, self.spec.activation)

    def _forward(self, rows: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        E = self.embedding.gather(rows)
        x = E.reshape(len(E), self.num_fields * self.embed_dim)  # a view
        logits, tower = self.mlp.forward(x, keep)
        return logits, (x, tower) if keep else None

    def _backward(self, tape, dlogits: np.ndarray) -> tuple[dict, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        dx = self.mlp.backward(*tape, dlogits, grads)
        return grads, dx.reshape(len(dx), self.num_fields, self.embed_dim)

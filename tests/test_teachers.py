"""Teacher networks (CIN, CrossNet) and shallow baselines (FwFM, FmFM, MLP)."""

import tracemalloc

import numpy as np
import pytest

from dagfm.distill import TRAIN_ROWS
from dagfm.numcore import ConfigurationError
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
    upper_pairs,
)

from conftest import (
    assert_same_bits,
    field_major_row_grads,
    field_rows,
    grad_error,
    perturb_params,
    squared_logit_closure,
)


def pin_embeddings(model, rows) -> None:
    """Overwrite row 0 of every field's rows (use with all-zero indices)."""
    emb = model.store["emb"].copy()
    for i, row in enumerate(rows):
        emb[sum(model.vocab_sizes[:i])] = row
    model.store.set("emb", emb)


def one_row(m: int) -> np.ndarray:
    return np.zeros((1, m), dtype=np.int64)


# ---------------------------------------------------------------------------
# helper
# ---------------------------------------------------------------------------


def test_upper_pairs_order():
    assert upper_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert upper_pairs(2) == ((0, 1),)
    assert len(upper_pairs(8)) == 28


# ---------------------------------------------------------------------------
# CIN
# ---------------------------------------------------------------------------


class TestCin:
    def test_single_layer_all_ones_example(self):
        # two scalar fields [1] and [2], one output row of all-ones weights:
        # sum over ordered pairs of products = (1+2)^2 = 9
        model = CinModel(CinSpec(2, 1, (1,)), [1, 1], seed=0)
        pin_embeddings(model, [[1.0], [2.0]])
        model.store.set("cin.W0", np.ones((1, 2, 2)))
        model.store.set("head.w", np.ones(1))
        logits = model.forward(one_row(2))
        assert logits.shape == (1,)
        assert logits[0] == pytest.approx(9.0, abs=1e-12)

    def test_zero_weights_leave_only_head_bias(self):
        model = CinModel(CinSpec(3, 2, (4, 3)), [5, 5, 5], seed=1)
        for k in range(2):
            model.store.set(f"cin.W{k}", np.zeros_like(model.store[f"cin.W{k}"]))
        model.store.set("head.b", np.array([0.37]))
        idx = np.random.default_rng(0).integers(0, 5, size=(6, 3))
        assert np.array_equal(model.forward(idx), np.full(6, 0.37))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_all_ones_single_row_is_full_pairwise_sum(self, m, rng):
        # one output row with all-ones weights pools to
        # sum_e (sum_i E[i,e])^2 == sum over all ordered field pairs of
        # the coordinate-wise products
        d = int(rng.integers(1, 4))
        model = CinModel(CinSpec(m, d, (1,)), [3] * m, seed=2)
        model.store.set("cin.W0", np.ones((1, m, m)))
        model.store.set("head.w", np.ones(1))
        idx = rng.integers(0, 3, size=(5, m))
        E = np.stack(
            [
                np.stack([field_rows(model, i)[idx[b, i]] for i in range(m)])
                for b in range(5)
            ]
        )
        expected = (E.sum(axis=1) ** 2).sum(axis=1)
        assert np.allclose(model.forward(idx), expected, rtol=1e-12)

    def test_parameter_shapes_and_pooled_width(self):
        spec = CinSpec(4, 3, (5, 2))
        assert spec.pooled_width == 7
        model = CinModel(spec, [2, 2, 2, 2], seed=0)
        assert model.store["cin.W0"].shape == (5, 4, 4)
        assert model.store["cin.W1"].shape == (2, 5, 4)
        assert model.store["head.w"].shape == (7,)

    def test_batch_matches_row_by_row(self, rng):
        model = CinModel(CinSpec(3, 2, (3, 2)), [4, 4, 4], seed=3)
        idx = rng.integers(0, 4, size=(6, 3))
        batch = model.forward(idx)
        rows = np.concatenate([model.forward(idx[b : b + 1]) for b in range(6)])
        assert np.allclose(batch, rows, rtol=1e-13)

    def test_gradients(self, rng):
        model = CinModel(CinSpec(3, 2, (2, 2)), [3, 3, 3], seed=4)
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(4, 3))
        targets = rng.normal(size=4)
        err = grad_error(squared_logit_closure(model, idx, targets), model, rng)
        assert err < 1e-5

    @staticmethod
    def naive_logits(model, idx):
        """CIN by its defining triple sum, one (h, i, j) term at a time."""
        E = model.embedding.lookup(model.embedding.table_rows(idx))
        maps, feats = [E], []
        for k in range(model.spec.num_layers):
            W, prev = model.store[f"cin.W{k}"], maps[-1]
            nxt = np.zeros((len(idx), W.shape[0], E.shape[2]))
            for h in range(W.shape[0]):
                for i in range(W.shape[1]):
                    for j in range(W.shape[2]):
                        nxt[:, h] += W[h, i, j] * prev[:, i] * E[:, j]
            maps.append(nxt)
            feats.append(nxt.sum(axis=2))
        return np.concatenate(feats, axis=1) @ model.store["head.w"] + model.store["head.b"][0]

    def test_matches_triple_sum_reference(self, rng):
        model = CinModel(CinSpec(9, 4, (7, 5)), [5] * 9, seed=6)
        perturb_params(model, rng)
        idx = rng.integers(0, 5, size=(6, 9))
        np.testing.assert_allclose(
            model.forward(idx), self.naive_logits(model, idx), rtol=1e-12, atol=1e-12
        )

    def test_gradients_at_reference_size(self, rng):
        model = CinModel(CinSpec(9, 4, (7, 5)), [5] * 9, seed=6)
        perturb_params(model, rng)
        idx = rng.integers(0, 5, size=(6, 9))
        targets = rng.normal(size=6)
        err = grad_error(squared_logit_closure(model, idx, targets), model, rng)
        assert err < 1e-4

    @staticmethod
    def per_dim_step(model, idx, dlogits):
        """Logits and gradients of CIN as one GEMM per embedding dim e over
        the pair products Z_e[b, i*m + j] = x[b, i, e] * E[b, j, e], the
        formulation the row tiles replaced."""
        E = model.embedding.lookup(model.embedding.table_rows(idx))
        B, m, d = E.shape
        E_d = np.ascontiguousarray(E.transpose(2, 0, 1))  # (d, B, m)
        Ws = [model.store[f"cin.W{k}"].reshape(len(model.store[f"cin.W{k}"]), -1)
              for k in range(model.spec.num_layers)]

        def pairs(prev_e, e):
            return (prev_e[:, :, None] * E_d[e][:, None, :]).reshape(B, prev_e.shape[1] * m)

        maps = [E_d]
        for W2 in Ws:
            maps.append(np.stack([pairs(maps[-1][e], e) @ W2.T for e in range(d)]))
        feats = np.concatenate([x.sum(axis=0) for x in maps[1:]], axis=1)
        logits = feats @ model.store["head.w"] + model.store["head.b"][0]
        grads = {"head.w": feats.T @ dlogits, "head.b": np.array([dlogits.sum()])}
        dfeat = dlogits[:, None] * model.store["head.w"][None, :]
        offsets = np.cumsum((0, *model.spec.layer_sizes))
        d_maps = [np.zeros_like(x) for x in maps]
        for k in range(len(Ws)):
            d_maps[k + 1] += dfeat[:, offsets[k] : offsets[k + 1]]
        for k in range(len(Ws) - 1, -1, -1):
            W2, prev = Ws[k], maps[k]
            dW2 = np.zeros_like(W2)
            for e in range(d):
                dn = d_maps[k + 1][e]
                dW2 += dn.T @ pairs(prev[e], e)
                dZ = (dn @ W2).reshape(B, W2.shape[1] // m, m)
                d_maps[k][e] += np.einsum("bij,bj->bi", dZ, E_d[e])
                d_maps[0][e] += np.einsum("bij,bi->bj", dZ, prev[e])
            grads[f"cin.W{k}"] = dW2.reshape(model.store[f"cin.W{k}"].shape)
        rows = model.embedding.table_rows(idx)
        grads.update(model.embedding.grads(rows, d_maps[0].transpose(1, 2, 0)))
        return logits, grads

    def assert_matches_per_dim(self, model, idx, rng):
        """forward and backward within 1e-12 relative of per_dim_step."""
        dlogits = rng.normal(size=len(idx))
        logits = model.forward(idx)
        grads = model.backward(dlogits)
        ref_logits, ref_grads = self.per_dim_step(model, idx, dlogits)
        assert logits.shape == ref_logits.shape
        assert np.abs(logits - ref_logits).max(initial=0) <= 1e-12 * np.abs(ref_logits).max(initial=0)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            got, ref = np.asarray(grads[name]), np.asarray(ref)  # the table's rows, densified
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    STACKS = [
        (8, (4, 4)),  # cin-m8: a narrow layer, then the pooled one
        (39, (20, 20)),
        (8, (8, 3, 9)),  # wide, narrow, then pooled
        (8, (16, 16, 16)),  # two wide layers, then pooled
        (8, (4,)),  # one pooled layer, over the embeddings
        (3, (5,)),
        (39, (40, 20)),  # a wide first layer at CTR width
        (5, (7, 2)),  # a wide first layer at odd m
    ]

    @pytest.mark.parametrize("m,widths", STACKS)
    def test_tiles_match_per_dim_formulation(self, m, widths, rng):
        d = 16
        model = CinModel(CinSpec(m, d, widths), [7] * m, seed=11)
        perturb_params(model, rng)
        first = model._tiles(10**6)[0]
        rows = first.stop - first.start
        B = 2 * rows + rows // 3 + 1  # two full tiles and a partial one
        tiles = model._tiles(B)
        assert len(tiles) == 3 and tiles[-1].stop - tiles[-1].start < rows
        self.assert_matches_per_dim(model, rng.integers(0, 7, size=(B, m)), rng)

    @pytest.mark.parametrize("B", [0, 1])
    @pytest.mark.parametrize("m,widths", STACKS)
    def test_zero_and_one_row_match_per_dim_formulation(self, m, widths, B, rng):
        model = CinModel(CinSpec(m, 4, widths), [7] * m, seed=13)
        perturb_params(model, rng)
        self.assert_matches_per_dim(model, rng.integers(0, 7, size=(B, m)), rng)

    @pytest.mark.parametrize("m,widths", [(8, (4, 4)), (8, (8, 3)), (5, (7, 2)), (8, (4,))])
    def test_first_layer_reads_only_symmetrised_weights(self, m, widths, rng):
        # e_i e_j is symmetric in (i, j), so adding an antisymmetric array to
        # W0 moves no logit, and W0's gradient is still the full one
        model = CinModel(CinSpec(m, 3, widths), [7] * m, seed=14)
        perturb_params(model, rng)
        idx = rng.integers(0, 7, size=(9, m))
        before = model.forward(idx)
        A = rng.normal(size=model.store["cin.W0"].shape)
        model.store.set("cin.W0", model.store["cin.W0"] + A - A.transpose(0, 2, 1))
        after = model.forward(idx)
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()
        self.assert_matches_per_dim(model, idx, rng)

    @pytest.mark.parametrize("m,d,widths,rows", [
        (8, 16, (4, 4), 128),  # cin-m8: the narrow first layer's S and O fill the cache share
        (8, 4, (200, 200), 256),  # wide and shallow: its Z and dZ fit, so CIN_TILE_ROWS
        (8, 16, (4,), 256),  # one pooled layer: CIN_TILE_ROWS
        (39, 16, (200, 200, 200), 16),  # the paper's CIN: the GEMM floor
    ])
    def test_tile_rows(self, m, d, widths, rows):
        model = CinModel(CinSpec(m, d, widths), [2] * m, seed=0)
        assert [t.stop - t.start for t in model._tiles(2 * rows + 1)] == [rows, rows, 1]

    def test_step_holds_no_untiled_intermediate(self, rng):
        # at m=39, d=16, widths (200, 200) and B=64 one (d*B, H*m) float64
        # array, the product of a layer's weights with all rows at once, is
        # 63.9 MB: a step that forms it, or keeps one per embedding dim
        # alive, peaks above it
        m, d, B, H = 39, 16, 64, 200
        model = CinModel(CinSpec(m, d, (H, H)), [5] * m, seed=12)
        idx = rng.integers(0, 5, size=(B, m))
        dlogits = rng.normal(size=B)
        tracemalloc.start()
        try:
            model.forward(idx)
            model.backward(dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * B * H * m * 8

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CinSpec(1, 2, (3,))
        with pytest.raises(ConfigurationError):
            CinSpec(2, 0, (3,))
        with pytest.raises(ConfigurationError):
            CinSpec(2, 2, ())
        with pytest.raises(ConfigurationError):
            CinSpec(2, 2, (3, 0))


# ---------------------------------------------------------------------------
# CrossNet
# ---------------------------------------------------------------------------


class TestCrossNet:
    def _identity_layers(self, model):
        n = model.spec.width
        for t in range(model.spec.num_layers):
            model.store.set(f"cross.W{t}", np.eye(n))
            model.store.set(f"cross.b{t}", np.zeros(n))

    def test_identity_weight_single_layer_example(self):
        # x0 = [1, 2], W = I, b = 0: next state is x0*x0 + x0 = [2, 6]
        model = CrossNetModel(CrossNetSpec(2, 1, 1), [1, 1], seed=0)
        pin_embeddings(model, [[1.0], [2.0]])
        self._identity_layers(model)
        model.store.set("head.w", np.array([1.0, 0.0]))
        assert model.forward(one_row(2))[0] == pytest.approx(2.0, abs=1e-12)
        model.store.set("head.w", np.array([0.0, 1.0]))
        assert model.forward(one_row(2))[0] == pytest.approx(6.0, abs=1e-12)

    def test_identity_weight_single_layer_general(self, rng):
        model = CrossNetModel(CrossNetSpec(3, 2, 1), [4, 4, 4], seed=5)
        self._identity_layers(model)
        idx = rng.integers(0, 4, size=(5, 3))
        logits = model.forward(idx)
        x0 = np.stack(
            [
                np.concatenate([field_rows(model, i)[idx[b, i]] for i in range(3)])
                for b in range(5)
            ]
        )
        expected = (x0 * x0 + x0) @ model.store["head.w"] + model.store["head.b"][0]
        assert np.allclose(logits, expected, rtol=1e-13, atol=1e-15)

    def test_zero_layers_are_residual_identity(self, rng):
        # W = 0, b = 0 in every layer: the residual path passes x0 through
        model = CrossNetModel(CrossNetSpec(2, 2, 3), [3, 3], seed=6)
        for t in range(3):
            model.store.set(f"cross.W{t}", np.zeros((4, 4)))
            model.store.set(f"cross.b{t}", np.zeros(4))
        idx = rng.integers(0, 3, size=(4, 2))
        logits = model.forward(idx)
        x0 = np.stack(
            [
                np.concatenate([field_rows(model, i)[idx[b, i]] for i in range(2)])
                for b in range(4)
            ]
        )
        expected = x0 @ model.store["head.w"] + model.store["head.b"][0]
        assert np.allclose(logits, expected, rtol=1e-14)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_logit_is_polynomial_of_degree_depth_plus_one(self, depth):
        # scaling every embedding by s makes the logit a polynomial in s of
        # degree exactly depth+1 (cross layers multiply one power of x0 in)
        rng = np.random.default_rng(depth)
        m, d = 3, 2
        model = CrossNetModel(CrossNetSpec(m, d, depth), [1] * m, seed=7)
        for t in range(depth):
            model.store.set(f"cross.b{t}", rng.normal(size=m * d))
        base = rng.normal(size=(m, d))
        s_vals = np.arange(1.0, depth + 4)
        logits = []
        for s in s_vals:
            model.store.set("emb", s * base)
            logits.append(model.forward(one_row(m))[0])
        y = np.array(logits)
        scale = np.abs(y).max()

        def fit_residual(deg):
            V = np.vander(s_vals, deg + 1, increasing=True)
            _, res, *_ = np.linalg.lstsq(V, y, rcond=None)
            return float(res[0]) if res.size else 0.0

        assert fit_residual(depth + 1) < (1e-10 * scale) ** 2 + 1e-18
        assert fit_residual(depth) > (1e-4 * scale) ** 2

    def test_gradients(self, rng):
        model = CrossNetModel(CrossNetSpec(3, 2, 2), [3, 3, 3], seed=8)
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(4, 3))
        targets = rng.normal(size=4)
        err = grad_error(squared_logit_closure(model, idx, targets), model, rng)
        assert err < 1e-5

    @staticmethod
    def reference(model, idx, dlogits):
        """Logits and gradients with fresh arrays for every sum: x0 copied
        batch-major from a fancy-index gather, ``x @ W^T + b`` and
        ``x0 * u + x`` formed whole, dx0 summed from zeros, and the table's
        rows scattered field-major."""
        store, L = model.store, model.spec.num_layers
        rows = idx + model.embedding.offsets
        x0 = store["emb"][rows].reshape(len(idx), -1)
        xs, us = [x0], []
        for t in range(L):
            u = xs[-1] @ store[f"cross.W{t}"].T + store[f"cross.b{t}"]
            us.append(u)
            xs.append(x0 * u + xs[-1])
        logits = xs[-1] @ store["head.w"] + store["head.b"][0]
        grads = {"head.w": xs[-1].T @ dlogits, "head.b": np.array([dlogits.sum()])}
        dx = dlogits[:, None] * store["head.w"][None, :]
        dx0 = np.zeros_like(x0)
        for t in range(L - 1, -1, -1):
            du = dx * x0
            dx0 += dx * us[t]
            grads[f"cross.b{t}"] = du.sum(axis=0)
            grads[f"cross.W{t}"] = du.T @ xs[t]
            dx = dx + du @ store[f"cross.W{t}"]
        dx0 += dx
        if store.is_trainable("emb"):
            d_emb = dx0.reshape(len(idx), model.num_fields, model.embed_dim)
            grads.update(field_major_row_grads(model.embedding, rows, d_emb))
        return logits, grads

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("B", [1, 7, 2 * TRAIN_ROWS + 37])
    @pytest.mark.parametrize("m", [2, 8, 39])
    def test_matches_reference_arithmetic_bitwise(self, m, B, frozen, rng):
        # the batch-major gather, the in-place layers and the memory-order
        # scatter change no bit of the logits or of any gradient
        vocab = [int(v) for v in rng.integers(2, 30, size=m)]
        model = CrossNetModel(CrossNetSpec(m, 3, 3), vocab, seed=15)
        perturb_params(model, rng)  # non-zero cross.b*, among the rest
        if frozen:
            model.store.freeze("emb")
        # field 0's index 0 in every other row: a table row hit many times
        idx = np.stack([rng.integers(0, v, size=B) for v in vocab], axis=1)
        idx[::2, 0] = 0
        dlogits = rng.normal(size=B)
        logits = model.forward(idx)
        grads = model.backward(dlogits)
        ref_logits, ref_grads = self.reference(model, idx, dlogits)
        assert_same_bits({"logits": logits, **grads}, {"logits": ref_logits, **ref_grads})
        assert ("emb" in grads) is not frozen

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CrossNetSpec(1, 2, 1)
        with pytest.raises(ConfigurationError):
            CrossNetSpec(2, 0, 1)
        with pytest.raises(ConfigurationError):
            CrossNetSpec(2, 2, 0)
        assert CrossNetSpec(4, 3, 2).width == 12


# ---------------------------------------------------------------------------
# FwFM / FmFM
# ---------------------------------------------------------------------------


class TestPairwiseBaselines:
    def test_fwfm_example(self):
        # fields [2] and [3], unit pair weights, zero linear part: logit 6
        model = FwfmModel(FwfmSpec(2, 1), [1, 1], seed=0)
        pin_embeddings(model, [[2.0], [3.0]])
        assert model.forward(one_row(2))[0] == pytest.approx(6.0, abs=1e-12)

    def test_fwfm_linear_term_adds_in(self):
        model = FwfmModel(FwfmSpec(2, 1), [1, 1], seed=0)
        pin_embeddings(model, [[2.0], [3.0]])
        model.store.set("linear.u", np.array([[0.5], [1.0]]))
        model.store.set("head.b", np.array([0.25]))
        # 6 (pairwise) + 0.5*2 + 1.0*3 + 0.25
        assert model.forward(one_row(2))[0] == pytest.approx(10.25, abs=1e-12)

    def test_fwfm_pair_weights_scale_pairs(self, rng):
        m = 3
        model = FwfmModel(FwfmSpec(m, 2), [4] * m, seed=9)
        w = rng.normal(size=(3, 2))
        model.store.set("fwfm.w", w)
        idx = rng.integers(0, 4, size=(5, m))
        E = np.stack(
            [
                np.stack([field_rows(model, i)[idx[b, i]] for i in range(m)])
                for b in range(5)
            ]
        )
        expected = np.zeros(5)
        for p, (i, j) in enumerate(upper_pairs(m)):
            expected += (w[p] * E[:, i] * E[:, j]).sum(axis=1)
        assert np.allclose(model.forward(idx), expected, rtol=1e-12)

    def test_fmfm_identity_matrices_match_fwfm_unit_weights(self, rng):
        # same seed => identical embeddings; identity pair matrices reduce
        # the bilinear form to the plain coordinate-wise product
        fwfm = FwfmModel(FwfmSpec(3, 2), [4, 4, 4], seed=10)
        fmfm = FmfmModel(FmfmSpec(3, 2), [4, 4, 4], seed=10)
        idx = rng.integers(0, 4, size=(8, 3))
        assert np.allclose(fwfm.forward(idx), fmfm.forward(idx), atol=1e-12)

    def test_fmfm_bilinear_form(self, rng):
        m = 2
        model = FmfmModel(FmfmSpec(m, 2), [3, 3], seed=11)
        W = rng.normal(size=(1, 2, 2))
        model.store.set("fmfm.W", W)
        idx = rng.integers(0, 3, size=(4, m))
        E = np.stack(
            [
                np.stack([field_rows(model, i)[idx[b, i]] for i in range(m)])
                for b in range(4)
            ]
        )
        expected = np.einsum("bd,de,be->b", E[:, 0], W[0], E[:, 1])
        assert np.allclose(model.forward(idx), expected, rtol=1e-12)

    @pytest.mark.parametrize("cls,spec_cls", [(FwfmModel, FwfmSpec), (FmfmModel, FmfmSpec)])
    def test_gradients(self, cls, spec_cls, rng):
        model = cls(spec_cls(3, 2), [3, 3, 3], seed=12)
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(4, 3))
        targets = rng.normal(size=4)
        err = grad_error(squared_logit_closure(model, idx, targets), model, rng)
        assert err < 1e-5

    @pytest.mark.parametrize("cls,spec_cls", [(FwfmModel, FwfmSpec), (FmfmModel, FmfmSpec)])
    def test_field_gradients_match_add_at(self, cls, spec_cls, rng):
        # the dense bilinear-form GEMMs against a per-pair np.add.at scatter
        # for the embeddings and per-pair einsums for the pair weights, at a
        # size where a slip in the pair order would show
        m, d, B = 39, 4, 6
        model = cls(spec_cls(m, d), [5] * m, seed=13)
        perturb_params(model, rng)
        idx = rng.integers(0, 5, size=(B, m))
        dlogits = rng.normal(size=B)
        model.forward(idx)
        grads = model.backward(dlogits)
        pi, pj = (np.array(f) for f in zip(*upper_pairs(m)))
        E = model.embedding.lookup(model.embedding.table_rows(idx))
        Ei, Ej = E[:, pi], E[:, pj]
        g = dlogits[:, None, None]
        if cls is FwfmModel:
            w = model.store["fwfm.w"]
            to_first, to_second = g * w * Ej, g * w * Ei
            weights, d_weights = "fwfm.w", np.einsum("b,bpd,bpd->pd", dlogits, Ei, Ej)
        else:
            W = model.store["fmfm.W"]
            to_first = np.einsum("bpe,pde->bpd", g * Ej, W)
            to_second = g * np.einsum("bpd,pde->bpe", Ei, W)
            weights, d_weights = "fmfm.W", np.einsum("b,bpd,bpe->pde", dlogits, Ei, Ej)
        np.testing.assert_allclose(grads[weights], d_weights, rtol=1e-12, atol=1e-12)
        dE = g * model.store["linear.u"]
        dE = np.broadcast_to(dE, (B, m, d)).copy()
        np.add.at(dE, (slice(None), pi), to_first)
        np.add.at(dE, (slice(None), pj), to_second)
        expected = model.embedding.grads(model.embedding.table_rows(idx), dE)
        for name in model.embedding_names():
            np.testing.assert_allclose(grads[name], expected[name], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cls,spec_cls", [(FwfmModel, FwfmSpec), (FmfmModel, FmfmSpec)])
    def test_step_holds_no_pair_sized_array(self, cls, spec_cls, rng):
        # at m=39, B=256, d=16 one (P, B, d) float64 array is 23.2 MiB: a
        # step that lays out a pair-major copy of the embeddings or of their
        # gradients peaks far above it
        m, d, B = 39, 16, 256
        model = cls(spec_cls(m, d), [5] * m, seed=14)
        idx = rng.integers(0, 5, size=(B, m))
        dlogits = rng.normal(size=B)
        tracemalloc.start()
        try:
            model.forward(idx)
            model.backward(dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(model.pairs) * B * d * 8

    def test_spec_validation(self):
        for spec_cls in (FwfmSpec, FmfmSpec):
            with pytest.raises(ConfigurationError):
                spec_cls(1, 2)
            with pytest.raises(ConfigurationError):
                spec_cls(2, 0)


# ---------------------------------------------------------------------------
# tiny MLP
# ---------------------------------------------------------------------------


class TestTinyMlp:
    def test_zero_weights_and_biases_leave_final_bias(self, rng):
        model = TinyMlpModel(TinyMlpSpec(2, 2, hidden=(4, 3)), [3, 3], seed=0)
        for name in model.store.names():
            if name.startswith("mlp.W"):
                model.store.set(name, np.zeros_like(model.store[name]))
            elif name.startswith("mlp.b"):
                model.store.set(name, np.zeros_like(model.store[name]))
        model.store.set("mlp.b2", np.array([0.7]))
        idx = rng.integers(0, 3, size=(5, 2))
        assert np.array_equal(model.forward(idx), np.full(5, 0.7))

    def test_layer_shapes(self):
        model = TinyMlpModel(TinyMlpSpec(3, 2, hidden=(5, 4)), [2, 2, 2], seed=1)
        assert model.store["mlp.W0"].shape == (6, 5)
        assert model.store["mlp.W1"].shape == (5, 4)
        assert model.store["mlp.W2"].shape == (4, 1)

    def test_gradients_tanh(self, rng):
        model = TinyMlpModel(
            TinyMlpSpec(2, 2, hidden=(4, 3), activation="tanh"), [3, 3], seed=2
        )
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(4, 2))
        targets = rng.normal(size=4)
        err = grad_error(squared_logit_closure(model, idx, targets), model, rng)
        assert err < 1e-5

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            TinyMlpSpec(1, 2)
        with pytest.raises(ConfigurationError):
            TinyMlpSpec(2, 2, hidden=())
        with pytest.raises(ConfigurationError):
            TinyMlpSpec(2, 2, hidden=(4, 0))
        with pytest.raises(ConfigurationError):
            TinyMlpSpec(2, 2, activation="gelu")


# ---------------------------------------------------------------------------
# the baselines' gather and scatter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("B", [1, 37])
@pytest.mark.parametrize("m", [3, 39])
@pytest.mark.parametrize("make", [
    lambda m, vocab: FwfmModel(FwfmSpec(m, 4), vocab, seed=16),
    lambda m, vocab: FmfmModel(FmfmSpec(m, 4), vocab, seed=16),
    lambda m, vocab: TinyMlpModel(TinyMlpSpec(m, 4, hidden=(8, 5)), vocab, seed=16),
], ids=["fwfm", "fmfm", "tinymlp"])
def test_baselines_match_the_field_major_gather_and_scatter_bitwise(make, m, B, rng, monkeypatch):
    # FmFM and the MLP read the batch-major gather as a view and scatter a
    # batch-major gradient, FwFM copies its dim-major states from the gather:
    # against a field-major gather copied batch-major and a field-major
    # scatter, no bit of the logits or of any gradient moves
    vocab = [int(v) for v in rng.integers(2, 30, size=m)]
    model = make(m, vocab)
    perturb_params(model, rng)
    idx = np.stack([rng.integers(0, v, size=B) for v in vocab], axis=1)
    idx[::2, 0] = 0
    dlogits = rng.normal(size=B)
    logits = model.forward(idx)
    grads = model.backward(dlogits)
    table = model.embedding
    monkeypatch.setattr(table, "gather", lambda rows: np.ascontiguousarray(table.lookup(rows)))
    monkeypatch.setattr(
        table, "grads", lambda rows, d_emb: field_major_row_grads(table, rows, d_emb)
    )
    ref_logits = model.forward(idx)
    ref_grads = model.backward(dlogits)
    assert_same_bits({"logits": logits, **grads}, {"logits": ref_logits, **ref_grads})

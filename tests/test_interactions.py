"""The four pairwise combiners and the DAG student model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagfm.interactions import (
    EMBED_INIT_STD,
    KINDS,
    DagfmModel,
    DagfmPlusModel,
    DagfmPlusSpec,
    DagfmSpec,
    PairGemm,
    full_dag_pairs,
    phi_basic_inner,
    phi_inner,
    phi_kernel,
    phi_outer,
)
from dagfm.numcore import ConfigurationError, ShapeError, grad_check, stable_sigmoid
from dagfm.teachers import upper_pairs

from conftest import (
    MODEL_TAGS,
    grad_error,
    perturb_params,
    random_small_model,
    squared_logit_closure,
)

finite_vec = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


def identity_model(kind, m, d, layers, embeddings):
    """Single-row-vocab model whose embeddings are pinned to the given rows
    and whose edge weights reduce the combiner to a plain product."""
    model = DagfmModel(DagfmSpec(kind, m, d, layers), [1] * m, seed=0)
    model.set_identity_edge_weights()
    model.store.set("emb", np.asarray(embeddings, dtype=np.float64).reshape(m, d))
    return model


class TestPhis:
    def test_basic_inner_example(self):
        np.testing.assert_array_equal(phi_basic_inner([1, 2], [3, 4]), [3, 8])

    def test_basic_inner_zero(self):
        np.testing.assert_array_equal(phi_basic_inner([0, 0], [3, 4]), [0, 0])

    @given(a=finite_vec)
    @settings(max_examples=25, deadline=None)
    def test_basic_inner_commutes(self, a):
        b = list(reversed(a))
        np.testing.assert_array_equal(phi_basic_inner(a, b), phi_basic_inner(b, a))

    def test_inner_example(self):
        np.testing.assert_array_equal(phi_inner([1, 2], [3, 4], [0, 1]), [0, 8])

    def test_inner_ones_reduces_to_basic(self):
        a, b = [1.5, -2.0], [0.5, 3.0]
        np.testing.assert_array_equal(phi_inner(a, b, [1, 1]), phi_basic_inner(a, b))

    def test_inner_homogeneous_in_w(self, rng):
        a, b, w = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            phi_inner(a, b, 2 * w), 2 * phi_inner(a, b, w), rtol=1e-15
        )

    def test_kernel_example(self):
        out = phi_kernel([1, 2], [3, 4], [[0, 1], [1, 0]])
        np.testing.assert_array_equal(out, [6, 4])

    def test_kernel_identity_reduces_to_basic(self, rng):
        a, b = rng.normal(size=(2, 5))
        np.testing.assert_array_equal(phi_kernel(a, b, np.eye(5)), phi_basic_inner(a, b))

    def test_kernel_diagonal_reduces_to_inner(self, rng):
        a, b, w = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            phi_kernel(a, b, np.diag(w)), phi_inner(a, b, w), rtol=1e-15
        )

    def test_outer_example(self):
        np.testing.assert_array_equal(phi_outer([1, 2], [3, 4], [1, 0], [1, 1]), [3, 4])

    def test_outer_zero_p(self, rng):
        b, q = rng.normal(size=(2, 3))
        np.testing.assert_array_equal(
            phi_outer(rng.normal(size=3), b, np.zeros(3), q), np.zeros(3)
        )

    def test_outer_equals_rank1_kernel_50_cases(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a, b, p, q = rng.normal(size=(4, d))
            W = np.outer(p, q)
            np.testing.assert_allclose(
                phi_outer(a, b, p, q), phi_kernel(a, b, W), atol=1e-12, rtol=0
            )

    @pytest.mark.parametrize(
        "call",
        [
            lambda: phi_basic_inner([1, 2], [1, 2, 3]),
            lambda: phi_inner([1, 2], [1, 2], [1, 2, 3]),
            lambda: phi_kernel([1, 2], [1, 2], np.eye(3)),
            lambda: phi_outer([1, 2], [1, 2], [1, 2, 3], [1, 2]),
        ],
    )
    def test_shape_errors(self, call):
        with pytest.raises(ShapeError):
            call()


class TestDagfmSpec:
    def test_kinds_tuple(self):
        assert KINDS == ("basic-inner", "inner", "kernel", "outer")

    def test_full_dag_pairs(self):
        assert full_dag_pairs(3) == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))

    def test_defaults_to_full_dag(self):
        spec = DagfmSpec("inner", 4, 2, 2)
        assert spec.num_states == 3
        assert len(spec.pairs()) == 10  # m(m+1)/2

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("cosine", 3, 2, 1)

    def test_too_few_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("inner", 1, 2, 1)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("inner", 3, 2, 0)

    def test_backward_edge_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("inner", 3, 2, 1, edges=((0, 0), (1, 1), (2, 2), (2, 0)))

    def test_missing_self_edge_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("inner", 3, 2, 1, edges=((0, 0), (1, 1), (0, 2)))


class TestPropagation:
    def test_second_order_states(self):
        model = identity_model("basic-inner", 3, 1, 2, [1, 2, 3])
        _, trace = model.forward_trace(np.zeros((1, 3), dtype=np.int64))
        np.testing.assert_allclose(trace.node_states[1][0, :, 0], [1, 6, 18])

    def test_third_order_states(self):
        model = identity_model("basic-inner", 3, 1, 2, [1, 2, 3])
        _, trace = model.forward_trace(np.zeros((1, 3), dtype=np.int64))
        np.testing.assert_allclose(trace.node_states[2][0, :, 0], [1, 14, 75])

    def test_initial_states_are_embeddings(self, rng):
        emb = rng.normal(size=(4, 3))
        model = identity_model("kernel", 4, 3, 2, emb)
        _, trace = model.forward_trace(np.zeros((1, 4), dtype=np.int64))
        np.testing.assert_array_equal(trace.node_states[0][0], emb)

    def test_masked_edge_changes_state(self):
        # dropping 1 -> 3 leaves h3^2 = (e2 + e3) * e3 = (2 + 3) * 3 = 15
        edges = tuple(p for p in full_dag_pairs(3) if p != (0, 2))
        model = DagfmModel(DagfmSpec("basic-inner", 3, 1, 2, edges=edges), [1] * 3)
        model.store.set("emb", np.array([[1.0], [2.0], [3.0]]))
        _, trace = model.forward_trace(np.zeros((1, 3), dtype=np.int64))
        assert trace.node_states[1][0, 2, 0] == pytest.approx(15.0)

    def test_logit_with_ones_head(self):
        model = identity_model("basic-inner", 3, 1, 2, [1, 2, 3])
        model.store.set("head.w", np.ones(9))
        logits = model.forward(np.zeros((1, 3), dtype=np.int64))
        # (1+2+3) + (1+6+18) + (1+14+75)
        assert logits[0] == pytest.approx(121.0)

    def test_zero_head_gives_half_probability(self, rng):
        model = DagfmModel(DagfmSpec("kernel", 4, 3, 2), [5] * 4, seed=1)
        idx = rng.integers(0, 5, size=(7, 4))
        np.testing.assert_array_equal(stable_sigmoid(model.forward(idx)), np.full(7, 0.5))

    def test_inner_ones_matches_basic_bitwise(self, rng):
        emb = rng.normal(size=(4, 3))
        basic = identity_model("basic-inner", 4, 3, 2, emb)
        inner = identity_model("inner", 4, 3, 2, emb)
        head = rng.normal(size=12)
        for model in (basic, inner):
            model.store.set("head.w", head)
        idx = np.zeros((2, 4), dtype=np.int64)
        np.testing.assert_array_equal(basic.forward(idx), inner.forward(idx))

    def test_kernel_identity_matches_basic(self, rng):
        emb = rng.normal(size=(3, 2))
        basic = identity_model("basic-inner", 3, 2, 3, emb)
        kernel = identity_model("kernel", 3, 2, 3, emb)
        idx = np.zeros((1, 3), dtype=np.int64)
        _, tb = basic.forward_trace(idx)
        _, tk = kernel.forward_trace(idx)
        for sb, sk in zip(tb.node_states, tk.node_states):
            # same sums in a different contraction order: tight but not bitwise
            np.testing.assert_allclose(sb, sk, rtol=1e-13, atol=1e-14)

    def test_pooled_width(self):
        for layers in (1, 2, 3):
            model = DagfmModel(DagfmSpec("inner", 4, 2, layers), [3] * 4)
            _, trace = model.forward_trace(np.zeros((2, 4), dtype=np.int64))
            assert trace.pooled_concat.shape == (2, 4 * (layers + 1))
            assert model.store["head.w"].shape == (4 * (layers + 1),)

    def test_pooled_matches_state_sums(self, rng):
        model = DagfmModel(DagfmSpec("outer", 3, 4, 2), [4] * 3, seed=2)
        idx = rng.integers(0, 4, size=(5, 3))
        _, trace = model.forward_trace(idx)
        for t, state in enumerate(trace.node_states):
            np.testing.assert_allclose(trace.pooled[:, t, :], state.sum(axis=2))

    def test_out_of_range_index_rejected(self):
        model = DagfmModel(DagfmSpec("inner", 2, 2, 1), [3, 3])
        bad = np.array([[0, 3]])  # table has 3 rows -> valid indices 0..2
        with pytest.raises(IndexError):
            model.forward(bad)

    @pytest.mark.parametrize("rows,message", [
        ([[0, 0, 1], [0, 5, 7]], r"field 1: index 5 outside vocab range \[0, 5\)"),
        ([[0, 0, 9], [-2, 9, 9]], r"field 0: index -2 outside vocab range \[0, 3\)"),
        ([[0, 4, 8], [0, 4, 9]], r"field 2: index 9 outside vocab range \[0, 9\)"),
        # in range of the table: without the per-field check it would read field 1's row 0
        ([[3, 0, 0]], r"field 0: index 3 outside vocab range \[0, 3\)"),
    ])
    def test_out_of_range_index_names_field_and_index(self, rows, message):
        model = DagfmModel(DagfmSpec("inner", 3, 2, 1), [3, 5, 9])
        with pytest.raises(IndexError, match=message):
            model.embedding.lookup(np.array(rows))

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_one_table_read_at_field_offsets(self, tag, rng):
        # every family: the layout opens with the one emb table, and field i's
        # index j reads its row sum(vocab[:i]) + j
        model, idx, _ = random_small_model(tag, rng)
        vocab = model.vocab_sizes
        layout = [(name, shape) for name, shape, _ in model.spec.layout(vocab)]
        assert layout[0] == ("emb", (sum(vocab), model.embed_dim))
        assert [name for name, _ in layout if name.startswith("emb")] == ["emb"]
        expected = model.store["emb"][idx + np.cumsum([0, *vocab[:-1]])]
        np.testing.assert_array_equal(model.embedding.lookup(idx), expected)

    def test_embedding_grads_scatter_add_trainable_tables_only(self, rng):
        vocab = [3, 7, 2, 9]
        model = DagfmModel(DagfmSpec("outer", 4, 3, 1), vocab, seed=0)
        idx = np.stack([rng.integers(0, v, size=200) for v in vocab], axis=1)
        d_emb = rng.normal(size=(200, 4, 3))
        grads = model.embedding.grads(idx, d_emb)
        assert sorted(grads) == ["emb"]
        expected = np.zeros((sum(vocab), 3))
        np.add.at(expected, idx + np.cumsum([0, *vocab[:-1]]), d_emb)
        np.testing.assert_array_equal(grads["emb"], expected)
        # a field-major d_emb, as the models pass it, sums in the same order
        field_major = np.ascontiguousarray(d_emb.transpose(1, 0, 2)).transpose(1, 0, 2)
        np.testing.assert_array_equal(model.embedding.grads(idx, field_major)["emb"], expected)
        model.store.freeze("emb")
        assert model.embedding.grads(idx, d_emb) == {}

    def test_outer_identity_only_at_d1(self):
        model = DagfmModel(DagfmSpec("outer", 3, 2, 1), [2] * 3)
        with pytest.raises(ConfigurationError):
            model.set_identity_edge_weights()
        # and at d=1 it reduces to the plain product chain
        m1 = identity_model("outer", 3, 1, 2, [1, 2, 3])
        _, trace = m1.forward_trace(np.zeros((1, 3), dtype=np.int64))
        np.testing.assert_allclose(trace.node_states[1][0, :, 0], [1, 6, 18])

    def test_embedding_init_scale(self):
        model = DagfmModel(DagfmSpec("inner", 6, 8, 1), [50] * 6, seed=0)
        rows = np.concatenate([model.store[n].ravel() for n in model.embedding_names()])
        assert abs(rows.std() - EMBED_INIT_STD) < 0.02

    def test_batch_forward_matches_row_by_row(self, rng):
        model = DagfmModel(DagfmSpec("kernel", 3, 2, 2), [4] * 3, seed=3)
        perturb_params(model, rng)
        idx = rng.integers(0, 4, size=(6, 3))
        batched = model.forward(idx)
        single = np.array([model.forward(idx[i : i + 1])[0] for i in range(6)])
        np.testing.assert_allclose(batched, single, rtol=1e-12)


class TestDagfmGradients:
    @pytest.mark.parametrize("kind", KINDS)
    def test_squared_loss_grad(self, kind, rng):
        model = DagfmModel(DagfmSpec(kind, 3, 2, 2), [3] * 3, seed=11)
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(4, 3))
        targets = rng.normal(size=4)
        assert grad_error(squared_logit_closure(model, idx, targets), model) < 1e-5

    def test_ctr_loss_grad_inner(self, rng):
        from dagfm.distill import _ctr_loss_and_grad

        model = DagfmModel(DagfmSpec("inner", 3, 2, 2), [4] * 3, seed=5)
        perturb_params(model, rng)
        idx = rng.integers(0, 4, size=(5, 3))
        labels = rng.integers(0, 2, size=5).astype(float)

        def fn(store):
            logits = model.forward(idx)
            loss, dlogits = _ctr_loss_and_grad(labels, logits)
            return loss, model.backward(dlogits)

        assert grad_error(fn, model) < 1e-4


def loop_propagate(model, h, E, t):
    """One propagation step as a per-edge, per-row Python loop over the
    single-pair combiners: ``sum over edges j -> i of phi(h[b, j], e_i)``."""
    kind, store = model.dag.kind, model.store
    out = np.zeros_like(h)
    for p, (j, i) in enumerate(model.dag.pairs()):
        for b in range(h.shape[0]):
            if kind == "basic-inner":
                v = phi_basic_inner(h[b, j], E[b, i])
            elif kind == "inner":
                v = phi_inner(h[b, j], E[b, i], store[f"dag.w{t}"][p])
            elif kind == "kernel":
                v = phi_kernel(h[b, j], E[b, i], store[f"dag.K{t}"][p])
            else:
                v = phi_outer(h[b, j], E[b, i], store[f"dag.p{t}"][p], store[f"dag.q{t}"][p])
            out[b, i] += v
    return out


def sparse_edges(m, rng, keep=0.3):
    """A random edge list over ``m`` fields that keeps every self-edge."""
    return tuple(
        (j, i) for j, i in full_dag_pairs(m) if j == i or rng.random() < keep
    )


class TestPropagateAgainstEdgeLoop:
    """Sparse edge lists through the GEMM aggregate; the states of every layer
    are checked against the per-edge loop in :class:`TestFieldMajorLayout`."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_sparse_edge_gradients(self, kind, rng):
        m = 6
        model = DagfmModel(
            DagfmSpec(kind, m, 3, 2, edges=sparse_edges(m, rng, keep=0.5)), [3] * m, seed=8
        )
        assert len(model.pairs) < m * (m + 1) // 2
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(5, m))
        targets = rng.normal(size=5)
        assert grad_error(squared_logit_closure(model, idx, targets), model, rng) < 1e-4


class TestDagfmPlus:
    def test_zero_mlp_is_additive_noop(self, rng):
        base = DagfmModel(DagfmSpec("inner", 3, 2, 2), [4] * 3, seed=9)
        plus = DagfmPlusModel(
            DagfmPlusSpec(DagfmSpec("inner", 3, 2, 2), mlp_hidden=(8, 8)), [4] * 3, seed=9
        )
        idx = rng.integers(0, 4, size=(6, 3))
        np.testing.assert_array_equal(base.forward(idx), plus.forward(idx))

    def test_hand_set_mlp(self):
        spec = DagfmPlusSpec(DagfmSpec("basic-inner", 2, 1, 1), mlp_hidden=(1,))
        model = DagfmPlusModel(spec, [1, 1], seed=0)
        model.store.set("emb", np.array([[2.0], [3.0]]))
        # states: layer 0 = [2, 3], layer 1 = [2*2, (2+3)*3] = [4, 15]
        model.store.set("mlp.W0", np.array([[0.1], [0.2], [0.3], [-0.1]]))
        model.store.set("mlp.b0", np.array([0.25]))
        model.store.set("mlp.W1", np.array([[2.0]]))
        model.store.set("mlp.b1", np.array([0.1]))
        logit = model.forward(np.zeros((1, 2), dtype=np.int64))[0]
        # hidden pre-activation 0.2+0.6+1.2-1.5+0.25 = 0.75, relu passes it
        assert logit == pytest.approx(0.75 * 2.0 + 0.1)

    def test_mlp_widths(self):
        spec = DagfmPlusSpec(DagfmSpec("inner", 3, 4, 2), mlp_hidden=(7, 5))
        assert spec.widths == [3 * 3 * 4, 7, 5, 1]
        final = DagfmPlusSpec(
            DagfmSpec("inner", 3, 4, 2), mlp_hidden=(7,), mlp_feed="final-state"
        )
        assert final.widths == [3 * 4, 7, 1]

    def test_width_mismatch_guard(self):
        spec = DagfmPlusSpec(DagfmSpec("inner", 2, 2, 2), mlp_hidden=(4,))
        model = DagfmPlusModel(spec, [3, 3], seed=0)
        model._mlp_input = lambda states: np.zeros((1, 3))
        with pytest.raises(ConfigurationError, match="width"):
            model.forward(np.zeros((1, 2), dtype=np.int64))

    def test_bad_feed_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmPlusSpec(DagfmSpec("inner", 2, 2, 1), mlp_feed="two-streams")

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ConfigurationError, match="width"):
            DagfmPlusSpec(DagfmSpec("inner", 2, 2, 1), mlp_hidden=(3, 0))

    @pytest.mark.parametrize("feed", ["all-states", "final-state"])
    def test_gradients(self, feed, rng):
        # tanh keeps the loss smooth so central differences are well-posed;
        # relu configs are covered by the filtered acceptance sweep. Every
        # coordinate is checked, at h = 1e-4: at 1e-5, rounding of the loss
        # (about 2) moves fd by up to 5e-11, and final-state's dag.p0[10]
        # (gradient -5.0e-7) reads 1.8e-5 from rounding alone
        spec = DagfmPlusSpec(
            DagfmSpec("outer", 3, 2, 2), mlp_hidden=(5,), activation="tanh", mlp_feed=feed
        )
        model = DagfmPlusModel(spec, [3] * 3, seed=4)
        perturb_params(model, rng)
        idx = rng.integers(0, 3, size=(3, 3))
        targets = rng.normal(size=3)
        closure = squared_logit_closure(model, idx, targets)
        every = model.store.n_scalars()
        assert grad_check(closure, model.store, h=1e-4, max_coords_per_param=every) < 1e-5


class TestFieldMajorLayout:
    """The student keeps every state set in one field-major buffer; its public
    surface (forward, traces, gradients) must not depend on the batch's
    memory layout or size, at CTR size m=39."""

    @staticmethod
    def model(kind, sparse, rng, vocab=5):
        m = 39
        edges = sparse_edges(m, rng) if sparse else None
        model = DagfmModel(DagfmSpec(kind, m, 4, 2, edges=edges), [vocab] * m, seed=6)
        perturb_params(model, rng)
        return model

    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_matches_row_by_row(self, kind, sparse, rng):
        model = self.model(kind, sparse, rng)
        wide = rng.integers(0, 5, size=(14, 39))
        for idx in (wide[:7], wide[::2], np.asfortranarray(wide[:7])):
            batched = model.forward(idx)
            single = np.array([model.forward(idx[b : b + 1])[0] for b in range(7)])
            np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_states_match_edge_loop(self, kind, sparse, rng):
        model = self.model(kind, sparse, rng)
        idx = rng.integers(0, 5, size=(3, 39))
        _, trace = model.forward_trace(idx)
        E = model.embedding.lookup(idx)
        h = E
        for t, state in enumerate(trace.node_states):
            assert state.shape == (3, 39, 4)
            np.testing.assert_allclose(state, h, rtol=1e-12, atol=1e-12)
            if t < model.dag.num_layers:
                h = loop_propagate(model, h, E, t)

    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients(self, kind, sparse, rng):
        model = self.model(kind, sparse, rng, vocab=3)
        idx = rng.integers(0, 3, size=(5, 39))
        targets = rng.normal(size=5)
        closure = squared_logit_closure(model, idx, targets)
        assert grad_error(closure, model, rng) < 1e-4


class TestPairGemm:
    """The one GEMM layout of the student's ``inner``/``kernel`` edge weights
    (pairs ``(j, i)`` of the full DAG, self-edges included) and FwFM/FmFM's
    pair weights (pairs ``i < j``), checked block by block at m=39, d=16."""

    m, d = 39, 16

    @staticmethod
    def gemm(pairs, per_dim):
        rows, cols = zip(*pairs)
        return PairGemm(rows, cols, TestPairGemm.m, TestPairGemm.d, per_dim)

    @pytest.mark.parametrize("per_dim", [True, False], ids=["per-dim", "matrix"])
    @pytest.mark.parametrize("pairs", [full_dag_pairs(39), upper_pairs(39)], ids=["dag", "upper"])
    def test_dense_holds_the_pair_weights_and_nothing_else(self, pairs, per_dim, rng):
        m, d = self.m, self.d
        g = self.gemm(pairs, per_dim)
        w = rng.normal(size=(len(pairs), d) if per_dim else (len(pairs), d, d))
        K = g.dense(w)
        np.testing.assert_array_equal(g.at_pairs(K), w)
        assert K.shape == ((d, m, m) if per_dim else (1, m * d, m * d))
        rest = K.copy()
        for k, (r, c) in enumerate(pairs):
            if per_dim:  # one (m, m) block per embedding dim e: rest[e, r, c] = w[k, e]
                np.testing.assert_array_equal(rest[:, r, c], w[k])
                rest[:, r, c] = 0.0
            else:  # rows (r, e), columns (c, e')
                block = rest[0, r * d : (r + 1) * d, c * d : (c + 1) * d]
                np.testing.assert_array_equal(block, w[k])
                block[...] = 0.0
        assert not rest.any()

    @pytest.mark.parametrize("per_dim", [True, False], ids=["per-dim", "matrix"])
    @pytest.mark.parametrize("pairs", [full_dag_pairs(39), upper_pairs(39)], ids=["dag", "upper"])
    def test_fields_inverts_states(self, pairs, per_dim, rng):
        m, d = self.m, self.d
        g = self.gemm(pairs, per_dim)
        F = rng.normal(size=(m, 5, d))
        X = g.states(F)
        assert X.shape == ((d, 5, m) if per_dim else (1, 5, m * d))
        assert X.flags.c_contiguous
        np.testing.assert_array_equal(g.fields(X), F)

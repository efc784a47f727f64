"""The four pairwise combiners and the DAG student model."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagfm import interactions
from dagfm.checkpoint import MODELS, build_model
from dagfm.distill import SCORE_ROWS, predict_logits
from dagfm.interactions import (
    EMBED_INIT_STD,
    KINDS,
    DagfmModel,
    DagfmPlusModel,
    DagfmPlusSpec,
    DagfmSpec,
    Model,
    PairGemm,
    full_dag_pairs,
    phi_basic_inner,
    phi_inner,
    phi_kernel,
    phi_outer,
)
from dagfm.numcore import (
    ConfigurationError, ParamStore, RowGrad, ShapeError, adam_step, grad_check, stable_sigmoid,
)
from dagfm.oracle import _model_edge_weights, oracle_node_state_weighted
from dagfm.teachers import (
    CinSpec, CrossNetSpec, FmfmSpec, FwfmSpec, TinyMlpSpec, upper_pairs,
)

from conftest import (
    MODEL_TAGS,
    arrays_in,
    assert_same_bits,
    field_major_row_grads,
    grad_error,
    perturb_params,
    random_small_model,
    squared_logit_closure,
)

finite_vec = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


# one small spec of every family in checkpoint.MODELS, on three fields of width 2
FAMILY_SPECS = (
    DagfmSpec("inner", 3, 2, 1),
    DagfmPlusSpec(DagfmSpec("outer", 3, 2, 1), mlp_hidden=(4,)),
    CinSpec(3, 2, (2,)),
    CrossNetSpec(3, 2, 1),
    FwfmSpec(3, 2),
    FmfmSpec(3, 2),
    TinyMlpSpec(3, 2, hidden=(4,)),
)
assert {type(spec) for spec in FAMILY_SPECS} == {cls.spec_type for cls in MODELS}


def identity_model(kind, m, d, layers, embeddings):
    """Single-row-vocab model whose embeddings are pinned to the given rows
    and whose edge weights reduce the combiner to a plain product: the
    initial ones and identity matrices of inner and kernel, and for outer
    p = q = 1, the identity only at d=1."""
    model = DagfmModel(DagfmSpec(kind, m, d, layers), [1] * m, seed=0)
    if kind == "outer":
        assert d == 1, "rank-1 outer weights express the identity only at d=1"
        for t in range(layers):
            for name in (f"dag.p{t}", f"dag.q{t}"):
                model.store.set(name, np.ones_like(model.store[name]))
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
        # the one check, and every family's forward, which makes it, at the
        # index widths it reads (int32 as given, the others as int64)
        vocab = [3, 5, 9]
        for idx in (np.array(rows, dtype=dtype) for dtype in (np.int64, np.int32, np.int16)):
            with pytest.raises(IndexError, match=message):
                DagfmModel(DagfmSpec("inner", 3, 2, 1), vocab).embedding.table_rows(idx)
            for spec in FAMILY_SPECS:
                with pytest.raises(IndexError, match=message):
                    build_model(spec, vocab).forward(idx)

    def test_int32_indices_read_int64_table_rows(self):
        # a table may hold more rows than int32 counts, and the most negative
        # int32 index fails the one unsigned compare as -1 does
        store = ParamStore()
        store.add("emb", np.zeros((1, 2)))
        table = interactions.EmbeddingTable(store, [3, 2**31 + 5])
        idx = np.array([[2, 2**31 - 1], [0, 0]], dtype=np.int32)
        rows = table.table_rows(idx)
        assert rows.dtype == np.int64 and rows.tolist() == [[2, 2**31 + 2], [0, 3]]
        assert table.table_rows(idx.astype(np.int64)).tolist() == rows.tolist()
        with pytest.raises(IndexError, match=r"field 1: index -2147483648 outside"):
            table.table_rows(np.array([[0, -2**31]], dtype=np.int32))

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.float32, str, object])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_a_non_integer_index_matrix_is_a_shape_error(self, tag, dtype, rng):
        # a bool matrix would otherwise read as indices 0 and 1, and a float
        # or str one escape as a numpy TypeError
        model, idx, _ = random_small_model(tag, rng)
        bad = idx.astype(dtype)
        for call in (model.forward, model.score, lambda x: predict_logits(model, x)):
            with pytest.raises(ShapeError, match=rf"integers, got dtype {bad.dtype}"):
                call(bad)
        assert model.score(idx.astype(np.uint16)).tobytes() == model.score(idx).tobytes()

    @pytest.mark.parametrize("B", [0, 1, 9])
    def test_gather_is_lookup_batch_major(self, B, rng):
        vocab = [3, 5, 9]
        table = DagfmModel(DagfmSpec("inner", 3, 2, 1), vocab).embedding
        idx = np.stack([rng.integers(0, v, size=B) for v in vocab], axis=1)
        rows = table.table_rows(idx)
        E = table.gather(rows)
        assert E.shape == (B, 3, 2) and E.flags.c_contiguous
        np.testing.assert_array_equal(E, table.lookup(rows))
        with pytest.raises(ShapeError):
            table.table_rows(idx[:, :2])

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
        np.testing.assert_array_equal(
            model.embedding.lookup(model.embedding.table_rows(idx)), expected
        )

    @staticmethod
    def dense_bincount(idx, d_emb, vocab):
        """The table gradient as one dense field-major bincount over the whole
        table, the form the row gradient replaced."""
        rows, d = sum(vocab), d_emb.shape[2]
        offsets = np.cumsum([0, *vocab[:-1]])
        flat = ((idx.T + offsets[:, None]).reshape(-1, 1) * d + np.arange(d)).ravel()
        g = np.bincount(flat, weights=d_emb.transpose(1, 0, 2).ravel(), minlength=rows * d)
        return g.reshape(rows, d)

    def test_embedding_grads_scatter_add_trainable_tables_only(self, rng):
        vocab = [3, 7, 2, 9]
        model = DagfmModel(DagfmSpec("outer", 4, 3, 1), vocab, seed=0)
        # 200 rows repeat every table row, 3 rows leave most rows untouched,
        # and no rows touch none
        for batch in (200, 3, 0):
            idx = np.stack([rng.integers(0, v, size=batch) for v in vocab], axis=1)
            d_emb = rng.normal(size=(batch, 4, 3))
            rows = model.embedding.table_rows(idx)
            grads = model.embedding.grads(rows, d_emb)
            assert sorted(grads) == ["emb"]
            g = grads["emb"]
            offset_rows = idx + np.cumsum([0, *vocab[:-1]])
            assert np.array_equal(g.rows, np.unique(offset_rows))
            assert g.values.shape == (len(g.rows), 3) and g.shape == (sum(vocab), 3)
            expected = np.zeros((sum(vocab), 3))
            np.add.at(expected, offset_rows, d_emb)
            np.testing.assert_array_equal(np.asarray(g), expected)
            np.testing.assert_array_equal(np.asarray(g), self.dense_bincount(idx, d_emb, vocab))
            # a field-major d_emb, as the models pass it, sums in the same order
            field_major = np.ascontiguousarray(d_emb.transpose(1, 0, 2)).transpose(1, 0, 2)
            np.testing.assert_array_equal(
                np.asarray(model.embedding.grads(rows, field_major)["emb"]), expected
            )
        model.store.freeze("emb")
        assert model.embedding.grads(rows, d_emb) == {}

    def test_embedding_grads_are_byte_identical_in_every_layout(self, rng):
        # one gradient batch-major, as the student's field-major view and as
        # FwFM's dim-major view: the scatter reads each in its own memory
        # order, and every row's sum is the field-major scatter's, bit for bit
        vocab = [3, 7, 2, 9]
        table = DagfmModel(DagfmSpec("outer", 4, 3, 1), vocab, seed=0).embedding
        for batch in (1, 2, 200):
            idx = np.stack([rng.integers(0, v, size=batch) for v in vocab], axis=1)
            idx[:, 1] = 4  # one row of field 1 that every batch row hits
            d_emb = rng.normal(size=(batch, 4, 3))
            field_major = np.ascontiguousarray(d_emb.transpose(1, 0, 2)).transpose(1, 0, 2)
            dim_major = np.ascontiguousarray(d_emb.transpose(2, 0, 1)).transpose(1, 2, 0)
            rows = table.table_rows(idx)
            expected = field_major_row_grads(table, rows, d_emb)
            for layout in (d_emb, field_major, dim_major):
                assert_same_bits(table.grads(rows, layout), expected)

    @pytest.mark.parametrize(
        "tag", ["dagfm-outer", "dagfm-inner", "dagfm+", "dagfm-basic-inner", "dagfm-kernel"]
    )
    def test_frozen_table_takes_no_gradient_and_moves_no_other(self, tag, rng, monkeypatch):
        # every combiner: a frozen table's backward skips layer 0's d(state 0)
        model, idx, _ = random_small_model(tag, rng)
        dlogits = rng.normal(size=len(idx))
        model.forward(idx)
        trained = model.backward(dlogits)
        model.store.freeze("emb")
        monkeypatch.setattr(model.embedding, "grads", None)  # never called
        model.forward(idx)
        frozen = model.backward(dlogits)
        assert frozen.keys() == trained.keys() - {"emb"}
        for name, g in frozen.items():
            assert g.tobytes() == trained[name].tobytes(), name

    def test_outer_identity_only_at_d1(self):
        # at d=1, p = q = 1 reduces outer to the plain product chain
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

    @pytest.mark.parametrize("feed, fed", [("all-states", [0, 1, 2]), ("final-state", [2])])
    def test_the_tower_reads_the_fed_states(self, feed, fed, rng):
        spec = DagfmPlusSpec(DagfmSpec("inner", 3, 4, 2), mlp_hidden=(7, 5), mlp_feed=feed)
        assert [0, 1, 2][spec.fed_states] == fed
        assert spec.mlp_input_width == 3 * len(fed) * 4
        assert spec.widths == [spec.mlp_input_width, 7, 5, 1]
        model = DagfmPlusModel(spec, [3] * 3, seed=1)
        perturb_params(model, rng)
        dag_values = {k: v for k, v in model.store.snapshot().items() if not k.startswith("mlp.")}
        dag = DagfmModel.from_values(spec.dagfm, [3] * 3, dag_values)
        for batch in (0, 1, 5):
            idx = rng.integers(0, 3, size=(batch, 3))
            states = model.forward_trace(idx)[1].node_states  # (B, m, d) each
            x = np.concatenate([states[t].reshape(batch, 3 * 4) for t in fed], axis=1)
            tower, _ = model.mlp.forward(x, keep=False)
            assert model.forward(idx).tobytes() == (dag.forward(idx) + tower).tobytes()

    def test_logit_bound_counts_the_fed_states(self):
        base = DagfmSpec("inner", 3, 4, 2)
        scales = {name: 2.0 for name, _, _ in DagfmPlusSpec(base, mlp_hidden=(7,)).layout([3] * 3)}
        states = base._state_bounds(scales)
        for feed, fed in (("all-states", states), ("final-state", states[-1:])):
            spec = DagfmPlusSpec(base, mlp_hidden=(7,), mlp_feed=feed)
            hidden = 7 * (2.0 * 4 * sum(h.sum() for h in fed) + 2.0)
            tower = 1 * (2.0 * hidden + 2.0)
            assert spec.logit_bound(scales) == base.logit_bound(scales) + tower, feed

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


# both specs that build a tower, by the name of their hidden-widths field
TOWER_SPECS = {
    "mlp_hidden": lambda **kw: DagfmPlusSpec(DagfmSpec("inner", 2, 2, 1), **kw),
    "hidden": lambda **kw: TinyMlpSpec(2, 2, **kw),
}


class TestTowerRules:
    """One check of the hidden widths and the activation serves every spec
    with a tower, and one table gives each activation its derivative."""

    @pytest.mark.parametrize(
        "fault, text",
        [
            (dict(activation="gelu"), "unknown activation 'gelu'"),
            (dict(activation=["relu"]), "unknown activation ['relu']"),
            (dict(hidden=()), "{hidden} must name at least one layer"),
            (dict(hidden=(3, 0)), "{hidden} width must be an int >= 1, got 0"),
            (dict(hidden=(3, 2.0)), "{hidden} width must be an int >= 1, got 2.0"),
        ],
        ids=["activation", "unhashable-activation", "no-layer", "zero-width", "float-width"],
    )
    @pytest.mark.parametrize("hidden", list(TOWER_SPECS))
    def test_each_fault_raises_its_text(self, hidden, fault, text):
        fault = {hidden if k == "hidden" else k: v for k, v in fault.items()}
        with pytest.raises(ConfigurationError) as raised:
            TOWER_SPECS[hidden](**fault)
        assert str(raised.value) == text.format(hidden=hidden)

    def test_an_unknown_feed_raises_its_text(self):
        with pytest.raises(ConfigurationError, match="^unknown mlp_feed 'two-streams'$"):
            TOWER_SPECS["mlp_hidden"](mlp_feed="two-streams")

    @pytest.mark.parametrize("activation", list(interactions.ACTIVATIONS))
    def test_each_derivative_is_its_activation_s(self, activation):
        act, grad, _ = interactions.ACTIVATIONS[activation]
        z, h = np.array([-2.0, -0.5, 0.3, 1.7]), 1e-6
        np.testing.assert_allclose(grad(z), (act(z + h) - act(z - h)) / (2 * h), rtol=1e-8)


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
        E = model.embedding.lookup(model.embedding.table_rows(idx))
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


# ---------------------------------------------------------------------------
# block-triangular outer layers
# ---------------------------------------------------------------------------


def self_only_block_edges(m, block):
    """The full DAG on ``m`` fields, except that the fields in ``block`` keep
    only their self-edges: no other edge enters or leaves the block."""
    return tuple(
        (j, i) for j, i in full_dag_pairs(m) if j == i or (j not in block and i not in block)
    )


def assert_close_to_largest(got, expected, rtol, name=None):
    """``got`` within ``rtol`` of ``expected``'s largest magnitude: a logit
    or gradient entry summed to near zero keeps the absolute error of its
    terms' magnitudes, so an elementwise rtol would fail it on a last-bit
    difference in summation order."""
    got, expected = np.asarray(got), np.asarray(expected)  # a RowGrad, densified
    assert got.shape == expected.shape, name
    assert np.abs(got - expected).max(initial=0.0) <= rtol * np.abs(expected).max(initial=0.0), name


def assert_logits_and_grads_close(model, reference, idx, rng, rtol):
    dlogits = rng.normal(size=len(idx))
    logits = model.forward(idx)
    assert logits.shape == (len(idx),)
    assert_close_to_largest(logits, reference.forward(idx), rtol, "logits")
    grads, expected = model.backward(dlogits), reference.backward(dlogits)
    assert grads.keys() == expected.keys()
    for name, g in expected.items():
        assert_close_to_largest(grads[name], g, rtol, name)


EDGE_LISTS = {
    "full": lambda m: None,
    "self-only-block": lambda m: self_only_block_edges(m, range(2, 4)),
}


@pytest.fixture
def nan_buffers(monkeypatch):
    """Fresh ``np.empty`` float buffers start as NaN, so a read of any entry
    that the blocked GEMMs leave unwritten shows in every result."""
    empty = np.empty

    def nan_empty(shape, dtype=float, order="C", **kwargs):
        out = empty(shape, dtype, order, **kwargs)
        if np.issubdtype(out.dtype, np.inexact):
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)


class TestBlockTriangularOuter:
    """``outer`` layers cut the fields into blocks of ``FIELD_BLOCK`` and skip
    the DAG's upper block pairs. Most tier-1 ``outer`` students have m <= 8,
    one block at the real size, so these cut blocks of two fields:
    m=5 is blocks [0, 2), [2, 4), [4, 5), and m=6 three full blocks."""

    @pytest.fixture(autouse=True)
    def blocks_of_two(self, monkeypatch, nan_buffers):
        monkeypatch.setattr(interactions, "FIELD_BLOCK", 2)

    @staticmethod
    def model(m, edges, rng, plus=False):
        spec = DagfmSpec("outer", m, 3, 2, edges=EDGE_LISTS[edges](m))
        if plus:
            spec = DagfmPlusSpec(spec, mlp_hidden=(5,), activation="tanh")
        model = (DagfmPlusModel if plus else DagfmModel)(spec, [3] * m, seed=m)
        assert len(model._sources) == len(model._targets) == (m + 1) // 2
        perturb_params(model, rng)
        return model

    @pytest.mark.parametrize("batch", [0, 1, 3])
    @pytest.mark.parametrize("edges", list(EDGE_LISTS))
    @pytest.mark.parametrize("m", [5, 6])
    def test_states_match_edge_loop_and_oracle(self, m, edges, batch, rng):
        model = self.model(m, edges, rng)
        idx = rng.integers(0, 3, size=(batch, m))
        _, trace = model.forward_trace(idx)
        E = model.embedding.lookup(model.embedding.table_rows(idx))
        weights = _model_edge_weights(model)
        h = E
        for t, state in enumerate(trace.node_states):
            assert state.shape == (batch, m, 3)
            np.testing.assert_allclose(state, h, rtol=1e-12, atol=1e-12)
            for b in range(batch):
                for i in range(m):
                    expected = oracle_node_state_weighted("outer", E[b], weights, i + 1, t + 1)
                    np.testing.assert_allclose(state[b, i], expected, rtol=1e-10, atol=1e-12)
            if t < model.dag.num_layers:
                h = loop_propagate(model, h, E, t)

    @pytest.mark.parametrize("batch", [0, 1, 3])
    @pytest.mark.parametrize("edges", list(EDGE_LISTS))
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    @pytest.mark.parametrize("m", [5, 6])
    def test_matches_one_block(self, m, plus, edges, batch, rng, monkeypatch):
        model = self.model(m, edges, rng, plus)
        monkeypatch.setattr(interactions, "FIELD_BLOCK", m)
        dense = type(model).from_values(model.spec, model.vocab_sizes, model.store.snapshot())
        assert len(dense._sources) == 1
        idx = rng.integers(0, 3, size=(batch, m))
        assert_logits_and_grads_close(model, dense, idx, rng, rtol=1e-13)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("edges", list(EDGE_LISTS))
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    @pytest.mark.parametrize("m", [5, 6])
    def test_gradients(self, m, plus, edges, batch, rng):
        model = self.model(m, edges, rng, plus)
        idx = rng.integers(0, 3, size=(batch, m))
        closure = squared_logit_closure(model, idx, rng.normal(size=batch))
        assert grad_error(closure, model, rng) < 1e-4

    def test_an_unknown_cut_raises(self, rng):
        model = self.model(5, "full", rng)
        x, y = np.ones((5, 3, 5)), np.ones((5, 5, 3))
        with pytest.raises(ValueError, match="col"):
            interactions._tri_matmul(x, y, model._sources, "col")


class BlockLoopOuterGemms:
    """The ``outer`` layer's GEMMs as the per-block ``np.matmul`` calls that
    ``_tri_matmul`` makes, written out per product over the plan the model
    passes in (the forward's) or builds (the rest of backward), with the
    forward's edge scalars ``S`` kept on its tape for backward to read, and
    the aggregate formed again from that ``S`` by the forward's calls when
    the table takes a gradient. The model keeps no ``S`` and forms it
    again in backward by the forward's plan; it makes the same BLAS calls on
    the same operands, so it matches this bit for bit on any kernel."""

    def _forward(self, rows, keep):
        self.S = []  # each layer's S, which the tape keeps
        logits, tape = super()._forward(rows, keep)
        return logits, (*tape, self.S) if keep else None

    def _backward(self, tape, dlogits, extra_dstate=None):
        *tape, self.S = tape
        return super()._backward(tape, dlogits, extra_dstate)

    @staticmethod
    def _aggregate(S, q, targets, out):
        for f, reach in targets:
            np.matmul(S.transpose(1, 2, 0)[f, :, reach], q[f, reach], out=out[f])
        return out

    def _outer_gemms(self, h, w, plan, out=None):
        (pT, q), (sources, targets) = w, plan
        m, B, d = h.shape
        S = np.empty((m, m, B))
        for f, reach in sources:
            np.matmul(h[f], pT[f, :, reach], out=S.transpose(0, 2, 1)[f, :, reach])
        self.S.append(S)
        return self._aggregate(S, q, targets, np.empty((m, B, d)) if out is None else out)

    def _outer_gemms_backward(self, t, h, dh, dU, w, plan, grads, dE, wants_dh):
        (pT, q), (_, targets) = w, plan
        S = self.S.pop()
        m, B, d = h.shape
        if dE is not None:
            dE += dh * self._aggregate(S, q, targets, np.empty((m, B, d)))
        dS, dh_t = np.empty((m, m, B)), np.empty((m, B, d))
        dq, dp = np.empty((m, m, d)), np.empty((m, m, d))
        qT, p = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (q, pT))
        for f, reach in self._targets:
            np.matmul(dU[f], qT[f, :, reach], out=dS.transpose(0, 2, 1)[f, :, reach])
            np.matmul(S.transpose(1, 0, 2)[f, reach], dU[f], out=dq[f, reach])
        for f, reach in self._sources:
            np.matmul(dS.transpose(1, 0, 2)[f, reach], h[f], out=dp[f, reach])
            np.matmul(dS.transpose(1, 2, 0)[f, :, reach], p[f, reach], out=dh_t[f])
        grads[f"dag.q{t}"] = dq[self._ii, self._jj]
        grads[f"dag.p{t}"] = dp[self._jj, self._ii]
        return dh_t if wants_dh else None


class BlockLoopOuterModel(BlockLoopOuterGemms, DagfmModel):
    pass


class BlockLoopOuterPlusModel(DagfmPlusModel, BlockLoopOuterModel):
    pass


class TestFieldBlocksAtCtrSize:
    """At m=39 and the real ``FIELD_BLOCK`` (four blocks, the last one
    short), and at m=5 and 6 in blocks of two, a forward of fewer than
    ``SMALL_ROWS`` rows runs the dense GEMMs and a larger one the blocked
    GEMMs; backward always runs the blocked ones. Logits and every gradient
    are bitwise those of the same per-block calls, and within 1e-13 of the
    largest entry of one block's dense GEMMs, which sum in another order
    (the numerics contract in README)."""

    BLOCKS = {5: 2, 6: 2, 39: interactions.FIELD_BLOCK}
    BATCHES = [0, 1, 2, 5, 19, 20, 21, 64]

    def models(self, m, plus, rng, monkeypatch, reference=None):
        """A blocked model, and ``reference`` (its classes by ``plus``) with
        the same weights and blocks, or one dense block without it."""
        vocab = [4] * m
        spec = DagfmSpec("outer", m, 16, 3)
        if plus:
            spec = DagfmPlusSpec(spec, mlp_hidden=(8,))
        monkeypatch.setattr(interactions, "FIELD_BLOCK", self.BLOCKS[m])
        model = (DagfmPlusModel if plus else DagfmModel)(spec, vocab, seed=2)
        assert [f.stop for f, _ in model._sources] == [*range(self.BLOCKS[m], m, self.BLOCKS[m]), m]
        perturb_params(model, rng)
        if reference is None:
            monkeypatch.setattr(interactions, "FIELD_BLOCK", m)
            reference = (DagfmModel, DagfmPlusModel)
        reference = reference[plus].from_values(spec, vocab, model.store.snapshot())
        return model, reference

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    @pytest.mark.parametrize("m", [5, 6, 39])
    def test_matches_one_block(self, m, plus, batch, rng, monkeypatch, nan_buffers):
        model, dense = self.models(m, plus, rng, monkeypatch)
        assert len(dense._sources) == 1
        idx = rng.integers(0, 4, size=(batch, m))
        assert_logits_and_grads_close(model, dense, idx, rng, rtol=1e-13)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    @pytest.mark.parametrize("m", [5, 6, 39])
    def test_matches_the_block_loop_bitwise(self, m, plus, batch, rng, monkeypatch, nan_buffers):
        loops = (BlockLoopOuterModel, BlockLoopOuterPlusModel)
        model, loop = self.models(m, plus, rng, monkeypatch, loops)
        idx = rng.integers(0, 4, size=(batch, m))
        assert model.forward(idx).tobytes() == loop.forward(idx).tobytes()
        dlogits = rng.normal(size=batch)
        assert_same_bits(model.backward(dlogits), loop.backward(dlogits))

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    def test_forming_s_again_matches_the_kept_s_bitwise(self, plus, frozen, rng, monkeypatch):
        loops = (BlockLoopOuterModel, BlockLoopOuterPlusModel)
        model, loop = self.models(39, plus, rng, monkeypatch, loops)
        if frozen:
            model.store.freeze("emb")
            loop.store.freeze("emb")
        for batch in (1, 20, 21, 512):
            idx = rng.integers(0, 4, size=(batch, 39))
            assert model.forward(idx).tobytes() == loop.forward(idx).tobytes()
            dlogits = rng.normal(size=batch)
            grads = model.backward(dlogits)
            assert ("emb" in grads) != frozen
            assert_same_bits(grads, loop.backward(dlogits))

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("batch", [1, 19, 20, 64])
    def test_forward_plan_follows_the_batch_size(self, batch, frozen, rng, monkeypatch):
        model, _ = self.models(39, False, rng, monkeypatch)
        if frozen:
            model.store.freeze("emb")
        blocks = []
        tri_matmul = interactions._tri_matmul

        def spy(x, y, cuts, mode, out=None):
            blocks.append(len(cuts))
            return tri_matmul(x, y, cuts, mode, out)

        monkeypatch.setattr(interactions, "_tri_matmul", spy)
        idx = rng.integers(0, 4, size=(batch, 39))
        model.forward(idx)
        plan = 1 if batch < interactions.SMALL_ROWS else 4
        assert blocks == [plan] * 6  # two per layer
        blocks.clear()
        model.backward(np.ones(batch))
        # per layer S again by the forward's plan, and with a trainable table
        # the aggregate too, then four blocked GEMMs; with a frozen one the
        # walk ends at layer 0, which forms no d(state 0)
        if frozen:
            assert blocks == [plan, 4, 4, 4, 4] * 2 + [plan, 4, 4, 4]
        else:
            assert blocks == [plan, plan, 4, 4, 4, 4] * 3


class BatchColumnOuterGemms:
    """The ``outer`` layer with the batch as the columns of its edge-scalar
    products, dense: its own (m, m, d) layouts ``p[j, i]`` and ``q[i, j]``
    of the store's weights, and edge scalars from the (n, d) x (d, B)
    products ``p[j] @ h[j].T`` forward and ``q[i] @ dU[i].T`` backward. A
    reference that shares neither the model's operand orientation nor its
    layouts."""

    def _lay_out(self):
        m, d, jj, ii = self.num_fields, self.embed_dim, self._jj, self._ii
        layouts = []
        for t in range(self.dag.num_layers):
            p, q = np.zeros((2, m, m, d))
            p[jj, ii] = self.store[f"dag.p{t}"]
            q[ii, jj] = self.store[f"dag.q{t}"]
            layouts.append((p, q))
        return layouts

    def _outer_gemms(self, h, w, plan, out=None):
        p, q = w
        S = np.matmul(p, h.transpose(0, 2, 1))
        return np.matmul(S.transpose(1, 2, 0), q, out=out)

    def _outer_gemms_backward(self, t, h, dh, dU, w, plan, grads, dE, wants_dh):
        jj, ii = self._jj, self._ii
        p, q = w
        S = np.matmul(p, h.transpose(0, 2, 1))
        if dE is not None:
            dE += dh * np.matmul(S.transpose(1, 2, 0), q)
        dS = np.matmul(q, dU.transpose(0, 2, 1))
        grads[f"dag.q{t}"] = np.matmul(S.transpose(1, 0, 2), dU)[ii, jj]
        grads[f"dag.p{t}"] = np.matmul(dS.transpose(1, 0, 2), h)[jj, ii]
        return np.matmul(dS.transpose(1, 2, 0), p) if wants_dh else None


class BatchColumnOuterModel(BatchColumnOuterGemms, DagfmModel):
    pass


class BatchColumnOuterPlusModel(BatchColumnOuterGemms, DagfmPlusModel):
    pass


class TestOuterOrientation:
    """An ``outer`` layer's edge-scalar GEMMs run per field as (B, d) x
    (d, n) products over the contiguous ``pT`` (forward) and ``qT``
    (backward), written F-ordered into ``S`` and ``dS``. Those are other
    BLAS calls than the (n, d) x (d, B) products of
    ``BatchColumnOuterGemms``, so the two agree within 1e-13 of the largest
    entry (the numerics contract in README). A layer's pair ``(pT, q)`` is
    laid out once per store version; its backward transposes the pair that
    the forward read."""

    @staticmethod
    def models(plus, m, d, rng, layers=3):
        spec = DagfmSpec("outer", m, d, layers)
        if plus:
            spec = DagfmPlusSpec(spec, mlp_hidden=(8,))
        model = (DagfmPlusModel if plus else DagfmModel)(spec, [4] * m, seed=m + d)
        perturb_params(model, rng)
        reference = (BatchColumnOuterPlusModel if plus else BatchColumnOuterModel).from_values(
            spec, model.vocab_sizes, model.store.snapshot()
        )
        return model, reference

    @pytest.mark.parametrize("d", [4, 16, 32])
    @pytest.mark.parametrize("m", [8, 39])
    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    def test_matches_the_batch_column_products(self, plus, frozen, m, d, rng):
        model, reference = self.models(plus, m, d, rng)
        if frozen:
            model.store.freeze("emb")
            reference.store.freeze("emb")
        for batch in (1, 2, 5, 19, 20, 21, 255, 256, 512):
            idx = rng.integers(0, 4, size=(batch, m))
            assert_logits_and_grads_close(model, reference, idx, rng, rtol=1e-13)

    def test_adam_step_lays_out_the_pair_again(self, rng):
        model, _ = self.models(False, 23, 4, rng, layers=2)
        idx = rng.integers(0, 4, size=(30, 23))
        model.forward(idx)
        before = model._kept_layout[1]
        adam_step(model.store, model.backward(np.ones(30)), lr=1e-2)
        model.forward(idx)
        after = model._kept_layout[1]
        stepped = BatchColumnOuterModel.from_values(model.spec, model.vocab_sizes,
                                                     model.store.snapshot())
        for (old_pT, _), (pT, q), (p_ref, q_ref) in zip(before, after, stepped._lay_out()):
            np.testing.assert_array_equal(pT, p_ref.transpose(0, 2, 1))
            np.testing.assert_array_equal(q, q_ref)
            assert not np.array_equal(pT, old_pT)
            for a in (pT, q):
                assert a.flags.c_contiguous and not a.flags.writeable

    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    def test_a_write_between_forward_and_backward_is_a_typed_error(self, plus, rng):
        model, _ = self.models(plus, 23, 4, rng, layers=2)
        idx = rng.integers(0, 4, size=(30, 23))
        dlogits = rng.normal(size=30)
        model.forward(idx)
        model.store.set("dag.p0", model.store["dag.p0"] + 1.0)
        with pytest.raises(ConfigurationError, match="written since"):
            model.backward(dlogits)
        # a forward on the new weights runs backward again, as a fresh model
        model.forward(idx)
        fresh = type(model).from_values(model.spec, model.vocab_sizes, model.store.snapshot())
        fresh.forward(idx)
        assert_same_bits(model.backward(dlogits), fresh.backward(dlogits))


class KeptAggregateModel(DagfmModel):
    """The student as it ran when a forward with a trainable table kept each
    layer's aggregate on its tape: a fresh array from the layer's GEMMs,
    multiplied by the embeddings into the next slot, and read by backward
    for the table's share ``dh * agg`` before the layer's backward GEMMs,
    which then form no aggregate again. The model keeps no aggregate and
    forms each one again from its tape by the forward's calls, so it
    matches this bit for bit."""

    def _forward(self, rows, keep):
        L, m, d = self.dag.num_layers, self.num_fields, self.embed_dim
        B = len(rows)
        H = np.empty((L + 1, m, B, d))
        E = H[0]
        self.embedding.lookup(rows, out=E)
        gemm, plan = self._layer_gemms[0], self._plan(B)
        keep_agg = keep and self.store.is_trainable("emb")
        aggs = []
        for t, w in enumerate(self._layout()):
            agg = gemm(self, H[t], w, plan, None if keep_agg else H[t + 1])
            np.multiply(agg, E, out=H[t + 1])
            aggs.append(agg if keep_agg else None)
        pooled = (H.reshape(-1, d) @ np.ones(d)).reshape((L + 1) * m, B)
        return self._head(pooled.T), (H, pooled, aggs) if keep else None

    def _backward(self, tape, dlogits, extra_dstate=None):
        H, pooled, aggs = tape
        n_states, m, B, _ = H.shape
        grads, dpool = self._head_backward(pooled.T, dlogits)
        dpool = dpool.T.reshape(n_states, m, B, 1)

        def dstate(t, dh):
            dh = dpool[t] if dh is None else np.add(dh, dpool[t], out=dh)
            extra = None if extra_dstate is None else extra_dstate(t)
            return dh if extra is None else dh + extra

        E = H[0]
        layouts, plan = self._layout(), self._plan(B)
        dh = dstate(n_states - 1, None)
        dE = np.zeros_like(E) if self.store.is_trainable("emb") else None
        for t in range(n_states - 2, -1, -1):
            agg = aggs.pop()
            if dE is not None:
                dE += dh * agg
            wants_dh = t > 0 or dE is not None
            dh = self._layer_gemms[1](self, t, H[t], dh, dh * E, layouts[t], plan, grads, None,
                                      wants_dh)
            if wants_dh:
                dh = dstate(t, dh)
        if dE is None:
            return grads, None
        dE += dh
        return grads, dE.transpose(1, 0, 2)


class KeptAggregatePlusModel(DagfmPlusModel, KeptAggregateModel):
    pass


class TestAggregateFormedAgain:
    """Every combiner, and DAGFM+, keeps no aggregate on its tape: a
    backward that takes the table's gradient forms each layer's aggregate
    again. Logits and every gradient are bitwise those of
    :class:`KeptAggregateModel`, on both sides of ``SMALL_ROWS``, with the
    table trainable or frozen."""

    BATCHES = (1, interactions.SMALL_ROWS - 1, interactions.SMALL_ROWS, 300, 512)

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("m", [8, 39])
    @pytest.mark.parametrize("family", [*KINDS, "dagfm+"])
    def test_matches_the_kept_aggregates_bitwise(self, family, m, frozen, rng):
        spec = DagfmSpec("outer" if family == "dagfm+" else family, m, 16, 3)
        if family == "dagfm+":
            spec = DagfmPlusSpec(spec, mlp_hidden=(8,))
        vocab = [4] * m
        model = build_model(spec, vocab, seed=m)
        perturb_params(model, rng)
        kept = (KeptAggregatePlusModel if family == "dagfm+" else KeptAggregateModel).from_values(
            spec, vocab, model.store.snapshot())
        if frozen:
            model.store.freeze("emb")
            kept.store.freeze("emb")
        for batch in self.BATCHES:
            idx = rng.integers(0, 4, size=(batch, m))
            assert model.forward(idx).tobytes() == kept.forward(idx).tobytes(), batch
            dlogits = rng.normal(size=batch)
            grads = model.backward(dlogits)
            assert ("emb" in grads) != frozen
            assert_same_bits(grads, kept.backward(dlogits))


class TestTapeMemory:
    """A forward's tape holds the student's state buffer, the pooled values
    and the batch's table rows, whether or not the table is trainable: within
    1 MB of (L+1) m B d floats, and no layer's aggregate, (m, m, B) edge
    scalars or copy of DAGFM+'s tower input. A trainable step peaks at most
    one state set (the table's gradient) and 0.5 MB above a frozen one. A
    backward consumes the tape of every family: the model then holds nothing
    but the gradients it returned. Measured with tracemalloc at m=39, d=16
    and B=512, after a first step has laid out the weights."""

    M, D, B = 39, 16, 512
    VOCAB = [4] * M
    STATE_SET = M * B * D * 8

    def traced_step(self, model, rng):
        """The bytes a forward's tape holds, those the model still holds
        after its backward beyond the logits and the gradients returned, and
        the traced peak of the whole step."""
        idx = rng.integers(0, 4, size=(self.B, self.M))
        dlogits = rng.normal(size=self.B)
        model.forward(idx)
        model.backward(dlogits)
        tracemalloc.start()
        try:
            logits = model.forward(idx)
            tape = tracemalloc.get_traced_memory()[0] - logits.nbytes
            grads = model.backward(dlogits)
            returned = sum(g.rows.nbytes + g.values.nbytes if isinstance(g, RowGrad) else g.nbytes
                           for g in grads.values())
            held, peak = tracemalloc.get_traced_memory()
            held -= logits.nbytes + returned
        finally:
            tracemalloc.stop()
        return tape, held, peak

    @staticmethod
    def student(plus, frozen, L=3):
        spec = DagfmSpec("outer", TestTapeMemory.M, TestTapeMemory.D, L)
        if plus:
            spec = DagfmPlusSpec(spec, mlp_hidden=(8,))
        model = build_model(spec, TestTapeMemory.VOCAB)
        if frozen:
            model.store.freeze("emb")
        return model

    @pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    def test_the_student_tape_follows_the_state_width(self, plus, frozen, rng):
        L = 3
        tape, held, _ = self.traced_step(self.student(plus, frozen, L), rng)
        states = (L + 1) * self.STATE_SET
        assert states <= tape < states + 1_000_000, (tape, states)
        assert held < 1 << 16, held

    @pytest.mark.parametrize("plus", [False, True], ids=["outer", "dagfm+"])
    def test_a_trainable_table_costs_one_state_set_at_the_peak(self, plus, rng):
        trainable, frozen = (self.traced_step(self.student(plus, f), rng) for f in (False, True))
        assert abs(trainable[0] - frozen[0]) < 1_000_000, (trainable[0], frozen[0])
        assert trainable[2] <= frozen[2] + self.STATE_SET + 500_000, (trainable[2], frozen[2])

    def traced_backward_peak(self, model, rng):
        """The traced peak of a backward, counted from the end of its forward."""
        idx = rng.integers(0, 4, size=(self.B, self.M))
        dlogits = rng.normal(size=self.B)
        model.forward(idx)
        model.backward(dlogits)
        model.forward(idx)
        tracemalloc.start()
        try:
            model.backward(dlogits)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_tower_input_gradient_goes_state_by_state(self, rng):
        # the all-states tower's input gradient is (L+1) m B d floats, 10.2 MB
        # here; formed one state's share at a time, the DAGFM+ backward peaks
        # within 4 MB of the plain student's
        spec = DagfmSpec("outer", self.M, self.D, 3)
        plain = self.traced_backward_peak(build_model(spec, self.VOCAB), rng)
        plus = self.traced_backward_peak(
            build_model(DagfmPlusSpec(spec, mlp_hidden=(8,)), self.VOCAB), rng)
        assert plus < plain + 4_000_000, (plus, plain)

    @pytest.mark.parametrize("spec", [
        CinSpec(M, D, (16, 16)), CrossNetSpec(M, D, 3), FwfmSpec(M, D), FmfmSpec(M, 8),
        TinyMlpSpec(M, D, hidden=(64,)),
    ], ids=lambda spec: type(spec).__name__)
    def test_backward_leaves_only_its_gradients(self, spec, rng):
        tape, held, _ = self.traced_step(build_model(spec, self.VOCAB), rng)
        assert tape > 1 << 20
        assert held < 1 << 16, held


class TestTape:
    """``Model.forward`` keeps one tape, for ``backward``, and builds no
    trace; ``Model.score`` gives its logits and keeps no tape;
    ``forward_trace`` runs the student on a buffer of its own and returns
    views of it. The families' cores and the MLP tower keep no state."""

    FAMILIES = {
        **{kind: DagfmSpec(kind, 5, 3, 2) for kind in KINDS},
        **{
            f"dagfm+-{feed}": DagfmPlusSpec(DagfmSpec("outer", 5, 3, 2), mlp_hidden=(4,), mlp_feed=feed)
            for feed in ("all-states", "final-state")
        },
    }

    @staticmethod
    def model(spec, rng):
        model = (DagfmPlusModel if isinstance(spec, DagfmPlusSpec) else DagfmModel)(spec, [3] * 5)
        perturb_params(model, rng)
        return model

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_forward_is_the_traced_forward(self, name, rng):
        model = self.model(self.FAMILIES[name], rng)
        for batch in (0, 1, 4):
            idx = rng.integers(0, 3, size=(batch, 5))
            assert model.forward(idx).tobytes() == model.forward_trace(idx)[0].tobytes()

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_a_trace_keeps_its_values_after_later_forwards(self, name, rng):
        model = self.model(self.FAMILIES[name], rng)
        idx = rng.integers(0, 3, size=(4, 5))
        logits, trace = model.forward_trace(idx)
        kept = [s.copy() for s in trace.node_states], trace.pooled.copy(), trace.pooled_concat.copy()
        model.forward(rng.integers(0, 3, size=(4, 5)))
        model.forward_trace(rng.integers(0, 3, size=(4, 5)))
        model.backward(np.ones(4))
        for state, before in zip(trace.node_states, kept[0]):
            np.testing.assert_array_equal(state, before)
        np.testing.assert_array_equal(trace.pooled, kept[1])
        np.testing.assert_array_equal(trace.pooled_concat, kept[2])
        assert model.forward(idx).tobytes() == logits.tobytes()

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_a_trace_leaves_the_live_tape_alone(self, name, rng):
        model = self.model(self.FAMILIES[name], rng)
        a, b = rng.integers(0, 3, size=(2, 4, 5))
        dlogits = rng.normal(size=4)
        model.forward(a)
        model.forward_trace(b)
        traced = model.backward(dlogits)
        model.forward(a)
        assert_same_bits(traced, model.backward(dlogits))

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_backward_without_a_tape_is_a_typed_error(self, tag, rng):
        model, idx, _ = random_small_model(tag, rng)
        dlogits = np.ones(len(idx))
        with pytest.raises(ConfigurationError, match="forward"):
            model.backward(dlogits)  # no forward yet
        model.forward(idx)
        model.backward(dlogits)
        bad = idx.copy()
        bad[-1, -1] = model.vocab_sizes[-1]
        with pytest.raises(IndexError):
            model.forward(bad)
        with pytest.raises(ConfigurationError, match="forward"):
            model.backward(dlogits)  # not the batch before the failed call

    @pytest.mark.parametrize("write", ["set", "adam_step"])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_backward_after_a_store_write_is_a_typed_error(self, tag, write, rng):
        model, idx, _ = random_small_model(tag, rng)
        dlogits = rng.normal(size=len(idx))
        model.forward(idx)
        grads = model.backward(dlogits)
        model.forward(idx)
        if write == "set":
            name = model.store.names()[-1]
            model.store.set(name, model.store[name] * 2.0)
        else:
            adam_step(model.store, grads, lr=1e-2)
        with pytest.raises(ConfigurationError, match="written since") as raised:
            model.backward(dlogits)
        assert not isinstance(raised.value, ShapeError)
        model.forward(idx)
        model.backward(dlogits)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_a_second_backward_is_a_typed_error(self, tag, rng):
        model, idx, _ = random_small_model(tag, rng)
        dlogits = rng.normal(size=len(idx))
        model.forward(idx)
        first = model.backward(dlogits)
        assert model._cache is None  # the backward consumed the tape
        with pytest.raises(ConfigurationError, match="consumed its tape"):
            model.backward(dlogits)
        model.forward(idx)
        assert_same_bits(first, model.backward(dlogits))

    @pytest.mark.parametrize("change", ["frozen", "unfrozen"])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_freezing_the_table_between_forward_and_backward_is_a_typed_error(
        self, tag, change, rng
    ):
        model, idx, _ = random_small_model(tag, rng)
        dlogits = rng.normal(size=len(idx))
        if change == "unfrozen":
            model.store.freeze("emb")
        model.forward(idx)
        if change == "frozen":
            model.store.freeze("emb")
        else:
            model.store.unfreeze_all()
        with pytest.raises(ConfigurationError, match=f"table was {change} since"):
            model.backward(dlogits)
        model.forward(idx)
        assert ("emb" in model.backward(dlogits)) == (change == "unfrozen")

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_dlogits_of_another_shape_is_a_shape_error(self, tag, rng):
        model, idx, _ = random_small_model(tag, rng)
        B = len(idx)
        model.forward(idx)
        for shape in [(1,), (), (B, 1), (B + 1,)]:
            with pytest.raises(ShapeError, match=rf"\({B},\)"):
                model.backward(np.ones(shape))
        model.backward(np.ones(B))  # the tape is still the forward's

    @pytest.mark.parametrize("cls", MODELS)
    def test_only_the_base_keeps_the_tape(self, cls):
        # every family is a pure core under Model's forward, score and backward
        for owner in cls.__mro__[: cls.__mro__.index(Model)]:
            assert not {"forward", "score", "backward", "_cache"} & set(vars(owner)), owner

    # every family, DAGFM+ with each feed, and an m=39 student whose forward
    # runs the field blocks from SMALL_ROWS rows on
    SCORED = (*MODEL_TAGS, "dagfm+-all-states", "dagfm+-final-state", "dagfm-outer-m39")

    @staticmethod
    def scored_model(tag, rng):
        if tag == "dagfm-outer-m39":
            model = DagfmModel(DagfmSpec("outer", 39, 4, 2), [3] * 39)
        elif tag.startswith("dagfm+-"):
            spec = DagfmPlusSpec(DagfmSpec("outer", 4, 3, 2), mlp_hidden=(5, 4),
                                 mlp_feed=tag[len("dagfm+-"):])
            model = DagfmPlusModel(spec, [3] * 4)
        else:
            return random_small_model(tag, rng)[0]
        perturb_params(model, rng)
        return model

    @pytest.mark.parametrize("tag", SCORED)
    def test_score_is_forward_bitwise(self, tag, rng):
        model = self.scored_model(tag, rng)
        for batch in (0, 1, interactions.SMALL_ROWS - 1, 2 * SCORE_ROWS + 37):
            idx = np.stack([rng.integers(0, v, size=batch) for v in model.vocab_sizes], axis=1)
            assert model.score(idx).tobytes() == model.forward(idx).tobytes(), batch

    @pytest.mark.parametrize("tag", SCORED)
    def test_no_tape_carries_a_weight(self, tag, rng):
        # a tape holds only what its forward computed from the batch; a
        # backward reads the weights and their layouts again
        model = self.scored_model(tag, rng)
        rows = interactions.SMALL_ROWS
        model.forward(np.stack([rng.integers(0, v, size=rows) for v in model.vocab_sizes], axis=1))
        weights = [model.store[name] for name in model.store.names()]
        weights += arrays_in(model._kept_layout)
        tape = arrays_in(model._cache[1])
        assert tape
        for a in tape:
            assert not any(np.shares_memory(a, w) for w in weights)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_scoring_leaves_the_live_tape_alone(self, tag, rng):
        model, idx, _ = random_small_model(tag, rng)
        other = np.stack([rng.integers(0, v, size=7) for v in model.vocab_sizes], axis=1)
        dlogits = rng.normal(size=len(idx))
        model.forward(idx)
        predict_logits(model, other)
        scored = model.backward(dlogits)
        model.forward(idx)
        assert_same_bits(scored, model.backward(dlogits))

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_scoring_leaves_no_tape_to_run_backward_on(self, tag, rng):
        model, idx, _ = random_small_model(tag, rng)
        predict_logits(model, idx)
        with pytest.raises(ConfigurationError, match="forward"):
            model.backward(np.ones(len(idx)))

    def test_the_tower_keeps_no_state(self, rng):
        model, _, _ = random_small_model("dagfm+", rng)
        tower = model.mlp
        state = dict(vars(tower))
        width = model.spec.mlp_input_width
        x, y = rng.normal(size=(2, 3, width))
        dout = rng.normal(size=3)
        out, tape = tower.forward(x)
        tower.forward(y)
        grads = {}
        dx = tower.backward(x, tape, dout, grads)
        assert vars(tower) == state
        fresh_out, fresh_tape = tower.forward(x)
        fresh = {}
        fresh_dx = tower.backward(x, fresh_tape, dout, fresh)
        assert_same_bits(
            {"out": out, "dx": dx, **grads}, {"out": fresh_out, "dx": fresh_dx, **fresh}
        )

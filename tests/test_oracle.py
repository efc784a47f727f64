"""Brute-force enumeration oracle and DP-vs-enumeration certification."""

import math

import numpy as np
import pytest
import sympy

from dagfm.interactions import DagfmModel, DagfmSpec, full_dag_pairs
from dagfm.numcore import ConfigurationError
from dagfm.oracle import (
    DEVIATION_FLOOR,
    MAX_ORACLE_FIELDS,
    MAX_ORACLE_ORDER,
    DpEquivalenceReport,
    assert_dp_equivalence,
    enumerate_suffix_set,
    oracle_node_state,
    oracle_node_state_weighted,
    outer_kernel_equivalence,
    suffix_set_size,
)


# ---------------------------------------------------------------------------
# suffix-set enumeration
# ---------------------------------------------------------------------------


class TestSuffixSets:
    def test_order_two_node_three(self):
        assert enumerate_suffix_set(3, 2) == [(1, 3), (2, 3), (3, 3)]

    def test_order_three_node_three(self):
        tuples = enumerate_suffix_set(3, 3)
        assert len(tuples) == 6
        assert tuples == [
            (1, 1, 3),
            (1, 2, 3),
            (1, 3, 3),
            (2, 2, 3),
            (2, 3, 3),
            (3, 3, 3),
        ]

    def test_order_one_is_the_node_itself(self):
        assert enumerate_suffix_set(4, 1) == [(4,)]

    @pytest.mark.parametrize("i", range(1, 7))
    @pytest.mark.parametrize("t", range(1, 6))
    def test_closed_form_size(self, i, t):
        tuples = enumerate_suffix_set(i, t)
        assert suffix_set_size(i, t) == len(tuples)
        assert suffix_set_size(i, t) == math.comb(i + t - 2, t - 1)

    @pytest.mark.parametrize("i,t", [(3, 3), (5, 4), (6, 5)])
    def test_tuples_are_sorted_unique_and_end_at_i(self, i, t):
        tuples = enumerate_suffix_set(i, t)
        assert len(set(tuples)) == len(tuples)
        for tup in tuples:
            assert tup[-1] == i
            assert all(a <= b for a, b in zip(tup, tup[1:]))

    def test_order_cap_and_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            enumerate_suffix_set(3, MAX_ORACLE_ORDER + 1)
        with pytest.raises(ConfigurationError):
            enumerate_suffix_set(0, 2)
        with pytest.raises(ConfigurationError):
            suffix_set_size(1, 0)


# ---------------------------------------------------------------------------
# identity-weight oracle
# ---------------------------------------------------------------------------


class TestOracleNodeState:
    def test_scalar_example(self):
        # fields 1, 2, 3 with scalar embeddings 1, 2, 3
        emb = np.array([[1.0], [2.0], [3.0]])
        assert oracle_node_state(emb, 3, 2)[0] == pytest.approx(18.0)
        assert oracle_node_state(emb, 3, 3)[0] == pytest.approx(75.0)
        assert oracle_node_state(emb, 1, 1)[0] == pytest.approx(1.0)

    def test_vector_embeddings(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        # node 2, order 2: e1*e2 + e2*e2
        expected = emb[0] * emb[1] + emb[1] * emb[1]
        assert np.allclose(oracle_node_state(emb, 2, 2), expected)

    def test_node_out_of_range(self):
        emb = np.ones((3, 2))
        with pytest.raises(ConfigurationError):
            oracle_node_state(emb, 4, 2)
        with pytest.raises(ConfigurationError):
            oracle_node_state(emb, 0, 1)

    def test_symbolic_recurrence_matches_enumeration(self):
        # expand the propagation recurrence with symbolic scalar embeddings
        # and check it equals the suffix-tuple product sum, term by term
        m = 3
        syms = sympy.symbols("e1:4")
        states = [list(syms)]
        for _ in range(3):
            prev = states[-1]
            states.append(
                [sympy.expand(sum(prev[: i + 1]) * syms[i]) for i in range(m)]
            )
        for t in range(1, 4):
            for i in range(1, m + 1):
                enumerated = sympy.expand(
                    sum(
                        sympy.prod([syms[j - 1] for j in tup])
                        for tup in enumerate_suffix_set(i, t)
                    )
                )
                assert sympy.simplify(states[t - 1][i - 1] - enumerated) == 0


# ---------------------------------------------------------------------------
# weighted path-fold oracle
# ---------------------------------------------------------------------------


def identity_weights(kind: str, m: int, d: int, layers: int) -> list[dict]:
    table = {}
    for j, i in full_dag_pairs(m):
        if kind == "basic-inner":
            table[(j + 1, i + 1)] = None
        elif kind == "inner":
            table[(j + 1, i + 1)] = np.ones(d)
        elif kind == "kernel":
            table[(j + 1, i + 1)] = np.eye(d)
        else:
            table[(j + 1, i + 1)] = (np.ones(d), np.ones(d))
    return [dict(table) for _ in range(layers)]


class TestWeightedOracle:
    @pytest.mark.parametrize("kind", ["basic-inner", "inner", "kernel"])
    def test_identity_weights_reduce_to_plain_oracle(self, kind, rng):
        m, d = 4, 3
        emb = rng.normal(size=(m, d))
        weights = identity_weights(kind, m, d, 3)
        for t in range(1, 5):
            for i in range(1, m + 1):
                assert np.allclose(
                    oracle_node_state_weighted(kind, emb, weights, i, t),
                    oracle_node_state(emb, i, t),
                    rtol=1e-12,
                )

    def test_outer_identity_at_dim_one(self, rng):
        emb = rng.normal(size=(3, 1))
        weights = identity_weights("outer", 3, 1, 2)
        for t in range(1, 4):
            for i in range(1, 4):
                assert np.allclose(
                    oracle_node_state_weighted("outer", emb, weights, i, t),
                    oracle_node_state(emb, i, t),
                    rtol=1e-12,
                )

    @pytest.mark.parametrize("kind", ["basic-inner", "inner", "kernel", "outer"])
    def test_matches_propagation_at_random_weights(self, kind):
        # the fold is linear in its first argument, so unrolling the DP
        # path by path is exact at *any* weights, not just identity
        from dagfm.oracle import _model_edge_weights

        m, d, layers = 3, 2, 2
        rng = np.random.default_rng(17)
        emb = rng.normal(size=(m, d))
        model = DagfmModel(DagfmSpec(kind, m, d, layers), [1] * m, seed=5)
        model.store.set("emb", emb)
        weights = _model_edge_weights(model)
        _, trace = model.forward_trace(np.zeros((1, m), dtype=np.int64))
        for t in range(1, layers + 2):
            for i in range(1, m + 1):
                expected = oracle_node_state_weighted(kind, emb, weights, i, t)
                got = trace.node_states[t - 1][0, i - 1]
                assert np.allclose(got, expected, rtol=1e-10, atol=1e-12), (kind, t, i)

    def test_sparse_edges_fold_over_present_edges_only(self):
        # a tuple such as (2, 4) walks an edge the student lacks: no path,
        # so it contributes zero instead of failing the table lookup
        from dagfm.oracle import _model_edge_weights

        spec = DagfmSpec("outer", 4, 2, 2, edges=((0, 0), (1, 1), (2, 2), (3, 3), (0, 3)))
        rng = np.random.default_rng(23)
        emb = rng.normal(size=(4, 2))
        model = DagfmModel(spec, [1] * 4, seed=5)
        model.store.set("emb", emb)
        weights = _model_edge_weights(model)
        _, trace = model.forward_trace(np.zeros((1, 4), dtype=np.int64))
        for t in range(1, spec.num_layers + 2):
            for i in range(1, 5):
                expected = oracle_node_state_weighted("outer", emb, weights, i, t)
                got = trace.node_states[t - 1][0, i - 1]
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12,
                                           err_msg=f"order {t}, node {i}")

    def test_missing_weight_layers_raise(self, rng):
        emb = rng.normal(size=(2, 1))
        with pytest.raises(ConfigurationError):
            oracle_node_state_weighted("inner", emb, [], 2, 3)

    def test_unknown_kind_raises(self, rng):
        emb = rng.normal(size=(2, 1))
        weights = identity_weights("inner", 2, 1, 1)
        with pytest.raises(ConfigurationError):
            oracle_node_state_weighted("cubic", emb, weights, 2, 2)


# ---------------------------------------------------------------------------
# end-to-end certification
# ---------------------------------------------------------------------------


class TestDpEquivalence:
    @pytest.mark.parametrize("kind", ["basic-inner", "inner", "kernel", "outer"])
    def test_small_grid_passes(self, kind):
        report = assert_dp_equivalence(kind, 3, 2, 2)
        assert report.passed
        assert report.max_deviation < 1e-10
        assert "OK" in str(report)

    def test_report_lists_every_node_and_order(self):
        report = assert_dp_equivalence("inner", 3, 1, 2)
        # orders 1..layers+1, nodes 1..m
        assert set(report.deviations) == {
            (t, i) for t in (1, 2, 3) for i in (1, 2, 3)
        }
        assert str(report).count("order") == 9

    def test_size_caps(self):
        with pytest.raises(ConfigurationError):
            assert_dp_equivalence("inner", MAX_ORACLE_FIELDS + 1, 1, 1)
        with pytest.raises(ConfigurationError):
            assert_dp_equivalence("inner", 3, 1, MAX_ORACLE_ORDER)

    def test_mismatch_raises_with_report(self, monkeypatch):
        import dagfm.oracle as oracle_mod

        def wrong_state(kind, embeddings, edge_weights, i, t):
            return oracle_node_state_weighted(kind, embeddings, edge_weights, i, t) + 1.0

        monkeypatch.setattr(oracle_mod, "oracle_node_state_weighted", wrong_state)
        with pytest.raises(AssertionError, match="MISMATCH"):
            assert_dp_equivalence("inner", 3, 2, 1)
        report = assert_dp_equivalence("inner", 3, 2, 1, raise_on_fail=False)
        assert not report.passed

    def test_report_str_marks_bad_rows(self):
        report = DpEquivalenceReport(
            kind="inner",
            num_fields=2,
            embed_dim=1,
            num_layers=1,
            tol=1e-10,
            max_deviation=0.5,
            deviations={(1, 1): 0.0, (2, 2): 0.5},
        )
        assert not report.passed
        text = str(report)
        assert "MISMATCH" in text and "<-- MISMATCH" in text

    def test_identity_model_states_match_plain_oracle(self, rng):
        # a fresh inner or kernel student starts at its identity weights, so
        # its states are the plain product sums with no weights set
        emb = rng.normal(size=(3, 2))
        for kind in ("inner", "kernel"):
            model = DagfmModel(DagfmSpec(kind, 3, 2, 2), [1] * 3, seed=int(rng.integers(1 << 30)))
            model.store.set("emb", emb)
            _, trace = model.forward_trace(np.zeros((1, 3), dtype=np.int64))
            for t in range(1, 4):
                for i in range(1, 4):
                    assert np.allclose(
                        trace.node_states[t - 1][0, i - 1],
                        oracle_node_state(emb, i, t),
                        rtol=1e-10,
                        atol=1e-12,
                    ), (kind, t, i)

    def test_deviation_floor_value(self):
        assert DEVIATION_FLOOR == 1e-12


class TestOuterKernelEquivalence:
    @pytest.mark.parametrize("m,d,layers", [(2, 1, 1), (3, 2, 2), (4, 3, 3)])
    def test_rank_one_kernel_matches_outer(self, m, d, layers):
        dev = outer_kernel_equivalence(m, d, layers, seed=m * 10 + d)
        assert dev < 1e-10

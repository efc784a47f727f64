"""Ranking metrics, parameter/FLOP accounting, and a wall-clock check of the
efficiency claim."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from dagfm.checkpoint import MODELS
from dagfm.interactions import (
    DagfmModel,
    DagfmPlusModel,
    DagfmPlusSpec,
    DagfmSpec,
)
from dagfm.metrics import (
    FlopCount,
    ParamCount,
    UndefinedMetricError,
    auc,
    count_flops,
    count_params,
    efficiency_report,
    instrumented_flops,
    logloss,
)
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
)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 0], [0.9, 0.1]) == 1.0

    def test_perfectly_wrong(self):
        assert auc([1, 0], [0.1, 0.9]) == 0.0

    def test_all_tied_scores(self):
        assert auc([1, 0, 1, 0], [0.7, 0.7, 0.7, 0.7]) == 0.5

    def test_mixed_example(self):
        # positives at 0.3 and 0.1, negative at 0.2: one concordant pair,
        # one discordant
        assert auc([1, 0, 1], [0.3, 0.2, 0.1]) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        scores = rng.normal(size=200)
        base = auc(labels, scores)
        assert auc(labels, 3.0 * scores + 1.0) == base
        assert auc(labels, np.exp(scores)) == base

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([1, 1], [0.2, 0.4])
        with pytest.raises(UndefinedMetricError):
            auc([0, 0, 0], [0.2, 0.4, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_undefined(self, bad):
        with pytest.raises(UndefinedMetricError, match="non-finite"):
            auc([0, 1, 0, 1], [0.1, bad, 0.3, 0.7])

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            auc([1, 0], [0.5])

    @pytest.mark.parametrize("levels", [None, 7, 300])
    def test_matches_brute_force_pairs_with_ties(self, levels):
        # every positive/negative pair at n = 2000: concordant 1, tied 1/2
        rng = np.random.default_rng(levels or 0)
        n = 2000
        labels = rng.integers(0, 2, size=n)
        scores = rng.normal(size=n) if levels is None else rng.integers(0, levels, size=n) * 0.1
        sp, sn = scores[labels == 1][:, None], scores[labels == 0][None, :]
        expected = ((sp > sn).sum() + 0.5 * (sp == sn).sum()) / (sp.size * sn.size)
        assert auc(labels, scores) == pytest.approx(expected, rel=1e-12)

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3)),
            min_size=2,
            max_size=40,
        )
    )
    def test_matches_pair_counting(self, pairs):
        labels = np.array([label for label, _ in pairs])
        scores = np.array([score for _, score in pairs], dtype=float)
        assume(0 < labels.sum() < len(labels))
        concordant = 0.0
        n_pairs = 0
        for sp in scores[labels == 1]:
            for sn in scores[labels == 0]:
                n_pairs += 1
                concordant += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
        assert auc(labels, scores) == pytest.approx(concordant / n_pairs, abs=1e-12)


class TestLogloss:
    def test_half_probability(self):
        assert logloss([1], [0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_asymmetric_example(self):
        assert logloss([1, 0], [0.9, 0.2]) == pytest.approx(0.164252, abs=1e-6)

    def test_clipping_keeps_it_finite(self):
        assert np.isfinite(logloss([1], [0.0]))
        assert logloss([1], [0.0]) == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            logloss([1, 0], [0.5])


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def spec_model_pairs():
    vocab = [3, 4, 5]
    out = []
    for kind in ("basic-inner", "inner", "kernel", "outer"):
        spec = DagfmSpec(kind, 3, 2, 2)
        out.append((spec, DagfmModel(spec, vocab, seed=0)))
    plus = DagfmPlusSpec(DagfmSpec("inner", 3, 2, 2), mlp_hidden=(7, 4))
    out.append((plus, DagfmPlusModel(plus, vocab, seed=0)))
    plus_final = DagfmPlusSpec(
        DagfmSpec("kernel", 3, 2, 1), mlp_hidden=(5,), mlp_feed="final-state"
    )
    out.append((plus_final, DagfmPlusModel(plus_final, vocab, seed=0)))
    spec = CinSpec(3, 2, (4, 2))
    out.append((spec, CinModel(spec, vocab, seed=0)))
    spec = CrossNetSpec(3, 2, 2)
    out.append((spec, CrossNetModel(spec, vocab, seed=0)))
    spec = FwfmSpec(3, 2)
    out.append((spec, FwfmModel(spec, vocab, seed=0)))
    spec = FmfmSpec(3, 2)
    out.append((spec, FmfmModel(spec, vocab, seed=0)))
    spec = TinyMlpSpec(3, 2, hidden=(5, 3))
    out.append((spec, TinyMlpModel(spec, vocab, seed=0)))
    # pruned DAGs: node 1 keeps only its self-edge, node 3 two of its four edges
    sparse = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 2), (0, 3))
    spec = DagfmSpec("outer", 4, 2, 2, edges=sparse)
    out.append((spec, DagfmModel(spec, vocab + [2], seed=0)))
    plus = DagfmPlusSpec(DagfmSpec("kernel", 4, 2, 2, edges=sparse), mlp_hidden=(3,))
    out.append((plus, DagfmPlusModel(plus, vocab + [2], seed=0)))
    return out


class TestParamCounts:
    def test_inner_closed_form_example(self):
        # 2 layers x 6 edges x d=2 edge vectors + head (3 fields x 3 state
        # sets + bias) = 24 + 10
        count = count_params(DagfmSpec("inner", 3, 2, 2), [1, 1, 1])
        assert count.non_embedding == 34

    def test_kernel_closed_form_example(self):
        # 2 x 6 x (2x2) matrices + 10 head params
        count = count_params(DagfmSpec("kernel", 3, 2, 2), [1, 1, 1])
        assert count.non_embedding == 58

    def test_zero_layer_spec_is_rejected(self):
        with pytest.raises(ConfigurationError):
            DagfmSpec("inner", 3, 2, 0)

    def test_embedding_scalars(self):
        count = count_params(DagfmSpec("basic-inner", 3, 2, 1), [3, 4, 5])
        assert count.embedding == 12 * 2
        assert count.total == count.embedding + count.non_embedding

    @pytest.mark.parametrize(
        "spec,model", spec_model_pairs(), ids=lambda x: type(x).__name__
    )
    def test_closed_form_matches_store_walk(self, spec, model):
        closed = count_params(spec, model.vocab_sizes)
        emb = model.store.n_scalars(model.embedding_names())
        assert closed == ParamCount(model.store.n_scalars() - emb, emb)

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigurationError):
            count_params(object(), [2, 2])

    def test_counting_allocates_no_parameters(self):
        tracemalloc.start()
        try:
            count = count_params(CinSpec(39, 16, (200, 200, 200)), [10**6] * 39)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count.non_embedding == 3_424_801
        assert peak < 2**20

    # the closed forms at m=39, d=16, depth 3 (the efficiency table's zoo):
    # L*P*per-edge + m*(L+1) + 1 for the student, H_k*H_{k-1}*m + sum(H) + 1
    # for CIN, L*(n^2 + n) + n + 1 for CrossNet at n = m*d, and so on
    PRODUCTION_SIZE = [
        (DagfmSpec("basic-inner", 39, 16, 3), 157),
        (DagfmSpec("inner", 39, 16, 3), 37_597),
        (DagfmSpec("kernel", 39, 16, 3), 599_197),
        (DagfmSpec("outer", 39, 16, 3), 75_037),
        (DagfmPlusSpec(DagfmSpec("outer", 39, 16, 3), mlp_hidden=(64, 32)), 236_958),
        (CinSpec(39, 16, (200, 200, 200)), 3_424_801),
        (CrossNetSpec(39, 16, 3), 1_170_625),
        (FwfmSpec(39, 16), 12_481),
        (FmfmSpec(39, 16), 190_321),
        (TinyMlpSpec(39, 16, hidden=(400, 400)), 410_801),
    ]

    @pytest.mark.parametrize("spec,expected", PRODUCTION_SIZE,
                             ids=lambda x: getattr(x, "kind", type(x).__name__))
    def test_production_size_counts_are_pinned(self, spec, expected):
        count = count_params(spec, [100] * 39)
        assert count.non_embedding == expected
        assert count.embedding == 39 * 100 * 16


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------


class TestFlopClosedForms:
    def test_inner_single_layer_example(self):
        # 6 edges x 2d mults, (P - m) d + m (d - 1) layer adds,
        # head 2 m (L+1) - 1 = 11
        flops = count_flops(DagfmSpec("inner", 3, 2, 1))
        assert (flops.mults, flops.adds) == (30, 14)
        assert flops.total == 44

    def test_flopcount_arithmetic(self):
        total = FlopCount(2, 3) + FlopCount(10, 20)
        assert total == FlopCount(12, 23)
        assert total.total == 35

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigurationError):
            count_flops(object())

    @pytest.mark.parametrize("cls", MODELS, ids=lambda cls: cls.kind)
    def test_every_family_declares_its_flops(self, cls):
        assert callable(getattr(cls.spec_type, "flops", None))

    # forward FLOPs of the production-size zoo whose parameters
    # TestParamCounts pins, as scripts/efficiency_table.py prints them
    PRODUCTION_FLOPS = [75_074, 112_514, 1_235_714, 185_054, 508_702,
                        164_362_199, 2_341_247, 36_815, 392_495, 819_999]

    @pytest.mark.parametrize(
        "spec,expected",
        [(spec, flops)
         for (spec, _), flops in zip(TestParamCounts.PRODUCTION_SIZE, PRODUCTION_FLOPS)],
        ids=lambda x: getattr(x, "kind", type(x).__name__),
    )
    def test_production_size_flops_are_pinned(self, spec, expected):
        assert count_flops(spec).total == expected

    @pytest.mark.parametrize(
        "spec,model", spec_model_pairs(), ids=lambda x: type(x).__name__
    )
    def test_instrumented_execution_agrees_exactly(self, spec, model, rng):
        idx_row = np.array([rng.integers(0, v) for v in model.vocab_sizes])
        logit, counted = instrumented_flops(model, idx_row)
        assert counted == count_flops(spec)
        reference = model.forward(idx_row[None, :])[0]
        assert logit == pytest.approx(reference, rel=1e-9, abs=1e-12)

    def test_compressed_network_dominates_the_student(self):
        # the headline efficiency gap at production-like sizes
        cin = count_flops(CinSpec(39, 16, (200, 200, 200)))
        student = count_flops(DagfmSpec("inner", 39, 16, 3))
        assert cin.total / student.total >= 10.0

    def test_crossnet_to_outer_ratio_grows_linearly_in_dim(self):
        ratios = []
        for d in (8, 16, 32):
            cross = count_flops(CrossNetSpec(10, d, 3)).total
            outer = count_flops(DagfmSpec("outer", 10, d, 3)).total
            ratios.append(cross / outer)
        assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.25)
        assert ratios[2] / ratios[1] == pytest.approx(2.0, rel=0.25)


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------


def _median_forward_ns(model, calls: int = 10, warmup: int = 2) -> float:
    """Median wall time of single-row forward passes in the calling thread."""
    row = np.zeros((1, model.num_fields), dtype=np.int64)
    for _ in range(warmup):
        model.forward(row)
    times = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        model.forward(row)
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times))


class TestLatency:
    def test_compressed_network_is_slower_than_student(self):
        vocab = [4] * 39
        cin = CinModel(CinSpec(39, 16, (200, 200, 200)), vocab, seed=0)
        student = DagfmModel(DagfmSpec("inner", 39, 16, 3), vocab, seed=0)
        assert _median_forward_ns(cin) > _median_forward_ns(student)


class TestEfficiencyReport:
    def test_dict_round_trip(self):
        model = DagfmModel(DagfmSpec("kernel", 3, 2, 2), [3, 3, 3], seed=0)
        report = efficiency_report(model)
        payload = report.as_dict()
        assert payload["params"]["non_embedding"] == 58
        assert payload["flops"]["total"] == count_flops(model.spec).total
        assert set(payload) == {"params", "flops"}

    def test_plus_model_uses_full_spec(self):
        plus = DagfmPlusSpec(DagfmSpec("inner", 3, 2, 1), mlp_hidden=(4,))
        model = DagfmPlusModel(plus, [2, 2, 2], seed=0)
        report = efficiency_report(model)
        assert report.params == count_params(plus, [2, 2, 2])
        assert report.flops == count_flops(plus)

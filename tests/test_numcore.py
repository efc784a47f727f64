"""Parameter store, Adam update rule, and the finite-difference harness."""

import tracemalloc

import numpy as np
import pytest

from conftest import held_moments, moment_rows, store_state
from dagfm.numcore import (
    ADAM_EPS,
    ConfigurationError,
    ParamStore,
    RowGrad,
    ShapeError,
    TrainingDivergenceError,
    adam_step,
    grad_check,
    stable_sigmoid,
)


def make_store(**params):
    store = ParamStore()
    for name, value in params.items():
        store.add(name, np.asarray(value, dtype=np.float64))
    return store


class TestParamStore:
    def test_add_and_get(self):
        store = make_store(a=[1.0, 2.0])
        assert np.array_equal(store["a"], [1.0, 2.0])
        assert store.names() == ["a"]
        assert "a" in store and "b" not in store

    def test_duplicate_name_rejected(self):
        store = make_store(a=1.0)
        with pytest.raises(ConfigurationError):
            store.add("a", np.zeros(1))

    def test_set_shape_checked(self):
        store = make_store(a=[1.0, 2.0])
        with pytest.raises(ShapeError):
            store.set("a", np.zeros(3))

    def test_set_copies_the_value(self):
        store = make_store(a=[1.0, 2.0])
        value = np.array([3.0, 4.0])
        store.set("a", value)
        assert store["a"] is not value
        value[0] = 99.0
        assert np.array_equal(store["a"], [3.0, 4.0])
        other = make_store(a=[0.0, 0.0])
        other.set("a", store["a"])  # same dtype and layout: still a copy
        store.set("a", [3.0, -1.0])
        assert np.array_equal(other["a"], [3.0, 4.0])

    def test_freeze_unfreeze(self):
        store = make_store(a=1.0, b=2.0)
        store.freeze("a")
        assert store.trainable_names() == ["b"]
        assert not store.is_trainable("a")
        store.unfreeze_all()
        assert store.trainable_names() == ["a", "b"]

    def test_snapshot_restore_roundtrip(self):
        store = make_store(a=[1.0, 2.0])
        snap = store.snapshot()
        store.set("a", [5.0, 6.0])
        store.restore(snap)
        assert np.array_equal(store["a"], [1.0, 2.0])

    def test_snapshot_is_a_copy(self):
        store = make_store(a=[1.0])
        snap = store.snapshot()
        snap["a"][0] = 99.0
        assert store["a"][0] == 1.0

    def test_n_scalars(self):
        store = make_store(a=np.zeros((2, 3)), b=np.zeros(4))
        assert store.n_scalars() == 10
        assert store.n_scalars(["b"]) == 4

    def test_parameters_are_read_only(self):
        store = make_store(a=np.zeros((2, 3)))
        for write in (lambda a: a.__setitem__(0, 1.0), lambda a: a.reshape(-1).fill(1.0)):
            with pytest.raises(ValueError):
                write(store["a"])
        assert not store["a"].any()

    def test_every_write_and_only_a_write_moves_the_version(self):
        store = make_store(a=[1.0, 2.0], b=[3.0])
        seen = [store.version]

        def moved() -> bool:
            seen.append(store.version)
            return seen[-1] != seen[-2]

        store["a"], store.snapshot(), store.names(), store.n_scalars()
        store.freeze("b")
        store.unfreeze_all()
        assert not moved()
        snap = store.snapshot()
        store.set("a", [5.0, 6.0])
        assert moved()
        store.put("a", 1, 7.0)
        assert moved() and np.array_equal(store["a"], [5.0, 7.0])
        store.restore(snap)
        assert moved()
        adam_step(store, {"a": np.ones(2), "b": np.ones(1)}, lr=0.1)
        assert moved()
        store.add("c", np.zeros(1))
        assert moved()

    def test_add_takes_the_array_it_is_given_and_locks_it(self):
        value = np.array([1.0, 2.0])
        store = make_store()
        store.add("a", value)
        assert np.shares_memory(store["a"], value)  # no copy
        with pytest.raises(ValueError):
            value[0] = 9.0
        adam_step(store, {"a": np.ones(2)}, lr=0.5)
        assert store["a"][0] == value[0] < 1.0  # the store writes where the caller reads

    @pytest.mark.parametrize("given", ["view", "read-only", "other store"])
    def test_add_copies_memory_it_cannot_lock(self, given):
        base = np.array([1.0, 2.0, 3.0])
        other = make_store(a=[1.0, 2.0])
        if given == "view":
            value = base[:2]
        elif given == "read-only":
            value = base[:2].copy()
            value.flags.writeable = False
        else:
            value = other["a"]
        store = make_store()
        store.add("a", value)
        assert not np.shares_memory(store["a"], value)
        base[0] = 9.0
        other.set("a", [9.0, 9.0])
        assert np.array_equal(store["a"], [1.0, 2.0])


class TestMomentsOnFirstUpdate:
    def test_fresh_store_holds_no_moments_and_reads_zeros(self):
        store = make_store(a=[1.0, 2.0], b=np.ones((2, 3)))
        for name in store.names():
            m, v = store.moments(name)
            assert m.shape == v.shape == store[name].shape
            assert not m.any() and not v.any()
            with pytest.raises(ValueError):
                m[0] = 1.0  # the zeros are no state of the store's to write
        assert held_moments(store) == set()

    def test_a_parameter_is_given_moments_by_its_first_update(self):
        store = make_store(a=[1.0, 2.0], b=[3.0])
        store.freeze("a")
        adam_step(store, {"a": np.ones(2), "b": np.ones(1)}, lr=0.1)
        assert held_moments(store) == {"b"}
        store.unfreeze_all()
        assert held_moments(store) == {"b"}
        adam_step(store, {"a": np.ones(2), "b": np.ones(1)}, lr=0.1)
        assert held_moments(store) == {"a", "b"}
        assert (store.step_count("a"), store.step_count("b")) == (1, 2)

    def test_moments_are_kept_through_freeze_and_read_only(self):
        store = make_store(a=[1.0, 2.0], b=[3.0])
        adam_step(store, {"a": np.ones(2), "b": np.ones(1)}, lr=0.1)
        before = [a.tobytes() for a in store.moments("a")]
        store.freeze("a")
        adam_step(store, {"b": np.ones(1)}, lr=0.1)
        store.unfreeze_all()
        assert [a.tobytes() for a in store.moments("a")] == before
        assert held_moments(store) == {"a", "b"}
        for moment in store.moments("a"):
            with pytest.raises(ValueError):
                moment[0] = 1.0

    def test_release_drops_moments_and_step_counts_and_keeps_values(self):
        store = make_store(a=[1.0, 2.0], b=[3.0])
        adam_step(store, {"a": np.ones(2), "b": np.ones(1)}, lr=0.1)
        values, version = [store[n].tobytes() for n in store.names()], store.version
        store.release_moments()
        assert held_moments(store) == set()
        assert store.step_count("a") == store.step_count("b") == 0
        assert [store[n].tobytes() for n in store.names()] == values
        assert store.version == version  # the parameters did not move
        # the next step starts afresh, as on a store that holds these values
        fresh = make_store(a=store["a"], b=store["b"])
        for s in (store, fresh):
            adam_step(s, {"a": np.full(2, 0.5), "b": np.ones(1)}, lr=0.1)
        assert store_state(store) == store_state(fresh)

    @pytest.mark.parametrize("bad", [np.array([1.0, np.inf]), np.ones(3)], ids=["inf", "shape"])
    def test_failed_first_step_allocates_none(self, bad):
        store = make_store(a=[1.0], b=[2.0, 3.0])
        with pytest.raises((TrainingDivergenceError, ShapeError), match="'b'"):
            adam_step(store, {"a": np.ones(1), "b": bad}, lr=0.1)
        assert held_moments(store) == set()
        assert store.step_count("a") == store.step_count("b") == 0


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update exactly -lr * g/(|g| + eps')
        store = make_store(x=[0.0])
        adam_step(store, {"x": np.ones(1)}, lr=1e-3)
        assert float(store["x"][0]) == pytest.approx(-1e-3, rel=1e-6)
        assert store.step_count("x") == 1

    def test_zero_grad_keeps_value(self):
        store = make_store(x=[3.0, -2.0])
        adam_step(store, {"x": np.zeros(2)}, lr=0.1)
        assert np.array_equal(store["x"], [3.0, -2.0])
        assert store.step_count("x") == 1

    def test_frozen_param_bitwise_unchanged(self):
        store = make_store(x=[0.123456789])
        before = store["x"].tobytes()
        store.freeze("x")
        adam_step(store, {"x": np.ones(1)}, lr=0.1)
        assert store["x"].tobytes() == before
        assert store.step_count("x") == 0

    def test_lr_zero_is_identity_on_values(self):
        rng = np.random.default_rng(0)
        store = make_store(x=rng.normal(size=5))
        before = store["x"].tobytes()
        for _ in range(3):
            adam_step(store, {"x": rng.normal(size=5)}, lr=0.0)
        assert store["x"].tobytes() == before
        assert store.step_count("x") == 3

    def test_unknown_grad_name_rejected(self):
        store = make_store(x=0.0)
        with pytest.raises(ConfigurationError):
            adam_step(store, {"x": np.asarray(0.0), "y": np.asarray(1.0)}, lr=0.1)

    def test_missing_grad_for_trainable_rejected(self):
        store = make_store(x=0.0, y=0.0)
        with pytest.raises(ConfigurationError):
            adam_step(store, {"x": np.asarray(1.0)}, lr=0.1)

    def test_grad_shape_mismatch_rejected(self):
        store = make_store(x=np.zeros(2))
        with pytest.raises(ShapeError):
            adam_step(store, {"x": np.zeros(3)}, lr=0.1)

    def test_raising_step_changes_nothing(self):
        # the last trainable gradient holds a NaN: the parameters before it,
        # their moments and step counts, and the version all stay as they were
        store = make_store(x=[1.0, 2.0], y=[3.0], z=[4.0, 5.0])
        adam_step(store, {"x": np.ones(2), "y": np.ones(1), "z": np.ones(2)}, lr=0.1)

        def state():
            return store.version, [
                (store[n].tobytes(), *(a.tobytes() for a in store.moments(n)), store.step_count(n))
                for n in store.names()
            ]

        before = state()
        grads = {"x": np.ones(2), "y": np.ones(1), "z": np.array([1.0, np.nan])}
        with pytest.raises(TrainingDivergenceError, match="'z'"):
            adam_step(store, grads, lr=0.1)
        assert state() == before

    def test_nonfinite_grad_names_parameter(self):
        store = make_store(weird=[0.0])
        with pytest.raises(TrainingDivergenceError, match="weird"):
            adam_step(store, {"weird": np.array([np.nan])}, lr=0.1)

    def test_negative_lr_rejected(self):
        store = make_store(x=0.0)
        with pytest.raises(ConfigurationError):
            adam_step(store, {"x": np.asarray(1.0)}, lr=-1e-3)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_non_finite_or_negative_setting_rejected(self, field, bad):
        store = make_store(x=[1.0])
        settings = {"lr": 1e-3, "weight_decay": 0.0, field: bad}
        with pytest.raises(ConfigurationError, match=field):
            adam_step(store, {"x": np.ones(1)}, **settings)
        assert store["x"][0] == 1.0 and store.step_count("x") == 0

    def test_weight_decay_pulls_toward_zero(self):
        store = make_store(x=[5.0])
        adam_step(store, {"x": np.zeros(1)}, lr=1e-2, weight_decay=1e-2)
        assert float(store["x"][0]) < 5.0

    def test_matches_reference_adam_trajectory(self):
        # independent reimplementation of bias-corrected Adam, bit for bit: a
        # table of two chunks (the second partial), weight decay off and on,
        # and a column-major gradient that adam_step must not write
        from dagfm.numcore import ADAM_CHUNK

        rng = np.random.default_rng(7)
        lr, b1, b2 = 3e-3, 0.9, 0.999
        for weight_decay in (0.0, 3e-4):
            theta = rng.normal(size=(ADAM_CHUNK // 3 + 1, 4))
            store = make_store(x=theta.copy())
            m, v = np.zeros_like(theta), np.zeros_like(theta)
            for t in range(1, 7):
                g = np.asfortranarray(rng.normal(size=theta.shape) * 10.0 ** rng.integers(-8, 3))
                before = g.copy()
                adam_step(store, {"x": g}, lr=lr, weight_decay=weight_decay)
                assert np.array_equal(g, before)
                if weight_decay:
                    g = g + weight_decay * theta
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + ADAM_EPS)
            assert store["x"].tobytes() == theta.tobytes()
            assert store.moments("x")[0].tobytes() == m.tobytes()
            assert store.moments("x")[1].tobytes() == v.tobytes()


def textbook_lazy_adam(theta, m, v, rows, g, t, lr, weight_decay, b1=0.9, b2=0.999):
    """Bias-corrected Adam on ``rows`` alone, the other rows left as they are."""
    theta, m, v = theta.copy(), m.copy(), v.copy()
    th = theta[rows]
    if weight_decay:
        g = g + weight_decay * th
    m[rows] = b1 * m[rows] + (1 - b1) * g
    v[rows] = b2 * v[rows] + (1 - b2) * g * g
    theta[rows] = th - lr * (m[rows] / (1 - b1**t)) / (np.sqrt(v[rows] / (1 - b2**t)) + ADAM_EPS)
    return theta, m, v


def row_grad(rows, values, shape):
    return RowGrad(np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=np.float64), shape)


def moment_bytes(store, name):
    return tuple(a.tobytes() for a in store.moments(name))


class TestRowGrad:
    def test_densifies_to_its_rows(self):
        g = row_grad([1, 3], [[1.0, 2.0], [3.0, 4.0]], (5, 2))
        dense = np.zeros((5, 2))
        dense[[1, 3]] = [[1.0, 2.0], [3.0, 4.0]]
        assert np.array_equal(np.asarray(g), dense)
        assert np.asarray(row_grad([], np.zeros((0, 2)), (5, 2))).shape == (5, 2)

    @pytest.mark.parametrize("other_rows", [[1, 3], [0, 3, 4], [2], []])
    def test_sum_is_the_dense_sum_over_the_row_union(self, other_rows):
        rng = np.random.default_rng(5)
        a = row_grad([1, 3], rng.normal(size=(2, 2)), (5, 2))
        b = row_grad(other_rows, rng.normal(size=(len(other_rows), 2)), (5, 2))
        expected = np.asarray(a) + np.asarray(b)
        a += b
        assert np.array_equal(a.rows, np.union1d([1, 3], other_rows))
        assert np.array_equal(np.asarray(a), expected)

    def test_sum_of_different_shapes_rejected(self):
        a = row_grad([1], np.ones((1, 2)), (5, 2))
        with pytest.raises(ShapeError):
            a += row_grad([1], np.ones((1, 2)), (6, 2))


class TestLazyRowAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    def test_every_row_step_is_the_dense_step(self, weight_decay):
        # a row gradient over every row moves values, moments and step
        # counts bitwise as the dense gradient does, and as textbook Adam
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(9, 3))
        dense, lazy = make_store(x=theta.copy()), make_store(x=theta.copy())
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        for t in range(1, 5):
            g = rng.normal(size=theta.shape)
            adam_step(dense, {"x": g}, lr=1e-2, weight_decay=weight_decay)
            adam_step(lazy, {"x": row_grad(np.arange(9), g, theta.shape)}, lr=1e-2,
                      weight_decay=weight_decay)
            theta, m, v = textbook_lazy_adam(theta, m, v, np.arange(9), g, t, 1e-2, weight_decay)
        for store in (dense, lazy):
            assert store["x"].tobytes() == theta.tobytes()
            assert moment_bytes(store, "x") == (m.tobytes(), v.tobytes())
            assert store.step_count("x") == 4

    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    def test_touched_rows_step_as_textbook_adam_and_the_rest_keep_their_state(
        self, weight_decay
    ):
        # more touched rows than one chunk holds, at a step count past the
        # first: only those rows move, by the textbook update, while every
        # other row keeps its value and both moments bitwise, decay or not
        from dagfm.numcore import ADAM_CHUNK

        rng = np.random.default_rng(12)
        d = 4
        n_rows = 3 * ADAM_CHUNK // d
        theta = rng.normal(size=(n_rows, d))
        store = make_store(x=theta.copy())
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        for t in range(1, 4):
            rows = np.sort(rng.choice(n_rows, size=ADAM_CHUNK // d + 17, replace=False))
            g = rng.normal(size=(len(rows), d))
            untouched = np.setdiff1d(np.arange(n_rows), rows)
            before = [a[untouched].tobytes() for a in (store["x"], *store.moments("x"))]
            adam_step(store, {"x": row_grad(rows, g, theta.shape)}, lr=1e-2,
                      weight_decay=weight_decay)
            after = [a[untouched].tobytes() for a in (store["x"], *store.moments("x"))]
            assert after == before
            theta, m, v = textbook_lazy_adam(theta, m, v, rows, g, t, 1e-2, weight_decay)
            assert store.step_count("x") == t
        assert store["x"].tobytes() == theta.tobytes()
        assert moment_bytes(store, "x") == (m.tobytes(), v.tobytes())

    @pytest.mark.parametrize("weight_decay", [0.0, 3e-4])
    def test_row_compact_moments_step_as_eager_dense_adam(self, weight_decay):
        # row steps that bring new rows, repeat moved ones and touch only
        # unmoved ones, then a dense step, a row step on the dense moments,
        # a release and row steps afresh: after each, values, both moments
        # and the step count are an eager dense-moment Adam's, bitwise, and
        # row-compact moments hold the moved rows alone, in first-touch order
        rng = np.random.default_rng(13)
        n, d, lr = 40, 3, 1e-2
        theta = rng.normal(size=(n, d))
        store = make_store(x=theta.copy())
        m, v, t = np.zeros_like(theta), np.zeros_like(theta), 0
        held = []
        schedule = [[3, 7, 8], [1, 7, 8, 20], [30, 31, 39], [1, 3, 7], "dense", [2, 5],
                    "release", [0, 7, 39], [0, 39]]
        for step in schedule:
            if step == "release":
                store.release_moments()
                m, v, t, held = np.zeros_like(theta), np.zeros_like(theta), 0, []
                assert held_moments(store) == set()
            else:
                rows = np.arange(n) if step == "dense" else np.asarray(step, dtype=np.intp)
                g = rng.normal(size=(len(rows), d))
                grad = g if step == "dense" else row_grad(rows, g, theta.shape)
                adam_step(store, {"x": grad}, lr=lr, weight_decay=weight_decay)
                t += 1
                theta, m, v = textbook_lazy_adam(theta, m, v, rows, g, t, lr, weight_decay)
                if step == "dense":
                    held = None
                elif held is not None:
                    held += [r for r in step if r not in held]
                assert moment_rows(store, "x") == held
            assert store["x"].tobytes() == theta.tobytes()
            assert moment_bytes(store, "x") == (m.tobytes(), v.tobytes())
            assert store.step_count("x") == t

    def test_a_row_step_on_a_wide_table_allocates_what_its_rows_need(self):
        # a step touching 1,000 rows of a 2,000,000 x 16 table peaks below a
        # sixteenth of one full-shape moment array (256 MB): the moments follow
        # the rows moved, and the table's one int32 slot index is 8 MB
        n, d = 2_000_000, 16
        store = make_store(emb=np.zeros((n, d)))  # untouched pages stay unmapped
        rows = np.sort(np.random.default_rng(14).choice(n, size=1000, replace=False))
        grad = row_grad(rows, np.ones((len(rows), d)), (n, d))
        tracemalloc.start()
        try:
            adam_step(store, {"emb": grad}, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 // 16
        assert moment_rows(store, "emb") == rows.tolist()

    def test_a_table_too_tall_for_an_int32_slot_index_is_rejected(self):
        # 2**31 rows of width 0 take no memory; an int32 slot would wrap
        store = make_store(emb=np.zeros((2**31, 0)))
        with pytest.raises(ConfigurationError, match="at most 2147483647 rows, got 2147483648"):
            adam_step(store, {"emb": row_grad([0], np.zeros((1, 0)), (2**31, 0))}, lr=0.1)
        assert store.step_count("emb") == 0 and held_moments(store) == set()

    def test_a_row_step_touching_no_row_moves_only_the_step_count(self):
        store = make_store(x=np.ones((4, 2)))
        adam_step(store, {"x": row_grad([], np.zeros((0, 2)), (4, 2))}, lr=0.1, weight_decay=0.5)
        assert np.array_equal(store["x"], np.ones((4, 2)))
        assert store.step_count("x") == 1

    def test_non_finite_row_value_writes_nothing(self):
        store = make_store(x=[1.0, 2.0], emb=np.ones((5, 2)))
        good = row_grad([0, 4], np.ones((2, 2)), (5, 2))
        adam_step(store, {"x": np.ones(2), "emb": good}, lr=0.1)

        def state():
            return store.version, {
                n: (store[n].tobytes(), moment_bytes(store, n)) for n in store.names()
            }

        before = state()
        bad = row_grad([1, 2], [[1.0, 2.0], [np.nan, 0.0]], (5, 2))
        with pytest.raises(TrainingDivergenceError, match="'emb'"):
            adam_step(store, {"x": np.ones(2), "emb": bad}, lr=0.1)
        assert state() == before
        assert store.step_count("x") == store.step_count("emb") == 1

    @pytest.mark.parametrize(
        "rows,values,shape,error",
        [
            ([2, 1], np.ones((2, 2)), (5, 2), ConfigurationError),  # unsorted
            ([1, 1], np.ones((2, 2)), (5, 2), ConfigurationError),  # repeated
            ([1, 5], np.ones((2, 2)), (5, 2), ConfigurationError),  # past the last row
            ([-1, 1], np.ones((2, 2)), (5, 2), ConfigurationError),
            ([1.0, 2.0], np.ones((2, 2)), (5, 2), ConfigurationError),  # not row numbers
            ([1, 2], np.ones((3, 2)), (5, 2), ShapeError),  # values for other rows
            ([1, 2], np.ones((2, 3)), (5, 2), ShapeError),
            ([1, 2], np.ones((2, 2)), (6, 2), ShapeError),  # another table's
        ],
    )
    def test_malformed_row_gradient_rejected(self, rows, values, shape, error):
        store = make_store(emb=np.ones((5, 2)))
        with pytest.raises(error, match="emb"):
            adam_step(store, {"emb": RowGrad(np.asarray(rows), values, shape)}, lr=0.1)
        assert store.step_count("emb") == 0 and held_moments(store) == set()


class TestGradCheck:
    def test_quadratic(self):
        store = make_store(x=1.0)

        def fn(s):
            x = s["x"].item()
            return x * x, {"x": np.asarray(2.0 * x)}

        assert grad_check(fn, store) < 1e-6

    def test_detects_wrong_gradient(self):
        store = make_store(x=1.0)

        def fn(s):
            x = s["x"].item()
            return x * x, {"x": np.asarray(3.0 * x)}  # deliberately wrong

        assert grad_check(fn, store) > 0.1

    def test_frozen_params_not_checked(self):
        store = make_store(x=1.0, y=2.0)
        store.freeze("y")

        def fn(s):
            x = s["x"].item()
            return x * x, {"x": np.asarray(2.0 * x)}

        assert grad_check(fn, store) < 1e-6

    def test_nonfinite_loss_raises(self):
        from dagfm.numcore import EvaluationError

        store = make_store(x=1.0)

        def fn(s):
            return float("nan"), {"x": np.asarray(0.0)}

        with pytest.raises(EvaluationError):
            grad_check(fn, store)


class TestStableSigmoid:
    def test_matches_naive_in_safe_range(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(stable_sigmoid(z), 1 / (1 + np.exp(-z)), atol=1e-15)

    def test_extreme_inputs_do_not_overflow(self):
        out = stable_sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0)

"""Parameter storage, Adam updates, and finite-difference gradient checking.

Every model in this package keeps its trainable state in a :class:`ParamStore`
and supplies hand-derived analytic gradients. ``grad_check`` validates those
gradients against central finite differences; it is the single verification
harness shared by all model tests.

The store is the only writer of its parameters: ``store[name]`` is a
read-only array, and every write (``set``/``restore``, the one-coordinate
``put`` that ``grad_check`` perturbs through, and ``adam_step``) bumps the
store's ``version``. A value derived from the parameters, such as a model's
dense edge-weight layout, is current for as long as ``version`` has not moved.

A parameter's Adam moments last from the first ``adam_step`` that updates
it until ``release_moments``, which a training stage calls when it rewinds
to its best epoch, so a model that is only loaded, frozen or served, or
handed back by such a stage, holds its weights and no optimizer state. A
gradient lasts for one step: the stage loop drops it once ``adam_step`` has
consumed it. A gradient that is zero outside some rows,
as an embedding table's is outside the rows its batch touched, can be given
as a :class:`RowGrad`, and ``adam_step`` then updates only those rows. The
moments of a parameter that only row gradients have updated are row-compact:
they hold the rows that a step has moved and no others, so an embedding
table's optimizer state grows with the rows its stage touches, not with the
vocabulary. ``ParamStore.moments`` materialises the dense view.

Every parameter, gradient and activation is float64 (``ParamStore.dtype``),
in training and in verification alike. Batch reductions use numpy's
deterministic reduction order, so a run is bit-reproducible for a fixed seed
on a fixed machine.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 1 << 15  # elements per in-place chunk of an Adam update


class ConfigurationError(ValueError):
    """A shape or setting is invalid before any arithmetic runs."""


class ShapeError(ConfigurationError):
    """Operands disagree on shape."""


class TrainingDivergenceError(RuntimeError):
    """A non-finite value appeared during a training step."""


class EvaluationError(RuntimeError):
    """A loss evaluation produced a non-finite value."""


def check_int(name: str, value, minimum: int) -> None:
    """Reject anything but a plain ``int >= minimum`` (no bool, float, str or
    numpy scalar, which would fail later or not serialise to JSON)."""
    if type(value) is not int or value < minimum:
        raise ConfigurationError(f"{name} must be an int >= {minimum}, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Reject anything but a finite number >= 0 (NaN fails every comparison,
    so ``value < 0`` alone would let it through)."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be a finite nonnegative number, got {value!r}")


def as_tuples(value):
    """Lists and tuples, at any depth, as tuples; anything else unchanged.
    Specs store their sequence fields this way, so a spec given lists
    hashes, and equals its checkpoint round trip, like one given tuples."""
    return tuple(map(as_tuples, value)) if isinstance(value, (list, tuple)) else value


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function, branching on the sign of ``z``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ParamStore:
    """Named dense parameters with per-parameter trainable flag and Adam state.

    The store is the only writer of its parameters. ``store[name]`` is a
    read-only array; the writes are ``set`` and ``restore`` (whole
    parameters), ``put`` (one coordinate) and ``adam_step``, and each bumps
    ``version``, one integer for the whole store. A frozen parameter is
    bitwise untouched by ``adam_step``: neither its value nor its optimizer
    moments move. The moments of a parameter are allocated, as exact zeros,
    by the first ``adam_step`` that updates it, and kept (through ``freeze``
    and ``unfreeze_all`` too) until ``release_moments`` drops them with
    every step count; outside that span the store holds none. A parameter
    that only :class:`RowGrad` steps have updated holds the moments of the
    rows they moved alone; ``moments`` reads them at the parameter's shape.
    """

    dtype = np.dtype(np.float64)  # of every parameter, gradient and model buffer

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}  # writable views, the store's own
        self._public: dict[str, np.ndarray] = {}  # the same memory, read-only
        self._trainable: dict[str, bool] = {}
        self._moments: dict[str, _Moments] = {}  # from the first update
        self._step: dict[str, int] = {}
        self.version = 0

    def _own(self, name: str, arr: np.ndarray) -> None:
        """Keep ``arr``, a C-contiguous float64 array that owns its memory, as
        parameter ``name``. The store writes through a private view, and
        ``arr`` itself becomes read-only, so a caller that handed it in can no
        more write behind ``version`` than a reader of ``store[name]``."""
        self._values[name] = arr.view()
        arr.flags.writeable = False
        self._public[name] = arr
        self.version += 1

    # -- registration / access ------------------------------------------------

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        """Register ``value``, without a copy when it is a writable
        C-contiguous float64 array that owns its memory; that array is then
        read-only from here on."""
        if name in self._values:
            raise ConfigurationError(f"parameter '{name}' already registered")
        arr = np.ascontiguousarray(value, dtype=self.dtype)
        if arr.base is not None or not arr.flags.writeable:
            arr = arr.copy()  # a view or a read-only array: the memory is another's
        self._own(name, arr)
        self._trainable[name] = bool(trainable)
        self._step[name] = 0

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> np.ndarray:
        return self._public[name]

    def set(self, name: str, value: np.ndarray) -> None:
        """Replace a parameter's value with a copy of ``value``, so the
        store never shares an array with its caller (or another store)."""
        cur = self._public[name]
        arr = np.array(value, dtype=self.dtype, order="C")
        if arr.shape != cur.shape:
            raise ShapeError(
                f"parameter '{name}': expected shape {cur.shape}, got {arr.shape}"
            )
        self._own(name, arr)

    def put(self, name: str, index: int, value: float) -> None:
        """Write one coordinate: ``index`` into the flattened parameter."""
        self._values[name].reshape(-1)[index] = value
        self.version += 1

    def names(self) -> list[str]:
        return list(self._values)

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._trainable.items() if t]

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def freeze(self, *names: str) -> None:
        for n in names:
            self._trainable[n] = False  # noqa: B909 - plain dict write

    def unfreeze_all(self) -> None:
        for n in self._trainable:
            self._trainable[n] = True

    def step_count(self, name: str) -> int:
        return self._step[name]

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The Adam moments ``(m, v)`` at the parameter's shape, read-only;
        zeros, kept nowhere, for a parameter that no ``adam_step`` has
        updated yet. Row-compact moments are materialised: a new dense copy,
        zero in every row that no step has moved."""
        if name in self._moments:
            dense = self._moments[name].densify()
            m, v = dense.m.view(), dense.v.view()
        else:
            m = v = np.zeros(self._public[name].shape)
        m.flags.writeable = v.flags.writeable = False
        return m, v

    def release_moments(self) -> None:
        """Drop every parameter's Adam moments and step count: the store then
        holds what a checkpoint of it holds, and a later ``adam_step`` starts
        each parameter from zero moments at step 1, as on a loaded model."""
        self._moments.clear()
        self._step = dict.fromkeys(self._step, 0)

    def n_scalars(self, names: Iterable[str] | None = None) -> int:
        names = self.names() if names is None else list(names)
        return int(sum(self._values[n].size for n in names))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: v.copy() for n, v in self._public.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for n, v in snap.items():
            self.set(n, v)


class RowGrad:
    """A gradient that is zero outside some rows of its parameter: row
    ``rows[k]`` of the ``shape`` array is ``values[k]``, and ``rows`` is
    sorted and unique. ``np.asarray`` gives the dense array, and ``a += b``
    sums two over the union of their rows."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape):
        self.rows, self.values, self.shape = rows, values, tuple(shape)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype or self.values.dtype)
        dense[self.rows] = self.values
        return dense

    def __iadd__(self, other: "RowGrad") -> "RowGrad":
        if other.shape != self.shape:
            raise ShapeError(f"row gradients of shapes {self.shape} and {other.shape}")
        # sorted and unique, so a stable sort merges the two runs in linear
        # time (np.union1d hashes them, several times slower)
        rows = np.concatenate((self.rows, other.rows))
        rows.sort(kind="stable")
        rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
        values = np.zeros((len(rows), *self.shape[1:]))
        values[np.searchsorted(rows, self.rows)] = self.values
        values[np.searchsorted(rows, other.rows)] += other.values
        return RowGrad(rows, values, self.shape)


class _Moments:
    """A parameter's Adam moments ``(m, v)``. Dense moments (``slot`` None)
    have the parameter's shape. Row-compact ones, which a parameter keeps
    while only :class:`RowGrad` steps have updated it, hold one row for each
    table row that a step has moved, in first-touch order: table row ``r``'s
    moments are ``m[slot[r] - 1]`` and ``v[slot[r] - 1]``, and ``slot[r]``
    is 0 for a row that no step has moved, whose moments are zero. ``slot``
    is int32, 4 bytes per table row, so a parameter of more than
    :attr:`MAX_ROWS` rows cannot hold row-compact moments."""

    __slots__ = ("m", "v", "slot")
    MAX_ROWS = np.iinfo(np.int32).max

    def __init__(self, shape, row_compact: bool):
        if row_compact:
            self.m = self.v = np.zeros((0, *shape[1:]))
            self.slot = np.zeros(shape[0], dtype=np.int32)
        else:
            self.m, self.v, self.slot = np.zeros(shape), np.zeros(shape), None

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Where the moments of sorted unique ``rows`` sit in ``m`` and
        ``v``. Rows no step has moved are given the next slots, with zero
        moments appended by one exact concatenation."""
        if self.slot is None:
            return rows
        pos = self.slot.take(rows)
        fresh = pos == 0
        if fresh.any():
            n = len(self.m)
            new = rows[fresh]
            pos[fresh] = self.slot[new] = np.arange(n + 1, n + len(new) + 1)
            pad = np.zeros((len(new), *self.m.shape[1:]))
            self.m, self.v = (np.concatenate((a, pad)) for a in (self.m, self.v))
        pos -= 1
        return pos

    def densify(self) -> "_Moments":
        """These moments at the parameter's full shape (``self`` when they
        are dense already): zeros in every row that no step has moved."""
        if self.slot is None:
            return self
        dense = _Moments((len(self.slot), *self.m.shape[1:]), row_compact=False)
        moved = np.flatnonzero(self.slot)
        at = self.slot[moved] - 1
        dense.m[moved], dense.v[moved] = self.m[at], self.v[at]
        return dense


def _adam_update(th, g, m, v, t: int, lr: float, weight_decay: float) -> None:
    """Bitwise textbook Adam, in place, on flat arrays of one chunk."""
    step, den = np.empty((2, th.size), dtype=th.dtype)
    g = g + np.multiply(th, weight_decay, out=step) if weight_decay else g
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=step), g, out=step)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=den), out=den)
    den += ADAM_EPS
    np.multiply(np.divide(m, 1.0 - ADAM_BETA1**t, out=step), lr, out=step)
    th -= np.divide(step, den, out=step)


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray | RowGrad],
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One bias-corrected Adam update over the store's trainable parameters.

    Gradients supplied for frozen parameters are ignored; gradients for
    unknown names are a configuration error. ``weight_decay`` adds a classic
    L2 term ``wd * theta`` to the gradient before the moment updates (so with
    ``weight_decay > 0`` parameters move even under a zero loss gradient).

    A :class:`RowGrad` is a lazy update, as in PyTorch's ``SparseAdam`` and
    TF's ``LazyAdam``: only its rows move, values and both moments, each by
    the same arithmetic as a dense step, and the decay term applies to those
    rows alone. Every other row keeps its value and moments bitwise, and the
    step count stays one per parameter, so a row that a step misses skips
    that step's momentum and decay. A row gradient over every row steps
    bitwise as the dense gradient does.

    The moments of a parameter that only row gradients have updated are
    row-compact: one (m, v) row for each row a step has moved, in the order
    the rows were first moved, found through a slot index over the rows and
    grown, by exact concatenation, only on a step that brings new rows. Every
    row is gathered and scattered by its slot through the same arithmetic,
    so values and moments are bitwise those of full-shape moments. A dense
    gradient first turns a parameter's row-compact moments full-shape.

    Every gradient is checked before the first write, so a step that raises
    leaves values, moments, step counts and ``store.version`` untouched. A
    parameter's first update allocates its moments, as exact zeros, after
    every check and before any write. Dense gradients update in chunks of
    :data:`ADAM_CHUNK` elements, row gradients in chunks of whole rows, so no
    temporary grows with the parameter.
    """
    check_nonnegative("lr", lr)
    check_nonnegative("weight_decay", weight_decay)
    for name in grads:
        if name not in store:
            raise ConfigurationError(f"gradient for unknown parameter '{name}'")
    updates = []
    for name in store.trainable_names():
        if name not in grads:
            raise ConfigurationError(f"missing gradient for trainable parameter '{name}'")
        theta = store._values[name]
        g = grads[name]
        rows = None
        if isinstance(g, RowGrad):
            rows = np.asarray(g.rows)
            if theta.ndim == 0 or g.shape != theta.shape:
                raise ShapeError(
                    f"row gradient for '{name}': expected shape {theta.shape}, got {g.shape}"
                )
            if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size and not (
                rows[0] >= 0 and rows[-1] < len(theta) and (np.diff(rows) > 0).all()
            ):
                raise ConfigurationError(
                    f"row gradient for '{name}': rows must be integers, sorted, unique "
                    f"and in range"
                )
            if name not in store._moments and len(theta) > _Moments.MAX_ROWS:
                raise ConfigurationError(
                    f"row gradient for '{name}': row-compact moments index at most "
                    f"{_Moments.MAX_ROWS} rows, got {len(theta)}"
                )
            if g.values.shape != (len(rows), *theta.shape[1:]):
                raise ShapeError(
                    f"row gradient for '{name}': expected values of shape "
                    f"{(len(rows), *theta.shape[1:])}, got {g.values.shape}"
                )
            g = g.values
        g = np.ascontiguousarray(g, dtype=store.dtype)
        if rows is None and g.shape != theta.shape:
            raise ShapeError(f"gradient for '{name}': expected shape {theta.shape}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError(f"non-finite gradient for parameter '{name}'")
        updates.append((name, theta, g, rows))
    for name, theta, _, rows in updates:
        if name not in store._moments:
            store._moments[name] = _Moments(theta.shape, row_compact=rows is not None)
    store.version += 1
    for name, theta, g, rows in updates:
        mom = store._moments[name]
        t = store.step_count(name) + 1
        if rows is None:
            mom = store._moments[name] = mom.densify()
            for lo in range(0, theta.size, ADAM_CHUNK):
                chunk = (a.reshape(-1)[lo : lo + ADAM_CHUNK] for a in (theta, g, mom.m, mom.v))
                _adam_update(*chunk, t, lr, weight_decay)
        else:
            # gather whole rows, their moments by slot, update them as one flat
            # chunk, scatter them back
            pos = mom.positions(rows)
            m, v = mom.m, mom.v
            per_chunk = max(1, ADAM_CHUNK // max(1, math.prod(theta.shape[1:])))
            for lo in range(0, len(rows), per_chunk):
                r, p = rows[lo : lo + per_chunk], pos[lo : lo + per_chunk]
                th = theta.take(r, axis=0)
                mc, vc = m.take(p, axis=0), v.take(p, axis=0)
                gc = g[lo : lo + per_chunk]
                _adam_update(*(a.reshape(-1) for a in (th, gc, mc, vc)), t, lr, weight_decay)
                theta[r], m[p], v[p] = th, mc, vc
        store._step[name] = t


LossAndGrads = Callable[[ParamStore], tuple[float, dict[str, np.ndarray]]]


def grad_check(
    fn: LossAndGrads,
    store: ParamStore,
    h: float = 1e-5,
    max_coords_per_param: int = 5,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn(store)`` must deterministically return ``(loss, grads)`` where
    ``grads`` covers every trainable parameter. For each trainable parameter
    up to ``max_coords_per_param`` coordinates are sampled; each is perturbed
    by ``+-h`` and the relative error
    ``|analytic - fd| / (|fd| + 1e-8)`` is taken. Run in float64.
    """
    rng = rng or np.random.default_rng(0)
    loss, grads = fn(store)
    if not np.isfinite(loss):
        raise EvaluationError(f"non-finite loss {loss!r} during gradient check")
    worst = 0.0
    for name in store.trainable_names():
        flat = store[name].reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        analytic = np.asarray(grads[name]).reshape(-1)
        for c in coords:
            orig = flat[c]
            store.put(name, c, orig + h)
            lp, _ = fn(store)
            store.put(name, c, orig - h)
            lm, _ = fn(store)
            store.put(name, c, orig)
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise EvaluationError(f"non-finite loss while perturbing '{name}'")
            fd = (lp - lm) / (2.0 * h)
            rel = abs(analytic[c] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, float(rel))
    return worst

"""Span recorder that wraps dagfm's public callables from outside.

``Tracer.installed()`` replaces each target (a module function, or a method
on a class) with a wrapper that records one span per call: name, start and
end in ``clock_ns``, the index of the enclosing span and the current
step or request id. Spans stay in memory; ``write_jsonl`` writes them when
the run ends. Originals are restored on exit, so nothing under ``src/``
changes.

A layer's self time is its span durations minus the time its child spans
cover. Calls on one thread nest strictly, so that is the sum of the child
durations.

Spans are timed with ``clock_ns``, the process CPU clock. With BLAS held
to one thread and ``DAGFM_THREADS`` unset the program is single-threaded,
so CPU time is the time it spends working, without the time the machine's
scheduler gives the CPU to others.

The machine's speed also drifts. On a shared 2-vCPU Intel Xeon virtual
machine, interpreter-bound work such as small-batch forwards took
20-30% more or less time between 5 s windows (interquartile range over
median); vectorised training steps drifted about half as much. Work run back
to back slows down together, so ``Tracer.probe`` runs a fixed reference
computation that uses no dagfm code, and the workloads turn the probes
run among the set-ups and the serving requests into the machine's
relative slowness at that moment. Dividing by it cut the spread over
distill-m8 seeds of the median latency from 46% to 8%, of the 99th
percentile from 41% to 3%, and of the set-up time from 23% to 9%.
Training is not scaled: probes run among the training batches tracked it
in one hour and in another drifted twice as much as it, so scaling by
them doubled the spread of ``train_ips``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from dagfm import checkpoint, data, distill, interactions, metrics, numcore, synthetic, teachers


def _rows_arg(args, kwargs, out):
    return len(args[1])


def _forward_flops(tracer, args, kwargs, out, span):
    model = args[0]
    per_row = tracer.flops_per_row.get(model.spec)
    if per_row is None:
        per_row = tracer.flops_per_row[model.spec] = metrics.count_flops(model.spec).total
    tracer.counts[span[0] + ".flops"] += per_row * span[5]


def _grads_tables(tracer, args, kwargs, out, span):
    tracer.counts["emb_tables_computed"] += len(out)
    tracer.embedding_names.update(out)


def _adam_consumed(tracer, args, kwargs, out, span):
    store, grads = args[0], args[1]
    trainable = store.trainable_names()
    tracer.counts["emb_tables_consumed"] += sum(
        1 for n in trainable if n in grads and n in tracer.embedding_names
    )
    tracer.counts["adam_scalars"] += store.n_scalars(trainable)


def _save_bytes(tracer, args, kwargs, out, span):
    tracer.counts["checkpoint_bytes"] += os.path.getsize(args[1])


def _load_bytes(tracer, args, kwargs, out, span):
    tracer.counts["checkpoint_bytes"] += os.path.getsize(args[0])


clock_ns = time.process_time_ns


def clock_s() -> float:
    return clock_ns() / 1e9


PROBE = "perfbench.speed_probe"
# median probe time on the reference machine (Intel Xeon, 2 vCPUs, numpy
# 2.4 with OpenBLAS 0.3.31 on one thread); it only sets the unit scale
PROBE_REFERENCE_NS = 200_000
_rng = np.random.default_rng(0)
_PROBE_STATES = _rng.normal(size=(64, 8, 16))
_PROBE_EDGES = _rng.normal(size=(8, 8, 16))
_PROBE_MATRIX = _rng.normal(size=(128, 128))


def _reference_work() -> int:
    """A fixed mix of einsum, BLAS and interpreter work, like a dagfm step."""
    np.einsum("bjd,jid->bji", _PROBE_STATES, _PROBE_EDGES)
    _PROBE_STATES.reshape(64, 128) @ _PROBE_MATRIX
    total = 0
    for i in range(600):
        total += i
    return total


# span name -> (bindings to patch, rows-of-call, after-call hook, is generator)
# A function that dagfm.distill imported by name is patched there as well,
# because that is the binding the training loop resolves.
TARGETS = {
    "synthetic.generate_planted_dataset": ([(synthetic, "generate_planted_dataset")], None, None, False),
    "data.build_vocab": ([(data, "build_vocab")], None, None, False),
    "data.load_dataset": ([(data, "load_dataset")], None, None, False),
    "data.split_dataset": ([(data, "split_dataset")], None, None, False),
    "data.iterate_batches": ([(data, "iterate_batches"), (distill, "iterate_batches")], None, None, True),
    "interactions.EmbeddingTable.lookup": ([(interactions.EmbeddingTable, "lookup")], None, None, False),
    "interactions.EmbeddingTable.grads": ([(interactions.EmbeddingTable, "grads")], None, _grads_tables, False),
    "interactions.DagfmModel.forward": ([(interactions.DagfmModel, "forward")], _rows_arg, _forward_flops, False),
    "interactions.DagfmModel.backward": ([(interactions.DagfmModel, "backward")], None, None, False),
    "teachers.CrossNetModel.forward": ([(teachers.CrossNetModel, "forward")], _rows_arg, _forward_flops, False),
    "teachers.CrossNetModel.backward": ([(teachers.CrossNetModel, "backward")], None, None, False),
    "teachers.CinModel.forward": ([(teachers.CinModel, "forward")], _rows_arg, _forward_flops, False),
    "teachers.CinModel.backward": ([(teachers.CinModel, "backward")], None, None, False),
    "numcore.adam_step": ([(numcore, "adam_step"), (distill, "adam_step")], None, _adam_consumed, False),
    "distill.train_teacher": ([(distill, "train_teacher")], None, None, False),
    "distill.distill_student": ([(distill, "distill_student")], None, None, False),
    "distill.finetune_student": ([(distill, "finetune_student")], None, None, False),
    "distill.evaluate": ([(distill, "evaluate")], _rows_arg, None, False),
    "distill.predict_logits": ([(distill, "predict_logits")], _rows_arg, None, False),
    "metrics.auc": ([(metrics, "auc"), (distill, "auc_metric")], None, None, False),
    "checkpoint.save_checkpoint": ([(checkpoint, "save_checkpoint")], None, _save_bytes, False),
    "checkpoint.load_checkpoint": ([(checkpoint, "load_checkpoint")], None, _load_bytes, False),
}

# The untraced run wraps only the scoring entry points: a few dozen calls
# that split a stage's time into training and validation scoring.
SCORING = ("distill.evaluate", "distill.predict_logits")

GFLOPS_SPANS = (
    "interactions.DagfmModel.forward",
    "teachers.CrossNetModel.forward",
    "teachers.CinModel.forward",
)


class Tracer:
    """Records spans for the targets named in ``names``."""

    def __init__(self, names=tuple(TARGETS)):
        unknown = set(names) - set(TARGETS)
        if unknown:
            raise ValueError(f"unknown trace targets {sorted(unknown)}")
        self.names = tuple(names)
        # [name, start_ns, end_ns, parent index, step/request id, rows];
        # start and end are clock_ns() readings
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ctx: str | None = None
        self.step = 0
        self.scoring_ns = 0
        self.counts: Counter = Counter()
        self.flops_per_row: dict = {}
        self.embedding_names: set[str] = set()

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.ctx, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = clock_ns()
        return span

    def _close(self, span):
        span[2] = clock_ns()
        self._stack.pop()
        if self._is_outer_scoring(span):
            self.scoring_ns += span[2] - span[1]

    def _wrap_call(self, name, fn, rows_of, after):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if rows_of is not None:
                span[5] = rows_of(args, kwargs, out)
            if after is not None:
                after(tracer, args, kwargs, out, span)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_iter(self, name, fn):
        """Each ``next()`` is one span; each yielded batch starts a new step."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                tracer.step += 1
                tracer.ctx = f"step{tracer.step}"
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name in self.names:
                bindings, rows_of, after, is_iter = TARGETS[name]
                original = getattr(*bindings[0])
                if is_iter:
                    wrapper = self._wrap_iter(name, original)
                else:
                    wrapper = self._wrap_call(name, original, rows_of, after)
                for owner, attr in bindings:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def probe(self) -> None:
        """Run the reference computation as a span of its own. A first,
        untimed run warms the caches, so the work before the probe does not
        change its time."""
        _reference_work()
        span = self._open(PROBE)
        _reference_work()
        self._close(span)

    def probe_ns(self, start_ns: int, end_ns: int) -> list[int]:
        """Durations of the probes that started in ``[start_ns, end_ns)``."""
        return [s[2] - s[1] for s in self.spans if s[0] == PROBE and start_ns <= s[1] < end_ns]

    def _is_outer_scoring(self, span) -> bool:
        return span[0] in SCORING and (span[3] < 0 or self.spans[span[3]][0] not in SCORING)

    def scoring_totals(self) -> tuple[int, float]:
        """Rows and seconds over the outermost evaluate/predict_logits calls."""
        rows = sum(span[5] for span in self.spans if self._is_outer_scoring(span))
        return rows, self.scoring_ns / 1e9

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``name -> (self seconds, calls)`` over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out = {name: [0, 0] for name in self.names}
        for span, children in zip(self.spans, child_ns):
            acc = out.get(span[0])
            if acc is None:
                continue
            acc[0] += span[2] - span[1] - children
            acc[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer metrics: self time and calls per span, plus the counts."""
        times = self.self_times()
        out = {}
        for name, (self_s, calls) in times.items():
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        for name in GFLOPS_SPANS:
            self_s = times.get(name, (0.0, 0))[0]
            flops = self.counts[f"{name}.flops"]
            out[f"{name}.gflops"] = {
                "value": flops / self_s / 1e9 if self_s > 0 else 0.0,
                "unit": "GFLOP/s",
            }
        computed = self.counts["emb_tables_computed"]
        out["interactions.EmbeddingTable.grads.useful_ratio"] = {
            "value": self.counts["emb_tables_consumed"] / computed if computed else 0.0,
            "unit": "ratio",
        }
        out["numcore.adam_step.scalars"] = {
            "value": self.counts["adam_scalars"], "unit": "count",
        }
        out["checkpoint.bytes"] = {"value": self.counts["checkpoint_bytes"], "unit": "bytes"}
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ctx, rows in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "id": ctx, "rows": rows,
                }) + "\n")

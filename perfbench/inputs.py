"""Seeded inputs for the benchmark workloads.

A workload fixes its *world*: the planted rule, the vocabularies and the
model seeds. ``--seed`` draws what one run consumes from that world: the
rows (m=39 workloads), the train/val/test split, the shuffle order of every
epoch and the serving request stream. The same seed gives byte-identical
inputs; another seed gives other inputs.

The m=8 workloads use the canonical planted dataset of
``dagfm.synthetic_experiment`` (200k rows, data seed 0). Its third-order
rule has zero-mean latents, so a teacher starts on a saddle; with the
canonical data and model seed 0 a one-epoch teacher leaves it on every
split and shuffle seed tried, while other data seeds often stay stuck for
several epochs, which would make the quality metrics bimodal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dagfm import synthetic
from dagfm.data import Dataset, FieldSchema

CANONICAL_ROWS = 200_000
CANONICAL_FIELDS = 8
CANONICAL_VOCAB = 50
CANONICAL_DATA_SEED = 0

# Criteo layout: 13 bucketised integer fields, 26 categorical fields.
M39_INT_VOCAB = tuple(int(v) for v in np.geomspace(4, 100, 13).round())
M39_CAT_VOCAB = tuple(int(v) for v in np.geomspace(50, 20_000, 26).round())
M39_VOCAB = M39_INT_VOCAB + M39_CAT_VOCAB
M39_ZIPF_EXPONENT = 0.8
M39_WORLD_SEED = 39
M39_RULE_FIELDS = (0, 1, 2)
# serving candidate lists hold 1 to SERVE_MAX_ROWS rows on every workload
SERVE_MAX_ROWS = 256

# independent random streams derived from one --seed
_ROWS_STREAM = 1
_REQUEST_STREAM = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def m39_schema() -> FieldSchema:
    names = [f"i{k}" for k in range(1, 14)] + [f"c{k}" for k in range(1, 27)]
    vocabs = [{f"v{j}": j for j in range(size)} for size in M39_VOCAB]
    return FieldSchema(names=names, vocabs=vocabs, min_freq=0)


class _M39World:
    """Rule latents and value permutations shared by every seed."""

    def __init__(self):
        rng = np.random.default_rng(M39_WORLD_SEED)
        self.perms = [rng.permutation(v) for v in M39_VOCAB]
        self.probs = []
        for v in M39_VOCAB:
            p = 1.0 / np.arange(1, v + 1) ** M39_ZIPF_EXPONENT
            self.probs.append(p / p.sum())
        self.latents = [rng.normal(size=M39_VOCAB[f]) for f in range(len(M39_INT_VOCAB))]


def m39_rows(n: int, seed: int) -> Dataset:
    """``n`` Zipf-distributed m=39 rows labelled by the planted rule.

    The logit is a third-order product over the first three integer fields
    plus a first-order term over all 13 integer fields; the first-order part
    gives a short training run something to learn besides the saddle.
    """
    world = _M39World()
    rng = _rng(seed, _ROWS_STREAM)
    idx = np.empty((n, len(M39_VOCAB)), dtype=np.int64)
    for f, size in enumerate(M39_VOCAB):
        idx[:, f] = world.perms[f][rng.choice(size, size=n, p=world.probs[f])]
    lat = world.latents
    a, b, c = M39_RULE_FIELDS
    logits = 1.5 * lat[a][idx[:, a]] * lat[b][idx[:, b]] * lat[c][idx[:, c]]
    logits += sum(lat[f][idx[:, f]] for f in range(len(lat))) * (1.5 / np.sqrt(len(lat)))
    noisy = logits + 0.5 * rng.normal(size=n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-noisy))).astype(np.int64)
    return Dataset(idx, labels)


def request_stream(seed: int, n_requests: int, pool_size: int, max_rows: int) -> list[np.ndarray]:
    """Candidate lists for the serving loop: row positions into a pool.

    Sizes are log-uniform on [1, max_rows], so small requests dominate the
    count and large ones the scored rows. They are that distribution's
    ``n_requests`` quantiles in a seeded order: every seed serves the same
    sizes, so the latency percentiles do not move with a draw of sizes,
    while the seed picks their order and rows.
    """
    rng = _rng(seed, _REQUEST_STREAM)
    quantiles = (np.arange(n_requests) + 0.5) / n_requests
    sizes = np.floor(np.exp(quantiles * np.log(max_rows + 1)))
    sizes = np.clip(sizes.astype(np.int64), 1, min(max_rows, pool_size))
    rng.shuffle(sizes)
    return [np.sort(rng.choice(pool_size, size=int(s), replace=False)) for s in sizes]


@dataclass(frozen=True)
class Inputs:
    """Everything a run receives from the input generator."""

    split_seed: int
    shuffle_seed: int
    requests: list
    csv_path: Path | None = None
    rows: Dataset | None = None


def make_inputs(workload, seed: int, workdir: Path, n_requests: int) -> Inputs:
    """Generate one run's inputs; the m=39 CSV is written under ``workdir``."""
    csv_path = rows = None
    if workload.data == "m39-csv":
        csv_path = Path(workdir) / f"{workload.name}-{seed}.csv"
        synthetic.write_csv(csv_path, m39_schema(), m39_rows(workload.n_rows, seed))
    elif workload.data == "m39":
        rows = m39_rows(workload.n_rows, seed)
    requests = request_stream(seed, n_requests, workload.pool_rows, SERVE_MAX_ROWS)
    return Inputs(
        split_seed=int(seed),
        # a stage shuffles epoch e with shuffle_seed + e; spacing the seeds
        # keeps neighbouring --seed values from sharing epoch orders
        shuffle_seed=1000 * int(seed),
        requests=requests,
        csv_path=csv_path,
        rows=rows,
    )

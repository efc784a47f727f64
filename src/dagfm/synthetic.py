"""Synthetic CTR data with a planted multiplicative interaction rule.

Each of the rule fields gets a latent scalar per vocabulary value; the label
is Bernoulli in the sigmoid of the product of those latents (scaled, plus
Gaussian noise). A model must capture a genuine ``len(rule_fields)``-order
multiplicative interaction to beat chance, which is what the distillation
experiments are designed to probe.
"""

from __future__ import annotations

import numpy as np

from .data import INGEST_ROWS, Dataset, FieldSchema


def synthetic_schema(m: int, vocab_size: int) -> FieldSchema:
    names = [f"f{i}" for i in range(m)]
    vocabs = [{f"v{j}": j for j in range(vocab_size)} for _ in range(m)]
    return FieldSchema(names=names, vocabs=vocabs, min_freq=0)


def generate_planted_dataset(
    n: int,
    m: int = 8,
    vocab_size: int = 50,
    seed: int = 0,
    rule_fields: tuple[int, ...] = (0, 1, 2),
    signal: float = 3.0,
    noise: float = 0.5,
) -> tuple[FieldSchema, Dataset, np.ndarray]:
    """Sample ``n`` instances whose labels follow the planted rule.

    Returns ``(schema, dataset, true_logits)``; the true logits (before the
    label noise) are handy for measuring how close a trained model gets to
    the generative rule.
    """
    if not rule_fields or max(rule_fields) >= m:
        raise ValueError(f"rule_fields {rule_fields} out of range for m={m}")
    rng = np.random.default_rng(seed)
    schema = synthetic_schema(m, vocab_size)
    idx = rng.integers(0, vocab_size, size=(n, m), dtype=np.int32)
    latents = {f: rng.normal(size=vocab_size) for f in rule_fields}
    logits = np.full(n, float(signal))
    for f in rule_fields:
        logits = logits * latents[f][idx[:, f]]
    noisy = logits + noise * rng.normal(size=n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-noisy))).astype(np.int8)
    return schema, Dataset(idx, labels), logits


def write_csv(path, schema: FieldSchema, dataset: Dataset) -> None:
    """Materialize an encoded dataset back into the CSV interchange format,
    :data:`~dagfm.data.INGEST_ROWS` rows at a time: each column's value
    strings are looked up at once, then the rows are joined."""
    inverse = [[*schema.values(f), "<oov>"].__getitem__ for f in range(schema.m)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["label", *schema.names]) + "\n")
        for start in range(0, len(dataset), INGEST_ROWS):
            rows = slice(start, start + INGEST_ROWS)
            columns = [map(str, dataset.labels[rows].tolist()),
                       *map(map, inverse, dataset.indices[rows].T.tolist())]
            fh.write("".join(map("{}\n".format, map(",".join, zip(*columns)))))

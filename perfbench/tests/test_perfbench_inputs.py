"""The input generators are pure functions of the seed."""

import numpy as np
import pytest

import inputs
import workloads
from dagfm import data
from dagfm.data import Dataset


def _fingerprints(wl, inp) -> dict[str, bytes]:
    """What the seeds produce, per generator: the split of a stand-in dataset
    whose rows are their own positions, one epoch's batch positions, the
    request stream, and the m=39 rows or CSV bytes."""
    n = 1000
    stand_in = Dataset(np.arange(n, dtype=np.int64).reshape(n, 1), np.zeros(n, dtype=np.int64))
    split = data.split_dataset(stand_in, ratios=wl.ratios, seed=inp.split_seed)
    epoch = data.iterate_batches(split.train, 64, seed=inp.shuffle_seed + 1, with_positions=True)
    out = {
        "split": split.train.indices.tobytes() + split.test.indices.tobytes(),
        "epoch_order": b"".join(rows.tobytes() for rows, _, _ in epoch),
        "requests": b"".join(r.tobytes() + b"|" for r in inp.requests),
    }
    if inp.csv_path is not None:
        out["csv"] = inp.csv_path.read_bytes()
    if inp.rows is not None:
        out["rows"] = inp.rows.indices.tobytes() + inp.rows.labels.tobytes()
    return out


def _make(wl, seed, workdir):
    workdir.mkdir()
    return inputs.make_inputs(wl, seed, workdir, workloads.MIN_REQUESTS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    a = _make(wl, 5, tmp_path / "a")
    b = _make(wl, 5, tmp_path / "b")
    c = _make(wl, 6, tmp_path / "c")
    fa, fb, fc = (_fingerprints(wl, x) for x in (a, b, c))
    assert fa == fb
    assert fa.keys() == fc.keys()
    for part in fa:
        assert fa[part] != fc[part], part


def test_request_sizes_span_the_range_and_do_not_depend_on_the_seed():
    reqs = inputs.request_stream(0, 2000, pool_size=1024, max_rows=256)
    sizes = np.array([len(r) for r in reqs])
    assert sizes.min() == 1 and 200 < sizes.max() <= 256
    assert all(len(np.unique(r)) == len(r) and r.max() < 1024 for r in reqs)
    other = np.array([len(r) for r in inputs.request_stream(1, 2000, pool_size=1024, max_rows=256)])
    assert np.array_equal(np.sort(sizes), np.sort(other)) and not np.array_equal(sizes, other)


def test_m39_rows_are_zipf_skewed_and_balanced():
    rows = inputs.m39_rows(5000, seed=0)
    assert rows.indices.shape == (5000, 39)
    assert np.all(rows.indices < np.array(inputs.M39_VOCAB))
    assert 0.3 < rows.labels.mean() < 0.7
    counts = np.bincount(rows.indices[:, -1])
    assert counts.max() > 20 * np.median(counts[counts > 0])

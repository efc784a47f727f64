"""MovieLens-1M: the CTR-CSV converter and the one frozen recipe run on it.

:func:`convert_movielens` joins ``ratings.dat`` with ``users.dat`` and
``movies.dat`` (``::``-separated, latin-1 encoded) into the package's CSV
layout with seven fields per instance: user id, gender, age, occupation, zip
code, movie id, and the movie's genre string (the full ``|``-joined string
is one categorical value). A rating is 1 to 5 stars, not a click; the label
is 1 when it is 4 or 5, the usual binarization.

:func:`run_experiment` trains a CrossNet teacher and distills a rank-1
(outer) DAG student on that CSV through ``run_pipeline`` by :data:`PLAN`;
the fine-tuned student's gap to :data:`REFERENCE_AUC`, a reference
MovieLens-1M test AUC, is informational.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .data import ParseError, read_csv, split_dataset
from .distill import DistillPlan, PipelineResult, StageConfig, run_pipeline
from .interactions import DagfmModel, DagfmSpec
from .teachers import CrossNetModel, CrossNetSpec

FIELDS = ("user_id", "gender", "age", "occupation", "zip", "movie_id", "genre")
LABELS = {"1": "0", "2": "0", "3": "0", "4": "1", "5": "1"}  # per star rating
REFERENCE_AUC = 0.8976

PLAN = DistillPlan(
    teacher_stage=StageConfig(epochs=6, lr=1e-3, batch_size=2048, patience=3, weight_decay=3e-4),
    distill_stages=(StageConfig(epochs=8, lr=3e-3, batch_size=2048, patience=0),),
    finetune_stage=StageConfig(epochs=3, lr=1e-4, batch_size=2048, patience=3),
)


def run_experiment(ml_dir, out_dir) -> PipelineResult:
    """Convert an extracted ml-1m directory into ``out_dir/ml1m.csv``, split
    it, and run the teacher -> distill -> fine-tune pipeline of :data:`PLAN`
    on it, writing the per-epoch JSONL reports into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    convert_movielens(ml_dir, out_dir / "ml1m.csv")
    schema, dataset = read_csv(out_dir / "ml1m.csv")
    split = split_dataset(dataset, seed=42)
    vocab_sizes, m = schema.vocab_sizes(), len(FIELDS)  # d=16, depth 3, model seed 0
    teacher = CrossNetModel(CrossNetSpec(m, 16, 3), vocab_sizes, seed=0)
    student = DagfmModel(DagfmSpec("outer", m, 16, 3), vocab_sizes, seed=0)
    return run_pipeline(teacher, student, split, PLAN, log_dir=out_dir)


def _read_dat(path, n_cols: int, what: str):
    with open(path, "r", encoding="latin-1") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != n_cols:
                raise ParseError(
                    f"{what} line {line_no}: expected {n_cols} '::' fields, got {len(parts)}"
                )
            yield line_no, parts


def _read_ids(path, n_cols: int, what: str) -> dict:
    """The columns after the first of each line, keyed by the first, an id
    that no two lines may share."""
    rows = {}
    for line_no, (key, *columns) in _read_dat(path, n_cols, what):
        if key in rows:
            raise ParseError(f"{what} line {line_no}: id {key} is listed twice")
        rows[key] = columns
    return rows


def convert_movielens(ml_dir, out_csv) -> int:
    """Write the CSV joined from an ml-1m directory's ``ratings.dat``,
    ``users.dat`` and ``movies.dat``; returns the number of instances written.
    The CSV is written to a temporary file beside ``out_csv`` and moved onto
    it only once every rating has joined: on any error nothing is written
    and a file already at ``out_csv`` is left as it was."""
    ml_dir, out_csv = Path(ml_dir), Path(out_csv)
    users = _read_ids(ml_dir / "users.dat", 5, "users")  # gender, age, occupation, zip
    movies = _read_ids(ml_dir / "movies.dat", 3, "movies")  # title, genres
    fd, tmp = tempfile.mkstemp(prefix=f".{out_csv.name}.", dir=out_csv.parent)
    try:
        n = _write_csv(fd, _read_dat(ml_dir / "ratings.dat", 4, "ratings"), users, movies)
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp's file is private, the CSV is not
        os.replace(tmp, out_csv)
    except BaseException:
        os.unlink(tmp)
        raise
    return n


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_csv(fd: int, ratings, users: dict, movies: dict) -> int:
    """Write the header and one joined row per rating to the open file
    ``fd``, and close it; returns the number of rows."""
    n = 0
    with open(fd, "w", encoding="utf-8") as out:
        out.write(",".join(["label", *FIELDS]) + "\n")
        for line_no, (uid, mid, rating, _ts) in ratings:
            if uid not in users:
                raise ParseError(f"ratings line {line_no}: unknown user {uid}")
            if mid not in movies:
                raise ParseError(f"ratings line {line_no}: unknown movie {mid}")
            if rating not in LABELS:
                raise ParseError(f"ratings line {line_no}: rating {rating!r} is not an "
                                 "integer from 1 to 5")
            out.write(",".join([LABELS[rating], uid, *users[uid], mid, movies[mid][-1]]) + "\n")
            n += 1
    return n


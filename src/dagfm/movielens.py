"""MovieLens-1M to CTR-CSV converter.

Joins ``ratings.dat`` with ``users.dat`` and ``movies.dat`` (``::``-separated,
latin-1 encoded) into the package's CSV layout with seven fields per
instance: user id, gender, age, occupation, zip code, movie id, and the
movie's genre string (the full ``|``-joined string is one categorical
value). The label is 1 when the rating is 4 or 5 — the usual binarization;
declared here because the source data is 1-to-5 stars, not clicks.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .data import ParseError

FIELDS = ("user_id", "gender", "age", "occupation", "zip", "movie_id", "genre")


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


def convert_movielens(ml_dir, out_csv) -> int:
    """Write the CSV joined from an ml-1m directory's ``ratings.dat``,
    ``users.dat`` and ``movies.dat``; returns the number of instances written.
    The CSV is written to a temporary file beside ``out_csv`` and moved onto
    it only once every rating has joined: on any error nothing is written
    and a file already at ``out_csv`` is left as it was."""
    ml_dir, out_csv = Path(ml_dir), Path(out_csv)
    users = {}
    for _, (uid, gender, age, occupation, zipcode) in _read_dat(ml_dir / "users.dat", 5, "users"):
        users[uid] = (gender, age, occupation, zipcode)
    movies = {}
    for _, (mid, _title, genres) in _read_dat(ml_dir / "movies.dat", 3, "movies"):
        movies[mid] = genres
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
            label = "1" if int(rating) >= 4 else "0"
            gender, age, occupation, zipcode = users[uid]
            out.write(
                ",".join([label, uid, gender, age, occupation, zipcode, mid, movies[mid]])
                + "\n"
            )
            n += 1
    return n


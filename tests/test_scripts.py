"""Smoke tests for the runnable scripts under ``scripts/``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_movielens(ml_dir: Path, n_ratings: int = 1500, seed: int = 0) -> None:
    """Fabricated ml-1m style ``.dat`` files: 40 users, 30 movies."""
    rng = np.random.default_rng(seed)
    ml_dir.mkdir()
    (ml_dir / "users.dat").write_text("".join(
        f"{u}::{'MF'[u % 2]}::{18 + u % 5}::{u % 7}::{10000 + u % 9}\n" for u in range(1, 41)
    ), encoding="latin-1")
    (ml_dir / "movies.dat").write_text("".join(
        f"{m}::Movie {m} (2000)::{('Drama', 'Comedy', 'Action|Drama')[m % 3]}\n"
        for m in range(1, 31)
    ), encoding="latin-1")
    users = rng.integers(1, 41, size=n_ratings)
    movies = rng.integers(1, 31, size=n_ratings)
    ratings = rng.integers(1, 6, size=n_ratings)
    rows = enumerate(zip(users, movies, ratings))
    (ml_dir / "ratings.dat").write_text("".join(
        f"{u}::{m}::{r}::{978300000 + k}\n" for k, (u, m, r) in rows
    ), encoding="latin-1")


def test_efficiency_table_runs(capsys):
    main = load_script("efficiency_table").main
    assert main(["--fields", "4", "--embed-dim", "2", "--depth", "1"]) == 0
    assert "CIN / DAGFM-inner FLOPs ratio" in capsys.readouterr().out


def test_run_synthetic_distill_help():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_synthetic_distill.py"), "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "--out" in proc.stdout


def test_run_movielens_rejects_a_directory_without_ratings(tmp_path, capsys):
    main = load_script("run_movielens").main
    assert main(["--ml-dir", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert "ratings.dat" in capsys.readouterr().err


def test_run_movielens_end_to_end(tmp_path):
    write_movielens(tmp_path / "ml")
    out = tmp_path / "out"
    main = load_script("run_movielens").main
    rc = main([
        "--ml-dir", str(tmp_path / "ml"), "--out", str(out),
        "--embed-dim", "2", "--depth", "1",
        "--teacher-epochs", "1", "--distill-epochs", "1", "--finetune-epochs", "1",
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("teacher_auc", "distilled_auc", "finetuned_auc"):
        assert 0.0 <= report[key] <= 1.0
    assert report["abs_gap"] == abs(report["finetuned_auc"] - report["reference_auc"])
    for stem in ("teacher", "distill", "finetune"):
        lines = (out / f"{stem}_epochs.jsonl").read_text().splitlines()
        assert len(lines) == 1

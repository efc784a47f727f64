"""Flat ``key = value`` run configuration with strict key validation.

The file format is INI-style: one section per concern, every key checked
against :data:`KNOWN_KEYS` so typos fail loudly instead of silently falling
back to defaults. Model specs take the field count from the data at build
time, so the config stores hyperparameters only.

Example::

    [run]
    seed = 0
    out_dir = runs/demo

    [data]
    train_csv = data/train.csv
    min_freq = 0
    split = 0.8,0.1,0.1
    split_seed = 42

    [teacher]
    kind = crossnet
    embed_dim = 16
    depth = 3

    [student]
    kind = dagfm
    fn = outer
    embed_dim = 16

    [kd]
    alpha = 1.0
    beta = 0.0

    [stage.teacher]
    epochs = 10
    lr = 1e-3
    batch_size = 1024
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .distill import DistillPlan, StageConfig
from .interactions import DagfmPlusSpec, DagfmSpec
from .numcore import ConfigurationError
from .teachers import CinSpec, CrossNetSpec

STAGE_KEYS = {"epochs", "lr", "batch_size", "patience", "weight_decay", "shuffle_seed"}

KNOWN_KEYS: dict[str, set[str]] = {
    "run": {"seed", "out_dir"},
    "data": {"train_csv", "schema", "min_freq", "split", "split_seed"},
    "teacher": {"kind", "embed_dim", "depth", "layer_size"},
    "student": {"kind", "fn", "embed_dim", "num_layers", "mlp_hidden", "mlp_feed"},
    "kd": {"alpha", "beta", "kd_space"},
    "stage.teacher": STAGE_KEYS,
    "stage.distill": STAGE_KEYS,
    "stage.finetune": STAGE_KEYS,
}

_STAGE_DEFAULTS = {
    "teacher": StageConfig(epochs=10, lr=1e-3, batch_size=1024),
    "distill": StageConfig(epochs=10, lr=1e-3, batch_size=1024),
    "finetune": StageConfig(epochs=5, lr=1e-4, batch_size=1024),
}


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "."
    train_csv: str | None = None
    schema_path: str | None = None
    min_freq: int = 0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    split_seed: int = 42
    teacher_kind: str = "crossnet"
    teacher_embed_dim: int = 16
    teacher_depth: int = 3
    cin_layer_size: int = 200
    student_kind: str = "dagfm"
    student_fn: str = "outer"
    student_embed_dim: int | None = None  # None: match the teacher
    student_layers: int | None = None  # None: match the teacher depth
    mlp_hidden: tuple[int, ...] = (128, 128, 128)
    mlp_feed: str = "all-states"
    plan: DistillPlan = field(
        default_factory=lambda: DistillPlan(
            teacher_stage=_STAGE_DEFAULTS["teacher"],
            distill_stages=(_STAGE_DEFAULTS["distill"],),
            finetune_stage=_STAGE_DEFAULTS["finetune"],
        )
    )

    def teacher_spec(self, num_fields: int):
        if self.teacher_kind == "crossnet":
            return CrossNetSpec(num_fields, self.teacher_embed_dim, self.teacher_depth)
        if self.teacher_kind == "cin":
            return CinSpec(
                num_fields,
                self.teacher_embed_dim,
                tuple([self.cin_layer_size] * self.teacher_depth),
            )
        raise ConfigurationError(
            f"unknown teacher kind {self.teacher_kind!r}; pick 'cin' or 'crossnet'"
        )

    def student_spec(
        self,
        num_fields: int,
        default_embed_dim: int | None = None,
        default_layers: int | None = None,
    ):
        """Resolve the student spec; unspecified width/depth fall back to the
        supplied defaults (normally the teacher's)."""
        embed = self.student_embed_dim
        if embed is None:
            embed = default_embed_dim if default_embed_dim is not None else self.teacher_embed_dim
        layers = self.student_layers
        if layers is None:
            layers = default_layers if default_layers is not None else self.teacher_depth
        base = DagfmSpec(self.student_fn, num_fields, embed, layers)
        if self.student_kind == "dagfm":
            return base
        if self.student_kind == "dagfm+":
            return DagfmPlusSpec(base, mlp_hidden=self.mlp_hidden, mlp_feed=self.mlp_feed)
        raise ConfigurationError(
            f"unknown student kind {self.student_kind!r}; pick 'dagfm' or 'dagfm+'"
        )


def _parse_typed(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as e:
        raise ConfigurationError(f"[{section}] {key} = {raw!r}: {e}") from e


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _float_triple(raw: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in raw.split(",") if p.strip())
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated ratios, got {len(parts)}")
    return parts


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigurationError(f"config syntax error: {e}") from e
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigurationError(
                f"unknown config section [{section}]; known: {sorted(KNOWN_KEYS)}"
            )
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]; known: {sorted(KNOWN_KEYS[section])}"
                )
    cfg = RunConfig()

    def get(section, key, default, kind):
        if parser.has_option(section, key):
            return _parse_typed(section, key, parser.get(section, key), kind)
        return default

    cfg.seed = get("run", "seed", cfg.seed, int)
    cfg.out_dir = get("run", "out_dir", cfg.out_dir, str)
    cfg.train_csv = get("data", "train_csv", cfg.train_csv, str)
    cfg.schema_path = get("data", "schema", cfg.schema_path, str)
    cfg.min_freq = get("data", "min_freq", cfg.min_freq, int)
    cfg.split_ratios = get("data", "split", cfg.split_ratios, _float_triple)
    cfg.split_seed = get("data", "split_seed", cfg.split_seed, int)
    cfg.teacher_kind = get("teacher", "kind", cfg.teacher_kind, str)
    cfg.teacher_embed_dim = get("teacher", "embed_dim", cfg.teacher_embed_dim, int)
    cfg.teacher_depth = get("teacher", "depth", cfg.teacher_depth, int)
    cfg.cin_layer_size = get("teacher", "layer_size", cfg.cin_layer_size, int)
    cfg.student_kind = get("student", "kind", cfg.student_kind, str)
    cfg.student_fn = get("student", "fn", cfg.student_fn, str)
    cfg.student_embed_dim = get("student", "embed_dim", cfg.student_embed_dim, int)
    cfg.student_layers = get("student", "num_layers", cfg.student_layers, int)
    cfg.mlp_hidden = get("student", "mlp_hidden", cfg.mlp_hidden, _int_tuple)
    cfg.mlp_feed = get("student", "mlp_feed", cfg.mlp_feed, str)

    stages = {}
    for name in ("teacher", "distill", "finetune"):
        section = f"stage.{name}"
        base = _STAGE_DEFAULTS[name]
        stages[name] = StageConfig(
            epochs=get(section, "epochs", base.epochs, int),
            lr=get(section, "lr", base.lr, float),
            batch_size=get(section, "batch_size", base.batch_size, int),
            patience=get(section, "patience", base.patience, int),
            weight_decay=get(section, "weight_decay", base.weight_decay, float),
            shuffle_seed=get(section, "shuffle_seed", base.shuffle_seed, int),
        )
    cfg.plan = DistillPlan(
        teacher_stage=stages["teacher"],
        distill_stages=(stages["distill"],),
        finetune_stage=stages["finetune"],
        alpha=get("kd", "alpha", 1.0, float),
        beta=get("kd", "beta", 0.0, float),
        kd_space=get("kd", "kd_space", "logit", str),
    )
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

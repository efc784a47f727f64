"""Flat ``key = value`` run configuration with strict key validation.

The file format is INI-style: one section per concern, every key checked
against :data:`KNOWN_KEYS` so typos fail loudly instead of silently falling
back to defaults. Model specs take the field count from the data at build
time, so the config stores hyperparameters only. The student's embedding
width is always its teacher's (distillation copies the teacher's table), so
no key sets it; its depth defaults to the teacher's.

:data:`_KEYS` is the one table of run settings. A command-line flag is an
alias of one key: :func:`parse_config` takes the file's values, then the
flags' values over them, and builds and validates the :class:`RunConfig`
once, so a setting fails in the same place whichever way it arrives.

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
    num_layers = 2

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
import dataclasses
import typing
from dataclasses import dataclass, field

from .data import check_ratios
from .distill import DistillPlan, StageConfig
from .interactions import DagfmPlusSpec, DagfmSpec
from .numcore import ConfigurationError, check_int
from .teachers import CinSpec, CrossNetSpec

TEACHER_KINDS = ("cin", "crossnet")

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

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        check_int("split_seed", self.split_seed, 0)
        check_int("min_freq", self.min_freq, 0)
        check_ratios(self.split_ratios)
        for name in ("teacher_embed_dim", "teacher_depth", "cin_layer_size"):
            check_int(name, getattr(self, name), 1)
        # the kinds, the student's depth and its tower, by the specs' own checks
        self.student_spec(self.teacher_spec(2))

    def teacher_spec(self, num_fields: int):
        if self.teacher_kind == "crossnet":
            return CrossNetSpec(num_fields, self.teacher_embed_dim, self.teacher_depth)
        if self.teacher_kind == "cin":
            return CinSpec(
                num_fields,
                self.teacher_embed_dim,
                tuple([self.cin_layer_size] * self.teacher_depth),
            )
        pick = " or ".join(map(repr, TEACHER_KINDS))
        raise ConfigurationError(f"unknown teacher kind {self.teacher_kind!r}; pick {pick}")

    def student_spec(self, teacher_spec):
        """The student of a ``teacher_spec`` teacher: its field count and
        embedding width, and its depth unless ``[student] num_layers`` is set
        (``[teacher] depth`` for a teacher spec without ``num_layers``)."""
        layers = self.student_layers
        if layers is None:
            layers = getattr(teacher_spec, "num_layers", self.teacher_depth)
        base = DagfmSpec(self.student_fn, teacher_spec.num_fields, teacher_spec.embed_dim, layers)
        if self.student_kind == "dagfm":
            return base
        if self.student_kind == "dagfm+":
            return DagfmPlusSpec(base, mlp_hidden=self.mlp_hidden, mlp_feed=self.mlp_feed)
        raise ConfigurationError(
            f"unknown student kind {self.student_kind!r}; pick 'dagfm' or 'dagfm+'"
        )


def _parse_typed(where: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as e:
        raise ConfigurationError(f"{where} {raw!r}: {e}") from e


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _float_triple(raw: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in raw.split(",") if p.strip())
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated ratios, got {len(parts)}")
    return parts


# Every INI key: (section, key) -> (field, parser). The [kd] keys set fields
# of the DistillPlan, the [stage.*] keys those of their StageConfig (one
# per StageConfig field, parsed as its annotated type), the rest RunConfig's.
_STAGE_TYPES = typing.get_type_hints(StageConfig)
_KEYS: dict[tuple[str, str], tuple[str, typing.Callable]] = {
    ("run", "seed"): ("seed", int),
    ("run", "out_dir"): ("out_dir", str),
    ("data", "train_csv"): ("train_csv", str),
    ("data", "schema"): ("schema_path", str),
    ("data", "min_freq"): ("min_freq", int),
    ("data", "split"): ("split_ratios", _float_triple),
    ("data", "split_seed"): ("split_seed", int),
    ("teacher", "kind"): ("teacher_kind", str),
    ("teacher", "embed_dim"): ("teacher_embed_dim", int),
    ("teacher", "depth"): ("teacher_depth", int),
    ("teacher", "layer_size"): ("cin_layer_size", int),
    ("student", "kind"): ("student_kind", str),
    ("student", "fn"): ("student_fn", str),
    ("student", "num_layers"): ("student_layers", int),
    ("student", "mlp_hidden"): ("mlp_hidden", _int_tuple),
    ("student", "mlp_feed"): ("mlp_feed", str),
    **{
        (f"stage.{stage}", f.name): (f.name, _STAGE_TYPES[f.name])
        for stage in _STAGE_DEFAULTS
        for f in dataclasses.fields(StageConfig)
    },
    ("kd", "alpha"): ("alpha", float),
    ("kd", "beta"): ("beta", float),
}

KNOWN_KEYS: dict[str, set[str]] = {
    section: {k for s, k in _KEYS if s == section} for section, _ in _KEYS
}


def parse_config(text: str, flags=()) -> RunConfig:
    """The settings of INI ``text``, then ``flags`` over them, as one
    validated :class:`RunConfig`.

    ``flags`` holds ``(flag, section, key, value)`` overrides of :data:`_KEYS`
    entries. A string value is parsed as the key's type, and a parse error
    names the flag; any other value is taken as already typed.
    """
    parser = configparser.ConfigParser(interpolation=None)  # a "%" is a plain character
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
    given = {section: {} for section in KNOWN_KEYS}
    for (section, key), (name, parse) in _KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            given[section][name] = _parse_typed(f"[{section}] {key} =", raw, parse)
    for flag, section, key, value in flags:
        name, parse = _KEYS[section, key]
        given[section][name] = _parse_typed(flag, value, parse) if isinstance(value, str) else value
    stages = {
        name: dataclasses.replace(base, **given[f"stage.{name}"])
        for name, base in _STAGE_DEFAULTS.items()
    }
    plan = DistillPlan(
        teacher_stage=stages["teacher"],
        distill_stages=(stages["distill"],),
        finetune_stage=stages["finetune"],
        **given["kd"],
    )
    fields = {name: value for section in ("run", "data", "teacher", "student")
              for name, value in given[section].items()}
    return RunConfig(**fields, plan=plan)


def load_config(path, flags=()) -> RunConfig:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from e
    return parse_config(text, flags)

"""Pipeline configuration: a flat key=value text file.

The file is UTF-8 text. Lines are ``key = value``; blank lines and ``#``
comments are ignored. Unknown keys are rejected so typos fail loudly instead
of silently running with defaults.

``PipelineConfig`` holds the windowing, cleaning and graph settings and the
stage configs ``rbf``, ``model`` and ``train``. Every field of these four
dataclasses is a key, parsed by its annotation, except the sections and the
model's ``n_nodes`` and ``in_channels``, which come from the fused panel. The
result is validated once, so a bad value is a ``ConfigError`` before any
stage runs; the graph stage checks ``sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, ValidationError
from .fusion import RbfConfig
from .ingest import DEFAULT_SPLIT, check_split
from .stgcn import ModelConfig, TrainConfig


@dataclass
class PipelineConfig:
    # windowing
    horizon_steps: int = 3
    predicted_target: str = ""
    split: tuple[float, float, float] = DEFAULT_SPLIT
    # cleaning
    max_gap_hours: int = 3
    # graph
    sigma: float | None = None
    # stages; the model's n_nodes and in_channels come from the fused panel
    rbf: RbfConfig = field(default_factory=RbfConfig)
    model: ModelConfig = field(
        default_factory=lambda: ModelConfig(n_nodes=1, in_channels=1, history_steps=12))
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        if self.horizon_steps < 1:
            raise ConfigError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        check_split(self.split)
        if self.max_gap_hours < 0:
            raise ConfigError(f"max_gap_hours must be >= 0, got {self.max_gap_hours}")
        try:
            for section in (self.rbf, self.model, self.train):
                section.validate()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc


def _triplet(cast):
    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError("need exactly three comma-separated values")
        return tuple(cast(p.strip()) for p in parts)
    return parse


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() in ("", "none", "auto") else float(text)


_BY_ANNOTATION = {"int": int, "float": float, "str": str, "float | None": _parse_optional_float,
                  "tuple[int, int, int]": _triplet(int),
                  "tuple[float, float, float]": _triplet(float)}

# key -> (section, parser); section None is a field of PipelineConfig itself. An
# annotation with no parser is a KeyError here, at import, never a dropped key.
_PARSERS = {f.name: (section, _BY_ANNOTATION[f.type])
            for section, cls in ((None, PipelineConfig), ("rbf", RbfConfig),
                                 ("model", ModelConfig), ("train", TrainConfig))
            for f in fields(cls)
            if f.name not in ("rbf", "model", "train", "n_nodes", "in_channels")}


def parse_config_text(text: str, source: str = "<config>", **overrides) -> PipelineConfig:
    """The defaults with the text's settings, then ``overrides``, applied and validated."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        try:
            settings[key] = _PARSERS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"{source} line {lineno}: bad value for {key}: {exc}")
    sections: dict = {}
    for key, value in {**settings, **overrides}.items():
        sections.setdefault(_PARSERS[key][0], {})[key] = value
    config = PipelineConfig(**sections.pop(None, {}))
    config = replace(config, **{name: replace(getattr(config, name), **values)
                                for name, values in sections.items()})
    config.validate()
    return config


def config_text(config: PipelineConfig) -> str:
    """The text ``parse_config_text`` reads back as ``config``, one key a line."""
    lines = []
    for key, (section, _) in _PARSERS.items():
        value = getattr(getattr(config, section) if section else config, key)
        text = (", ".join(map(str, value)) if isinstance(value, tuple)
                else "none" if value is None else str(value))
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def load_config(path, **overrides) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    return parse_config_text(text, source=str(path), **overrides)

"""Pipeline configuration: a flat key=value text file.

The file is UTF-8 text. Lines are ``key = value``; blank lines and ``#``
comments are ignored. Unknown keys are rejected so typos fail loudly instead
of silently running with defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass
class PipelineConfig:
    # windowing
    history_steps: int = 12
    horizon_steps: int = 3
    predicted_target: str = ""
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    # cleaning
    max_gap_hours: int = 3
    # fusion
    shape_c: float | None = None
    ridge: float | None = None
    distance_metric: str = "euclidean"
    # graph
    sigma: float | None = None
    graph_mode: str = "chebyshev"
    # model
    channels: tuple[int, int, int] = (32, 8, 32)
    time_kernel: int = 3
    graph_kernel: int = 3
    dropout: float = 0.3
    # training
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.history_steps < 1 or self.horizon_steps < 1:
            raise ConfigError(
                f"history_steps and horizon_steps must be >= 1, got "
                f"({self.history_steps}, {self.horizon_steps})")
        if len(self.split) != 3 or any(f < 0 for f in self.split) \
                or abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"split must be three fractions summing to 1, got {self.split}")
        if self.max_gap_hours < 0:
            raise ConfigError(f"max_gap_hours must be >= 0, got {self.max_gap_hours}")
        if len(self.channels) != 3 or any(c < 1 for c in self.channels):
            raise ConfigError(f"channels must be three positive ints, got {self.channels}")


def _parse_float_triplet(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("need exactly three comma-separated values")
    a, b, c = (float(p) for p in parts)
    return (a, b, c)


def _parse_int_triplet(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("need exactly three comma-separated values")
    a, b, c = (int(p) for p in parts)
    return (a, b, c)


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() in ("", "none", "auto") else float(text)


_PARSERS = {
    "history_steps": int,
    "horizon_steps": int,
    "predicted_target": str,
    "split": _parse_float_triplet,
    "max_gap_hours": int,
    "shape_c": _parse_optional_float,
    "ridge": _parse_optional_float,
    "distance_metric": str,
    "sigma": _parse_optional_float,
    "graph_mode": str,
    "channels": _parse_int_triplet,
    "time_kernel": int,
    "graph_kernel": int,
    "dropout": float,
    "lr": float,
    "batch_size": int,
    "epochs": int,
    "seed": int,
}

assert set(_PARSERS) == {f.name for f in fields(PipelineConfig)}


def parse_config_text(text: str, source: str = "<config>") -> PipelineConfig:
    config = PipelineConfig()
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
            setattr(config, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"{source} line {lineno}: bad value for {key}: {exc}")
    config.validate()
    return config


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    return parse_config_text(text, source=str(path))

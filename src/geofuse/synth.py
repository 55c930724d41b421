"""Synthetic multi-source station scenarios with known ground truth.

Each target is a smooth scalar field over the unit square: a small set of
Gaussian bumps whose centers orbit slowly, plus a constant offset. The last
target is coupled: a mix of its own slow field and the average of the other
(faster) targets ``COUPLING_LAG`` = 2 hours earlier, so its future genuinely
depends on channels a forecaster can only see through fusion. Stations are
grouped into sources; a station reports every target its source owns, with
optional observation noise and injected gaps.

Every scenario is hourly from ``START``, 2017-01-01 00:00. Everything is
driven by one seed, so a scenario is reproducible down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal

import numpy as np

from .errors import ConfigError
from .ingest import HOUR, OBSERVATIONS, ObservationPanel, Station, write_stations
from .stgcn import _physical_memory

_BUMPS = 3
AR_RHO = 0.9                    # lag-1 correlation of the AR(1) modulation
BUMP_RADIUS = (0.25, 0.45)      # range of the bumps' spatial scale
COUPLING_LAG = 2                # hours the coupled target trails its drivers
START = datetime(2017, 1, 1)    # the first hour of every scenario


@dataclass
class SynthConfig:
    seed: int = 0
    stations_per_source: tuple[int, ...] = (5, 4, 4)
    targets_per_source: tuple[int, ...] = (2, 3, 2)
    hours: int = 240
    noise: float = 0.02
    gap_rate: float = 0.0      # chance per native cell that a gap run starts
    max_gap_len: int = 6
    coupling: float = 0.65     # exogenous share of the coupled (last) target
    ar_strength: float = 0.0   # stationary std of a shared AR(1) driver modulation
    placement: str = "uniform"  # "uniform" scatter or coverage-oriented "grid"

    def validate(self) -> None:
        if len(self.stations_per_source) != len(self.targets_per_source):
            raise ConfigError("stations_per_source and targets_per_source differ in length")
        if not self.stations_per_source:
            raise ConfigError("need at least one source")
        if any(n < 1 for n in self.stations_per_source):
            raise ConfigError("every source needs at least one station")
        if any(k < 1 for k in self.targets_per_source):
            raise ConfigError("every source needs at least one target")
        if self.hours < 1:
            raise ConfigError(f"hours must be >= 1, got {self.hours}")
        # The float64 panel alone; ModelConfig refuses a model by the same rule.
        need = 8 * self.hours * sum(self.stations_per_source) * self.n_targets
        if (memory := _physical_memory()) is not None and need > memory:
            raise ConfigError(
                f"the {self.hours}-hour panel needs {Decimal(need) / 2**30:.3g} GiB, more "
                f"than the {memory / 2**30:.3g} GiB of physical memory")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be >= 0 and finite, got {self.noise}")
        if not 0.0 <= self.gap_rate < 1.0:
            raise ConfigError(f"gap_rate must be in [0, 1), got {self.gap_rate}")
        if not 1 <= self.max_gap_len < 2**63:  # the int64 draw of a gap's length
            raise ConfigError(f"max_gap_len must be in [1, 2**63), got {self.max_gap_len}")
        if not 0.0 <= self.coupling <= 1.0:
            raise ConfigError(f"coupling must be in [0, 1], got {self.coupling}")
        if not self.ar_strength >= 0:
            raise ConfigError(f"ar_strength must be >= 0, got {self.ar_strength}")
        if self.placement not in ("uniform", "grid"):
            raise ConfigError(f"placement must be uniform or grid, got {self.placement!r}")

    @property
    def n_targets(self) -> int:
        return sum(self.targets_per_source)

    @property
    def coupled_target(self) -> str:
        return _target_names(self.n_targets)[-1]


@dataclass
class SynthResult:
    stations: list[Station]
    panel: ObservationPanel     # native cells only, noise and gaps applied
    truth: np.ndarray           # (T, S, K) noiseless field at every station


def _target_names(k: int) -> list[str]:
    return [f"t{j + 1:02d}" for j in range(k)]


class _BumpField:
    """Sum of orbiting Gaussian bumps, evaluated on fixed points over time."""

    def __init__(self, rng: np.random.Generator, period_range: tuple[float, float]):
        self.amp = rng.uniform(0.8, 1.6, size=_BUMPS)
        self.radius = rng.uniform(*BUMP_RADIUS, size=_BUMPS)
        self.orbit = rng.uniform(0.2, 0.4, size=_BUMPS)
        self.period = rng.uniform(*period_range, size=_BUMPS)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=(2, _BUMPS))
        self.offset = rng.uniform(3.0, 6.0)

    def sample(self, xy: np.ndarray, hours: int) -> np.ndarray:
        """(S, 2) points over ``hours`` steps -> (T, S)."""
        t = np.arange(hours, dtype=np.float64)[:, None]
        out = np.full((hours, xy.shape[0]), self.offset)
        for b in range(_BUMPS):
            angle = 2.0 * np.pi * t / self.period[b]
            cx = 0.5 + self.orbit[b] * np.cos(angle + self.phase[0, b])
            cy = 0.5 + self.orbit[b] * np.sin(angle + self.phase[1, b])
            d2 = (xy[None, :, 0] - cx) ** 2 + (xy[None, :, 1] - cy) ** 2
            out += self.amp[b] * np.exp(-d2 / (2.0 * self.radius[b] ** 2))
        return out


def generate(config: SynthConfig | None = None) -> SynthResult:
    """Build stations, the noiseless truth, and an observed panel."""
    config = config or SynthConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    targets = _target_names(config.n_targets)

    stations: list[Station] = []
    k_cursor = 0
    for i, (n_st, n_tg) in enumerate(zip(config.stations_per_source,
                                         config.targets_per_source)):
        owned = tuple(targets[k_cursor:k_cursor + n_tg])
        k_cursor += n_tg
        coords = _place_stations(rng, n_st, config.placement)
        for x, y in coords:
            stations.append(Station(f"s{len(stations) + 1:02d}",
                                    f"src{i + 1}", float(x), float(y), owned))

    xy = np.array([[st.x, st.y] for st in stations])
    t_total, n_stations, n_targets = config.hours, len(stations), len(targets)

    # Drivers move fast, the coupled target's own component moves slowly, so
    # its near future is easiest to read off the other channels.
    truth = np.empty((t_total, n_stations, n_targets))
    for k in range(n_targets):
        fast = k < n_targets - 1
        fld = _BumpField(rng, (30.0, 70.0) if fast else (120.0, 200.0))
        truth[:, :, k] = fld.sample(xy, t_total)
        if fast and config.ar_strength > 0.0:
            # Region-wide stochastic modulation: gives the drivers innovations
            # a downstream forecaster cannot recover from the coupled target's
            # own lagged history.
            truth[:, :, k] += _ar1_series(rng, t_total, config.ar_strength)[:, None]
    if n_targets > 1 and config.coupling > 0.0:
        drivers = truth[:, :, :-1].mean(axis=2)
        lagged = np.empty_like(drivers)
        lagged[COUPLING_LAG:] = drivers[:t_total - COUPLING_LAG]
        lagged[:COUPLING_LAG] = drivers[0]
        truth[:, :, -1] = ((1.0 - config.coupling) * truth[:, :, -1]
                           + config.coupling * lagged)

    panel = ObservationPanel(timestamps=[START + i * HOUR for i in range(t_total)],
                             stations=stations, target_ids=targets, values=truth.copy())
    native = panel.native_mask()
    values = panel.values
    values[:, ~native] = np.nan
    if config.noise > 0.0:
        values += np.where(native, rng.normal(0.0, config.noise, values.shape), 0.0)
    if config.gap_rate > 0.0:
        _inject_gaps(values, native, config, rng)
    panel.validate()
    return SynthResult(stations, panel, truth)


def _place_stations(rng: np.random.Generator, n: int, placement: str) -> np.ndarray:
    """Station coordinates for one source, (n, 2) in the unit square."""
    if placement == "uniform":
        return rng.uniform(0.05, 0.95, size=(n, 2))
    # Jittered grid: the source spreads its stations to cover the region,
    # the way a real network is deployed.
    g = int(np.ceil(np.sqrt(n)))
    cells = [(i, j) for i in range(g) for j in range(g)]
    picks = [cells[int(round(idx))] for idx in np.linspace(0, len(cells) - 1, n)]
    centers = (np.array(picks, dtype=np.float64) + 0.5) / g
    jitter = rng.uniform(-0.25 / g, 0.25 / g, size=(n, 2))
    return np.clip(centers + jitter, 0.03, 0.97)


def _ar1_series(rng: np.random.Generator, n: int, strength: float) -> np.ndarray:
    """AR(1) with coefficient ``AR_RHO`` and stationary standard deviation ``strength``."""
    innovations = rng.normal(0.0, strength * np.sqrt(1.0 - AR_RHO * AR_RHO), size=n)
    series = np.empty(n)
    series[0] = rng.normal(0.0, strength)
    for t in range(1, n):
        series[t] = AR_RHO * series[t - 1] + innovations[t]
    return series


def _inject_gaps(values: np.ndarray, native: np.ndarray, config: SynthConfig,
                 rng: np.random.Generator) -> None:
    """Knock out runs of native cells, never emptying a (time, target) column."""
    t_total = values.shape[0]
    avail = (~np.isnan(values)).sum(axis=1)  # (T, K) source counts
    for s in range(values.shape[1]):
        for k in range(values.shape[2]):
            if not native[s, k]:
                continue
            starts = np.flatnonzero(rng.random(t_total) < config.gap_rate)
            lengths = rng.integers(1, config.max_gap_len + 1, size=starts.size)
            for start, length in zip(starts, lengths):
                for t in range(start, min(start + int(length), t_total)):
                    # Keep the last available source so fusion stays defined.
                    if avail[t, k] >= 2 and not np.isnan(values[t, s, k]):
                        values[t, s, k] = np.nan
                        avail[t, k] -= 1


def write_scenario_csvs(result: SynthResult, stations_path, observations_path) -> None:
    """Write the station table and long-format observations.

    Native cells that were gapped out are written with an empty value field,
    which the loader reads back as missing.
    """
    write_stations(stations_path, result.stations)
    panel = result.panel
    s_idx, k_idx = np.nonzero(panel.native_mask())
    cells = [(panel.stations[s].id, panel.target_ids[k]) for s, k in zip(s_idx, k_idx)]
    OBSERVATIONS.write(observations_path, panel.timestamps, cells,
                       panel.values[:, s_idx, k_idx], None)

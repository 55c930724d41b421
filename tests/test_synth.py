"""Synthetic scenario generator: structure, determinism, coupling, round trip."""

import numpy as np
import pytest

from geofuse.cli import main
from geofuse.errors import ConfigError
from geofuse.ingest import load_observations, load_stations
from geofuse.synth import SynthConfig, generate, write_scenario_csvs


def test_default_scenario_structure():
    result = generate()
    config = SynthConfig()
    assert len(result.stations) == 13
    assert config.n_targets == 7
    assert config.coupled_target == "t07"
    assert result.truth.shape == (240, 13, 7)
    assert np.isfinite(result.truth).all()
    panel = result.panel
    assert panel.values.shape == (240, 13, 7)
    # Stations report exactly the targets their source owns.
    native = panel.native_mask()
    for s, st in enumerate(panel.stations):
        owned = {panel.target_ids.index(t) for t in st.targets}
        assert set(np.flatnonzero(native[s])) == owned
        assert np.isnan(panel.values[:, s, [k for k in range(7) if k not in owned]]).all()
    # Three sources own 2, 3, and 2 targets.
    sources = {}
    for st in result.stations:
        sources.setdefault(st.source_id, set()).update(st.targets)
    assert sorted(len(v) for v in sources.values()) == [2, 2, 3]
    assert len(set().union(*sources.values())) == 7


def test_generation_is_deterministic():
    config = SynthConfig(seed=42, gap_rate=0.1)
    a = generate(config)
    b = generate(config)
    assert a.truth.tobytes() == b.truth.tobytes()
    assert a.panel.values.tobytes() == b.panel.values.tobytes()
    assert [(s.id, s.x, s.y) for s in a.stations] == \
           [(s.id, s.x, s.y) for s in b.stations]
    c = generate(SynthConfig(seed=43, gap_rate=0.1))
    assert a.truth.tobytes() != c.truth.tobytes()


def test_noiseless_panel_equals_truth_at_native_cells():
    result = generate(SynthConfig(noise=0.0, gap_rate=0.0, hours=50))
    native = result.panel.native_mask()
    for s in range(len(result.stations)):
        for k in range(7):
            col = result.panel.values[:, s, k]
            if native[s, k]:
                assert np.array_equal(col, result.truth[:, s, k])
            else:
                assert np.isnan(col).all()


def test_coupled_target_mixes_lagged_driver_mean():
    # With full coupling and no lag the last channel IS the driver mean.
    result = generate(SynthConfig(coupling=1.0, coupling_lag=0, noise=0.0,
                                  hours=60))
    drivers = result.truth[:, :, :-1].mean(axis=2)
    assert np.allclose(result.truth[:, :, -1], drivers, atol=1e-12)

    lagged = generate(SynthConfig(coupling=1.0, coupling_lag=2, noise=0.0,
                                  hours=60))
    drv = lagged.truth[:, :, :-1].mean(axis=2)
    assert np.allclose(lagged.truth[2:, :, -1], drv[:-2], atol=1e-12)
    assert np.allclose(lagged.truth[0, :, -1], drv[0], atol=1e-12)
    assert np.allclose(lagged.truth[1, :, -1], drv[0], atol=1e-12)

    mixed = generate(SynthConfig(coupling=0.0, noise=0.0, hours=60))
    assert not np.allclose(mixed.truth[:, :, -1],
                           mixed.truth[:, :, :-1].mean(axis=2), atol=0.01)


def test_gap_injection_never_empties_a_column():
    config = SynthConfig(seed=7, gap_rate=0.2, max_gap_len=8, hours=120)
    result = generate(config)
    values = result.panel.values
    native = result.panel.native_mask()
    baseline = generate(SynthConfig(seed=7, gap_rate=0.0, hours=120))
    n_gapped = np.isnan(values).sum() - np.isnan(baseline.panel.values).sum()
    assert n_gapped > 0
    for k in range(values.shape[2]):
        native_stations = np.flatnonzero(native[:, k])
        counts = (~np.isnan(values[:, native_stations, k])).sum(axis=1)
        assert counts.min() >= 1, f"target {k} lost all sources at some hour"


def test_csv_round_trip(tmp_path):
    result = generate(SynthConfig(seed=3, gap_rate=0.1, hours=48))
    st_path = tmp_path / "stations.csv"
    obs_path = tmp_path / "observations.csv"
    write_scenario_csvs(result, st_path, obs_path)

    stations = load_stations(st_path)
    panel = load_observations(obs_path, stations)
    assert [s.id for s in stations] == [s.id for s in result.stations]
    assert [s.targets for s in stations] == [s.targets for s in result.stations]
    assert panel.target_ids == result.panel.target_ids
    assert panel.timestamps == result.panel.timestamps
    orig, back = result.panel.values, panel.values
    assert np.array_equal(np.isnan(orig), np.isnan(back))
    both = ~np.isnan(orig)
    # Values go through %.6f text, so match to half an ulp of that format.
    assert np.max(np.abs(orig[both] - back[both])) <= 5.0e-7
    # Station coordinates survive at the same precision.
    for a, b in zip(stations, result.stations):
        assert a.x == pytest.approx(b.x, abs=5e-7)
        assert a.y == pytest.approx(b.y, abs=5e-7)


def test_cli_without_flags_writes_the_default_scenario(tmp_path):
    """``geofuse synth``'s defaults are ``SynthConfig``'s."""
    assert main(["synth", "--out-dir", str(tmp_path / "cli")]) == 0
    write_scenario_csvs(generate(SynthConfig()), tmp_path / "stations.csv",
                        tmp_path / "observations.csv")
    for name in ("stations.csv", "observations.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_config_validation():
    with pytest.raises(ConfigError, match="length"):
        generate(SynthConfig(stations_per_source=(3, 3), targets_per_source=(2,)))
    with pytest.raises(ConfigError, match="hours"):
        generate(SynthConfig(hours=0))
    with pytest.raises(ConfigError, match="gap_rate"):
        generate(SynthConfig(gap_rate=1.0))
    with pytest.raises(ConfigError, match="coupling"):
        generate(SynthConfig(coupling=1.5))
    with pytest.raises(ConfigError, match="noise"):
        generate(SynthConfig(noise=-0.1))
    with pytest.raises(ConfigError, match="station"):
        generate(SynthConfig(stations_per_source=(0, 2),
                             targets_per_source=(1, 1)))

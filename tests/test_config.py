"""Flat key=value pipeline configuration files."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from geofuse.config import (
    _PARSERS,
    PipelineConfig,
    config_text,
    load_config,
    parse_config_text,
)
from geofuse.errors import ConfigError


def test_defaults_round_trip():
    config = parse_config_text("")
    assert config == PipelineConfig()
    assert config.model.history_steps == 12
    assert config.model.channels == (32, 8, 32)
    assert config.rbf.shape_c is None


def test_values_comments_and_whitespace():
    text = """
    # forecasting window
    history_steps = 9
    horizon_steps=2          # inline comment
    predicted_target = t03

    split = 0.7, 0.2, 0.1
    channels = 16,8,16
    shape_c = 0.25
    ridge = none
    sigma = auto
    dropout = 0.1
    lr = 0.01
    """
    config = parse_config_text(text)
    assert config.model.history_steps == 9
    assert config.horizon_steps == 2
    assert config.predicted_target == "t03"
    assert config.split == (0.7, 0.2, 0.1)
    assert config.model.channels == (16, 8, 16)
    assert config.rbf.shape_c == 0.25
    assert config.rbf.ridge is None
    assert config.sigma is None
    assert config.model.dropout == 0.1
    assert config.train.lr == 0.01
    # Four temporal layers of width 3 leave 8 - 4 * 2 = 0 steps for the head.
    with pytest.raises(ConfigError, match="history_steps=8 leaves 0 time steps"):
        parse_config_text(text.replace("history_steps = 9", "history_steps = 8"))


def test_every_key_is_a_field_of_its_section():
    config = PipelineConfig()
    owners = {None: config, "rbf": config.rbf, "model": config.model, "train": config.train}
    unkeyed = {"rbf", "model", "train", "n_nodes", "in_channels"}
    declared = {(section, f.name) for section, owner in owners.items()
                for f in fields(owner) if f.name not in unkeyed}
    assert {(section, key) for key, (section, _) in _PARSERS.items()} == declared


def test_every_key_parses_the_text_of_its_default():
    """Each line of the defaults' ``config_text``, alone, gives the defaults back.

    The reprs are compared, so a key parsed as the wrong type fails too.
    """
    config = PipelineConfig()
    lines = config_text(config).splitlines()
    assert [line.partition(" = ")[0] for line in lines] == list(_PARSERS)
    for line in lines:
        assert repr(parse_config_text(line)) == repr(config), line


POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr)
OPTIONAL = st.sampled_from(["none", "None", "auto", ""])


@st.composite
def config_lines(draw) -> str:
    """``key = value`` lines for some keys, each value inside its parser's range.

    The keys a config checks together (the kernels, the graph mode and the
    history) are drawn so that they pass together.
    """
    keys = draw(st.lists(st.sampled_from(list(_PARSERS)), unique=True))
    kernel = draw(st.integers(1, 4)) if "time_kernel" in keys else 3
    mode = draw(st.sampled_from(["chebyshev", "first_order"])) if "graph_mode" in keys \
        else "chebyshev"
    for needed, key in ((kernel != 3, "history_steps"), (mode != "chebyshev", "graph_kernel")):
        if needed and key not in keys:
            keys.append(key)
    train, val = draw(st.integers(0, 100)), draw(st.integers(0, 100))
    val = min(val, 100 - train)
    ints = st.integers(1, 10**6).map(str)
    values = {
        "horizon_steps": ints,
        "predicted_target": st.text(st.characters(exclude_categories=("C", "Z"),
                                                  exclude_characters="#"), max_size=6),
        "split": st.just(f"{train / 100}, {val / 100}, {(100 - train - val) / 100}"),
        "max_gap_hours": st.integers(0, 10**6).map(str),
        "sigma": OPTIONAL | st.floats(allow_nan=False).map(repr),
        "shape_c": OPTIONAL | POSITIVE,
        "ridge": OPTIONAL | st.floats(min_value=0, allow_infinity=False).map(repr),
        "distance_metric": st.sampled_from(["euclidean", "haversine_km"]),
        "history_steps": st.integers(4 * kernel - 3, 4 * kernel + 40).map(str),
        "channels": st.lists(st.integers(1, 64), min_size=3, max_size=3).map(
            lambda cs: ", ".join(map(str, cs))),
        "time_kernel": st.just(str(kernel)),
        "graph_kernel": st.just("1") if mode == "first_order" else st.integers(1, 5).map(str),
        "graph_mode": st.just(mode),
        "dropout": st.floats(0, 1, exclude_max=True).map(repr),
        "lr": POSITIVE,
        "batch_size": ints,
        "epochs": ints,
        "seed": st.integers(0, 2**64).map(str),
    }
    assert values.keys() == _PARSERS.keys()
    return "".join(f"{key} = {draw(values[key])}\n" for key in keys)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=config_lines())
def test_config_text_parses_back_to_its_config(text):
    config = parse_config_text(text)
    written = config_text(config)
    assert parse_config_text(written) == config
    assert config_text(parse_config_text(written)) == written


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'historysteps'"):
        parse_config_text("seed = 1\nhistorysteps = 9\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match=r"line 1: bad value for epochs"):
        parse_config_text("epochs = many")
    with pytest.raises(ConfigError, match=r"line 1: bad value for split.*three"):
        parse_config_text("split = 0.5, 0.5")
    with pytest.raises(ConfigError, match=r"line 1: expected key = value"):
        parse_config_text("just some words")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="summing to 1"):
        parse_config_text("split = 0.5, 0.4, 0.3")
    with pytest.raises(ConfigError, match="history_steps"):
        parse_config_text("history_steps = 0")
    with pytest.raises(ConfigError, match="channels"):
        parse_config_text("channels = 8, 0, 8")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\nepochs = 3\n")
    config = load_config(path)
    assert config.train.seed == 7
    assert config.train.epochs == 3
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")
    # Errors from a file name the file.
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg line 1"):
        load_config(bad)
    bad.write_bytes(b"seed = 7\xff\n")
    with pytest.raises(ConfigError, match="bad.cfg is not UTF-8"):
        load_config(bad)

from collections import Counter
from dataclasses import fields

import pytest

from aqmsim.engine import MS, US
from aqmsim.scenario import (KEY_SPECS, MAX_DURATION_S, MAX_PAIRS, MAX_RETRAIN_AT_S,
                             ScenarioConfig, apply_overrides, apply_setting, load_config)


def test_defaults_reproduce_fixed_topology():
    cfg = ScenarioConfig()
    cfg.validate()
    assert cfg.pairs == 20
    assert cfg.access_bw_bps == 200 * 10**6
    assert cfg.access_prop_ns == 20 * MS
    assert cfg.bottleneck_bw_bps == 20 * 10**6
    assert cfg.bottleneck_prop_ns == 0
    assert cfg.exit_bw_bps == 100 * 10**6
    assert cfg.target_ns == 5 * MS
    assert cfg.interval_ns == 100 * MS
    assert cfg.hard_limit == 1000
    assert (cfg.alpha, cfg.gamma, cfg.epsilon) == (0.5, 0.8, 0.5)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment line\n"
        "pairs = 4\n"
        "disc = codel\n"
        "ecn = false\n"
        "target_us = 500   # inline comment\n"
        "interval_us = 10000\n"
        "bottleneck_bw_mbps = 10\n"
        "duration_s = 30\n"
    )
    cfg = load_config(path)
    assert cfg.pairs == 4
    assert cfg.disc == "codel"
    assert not cfg.ecn
    assert cfg.target_ns == 500 * US
    assert cfg.interval_ns == 10 * MS
    assert cfg.bottleneck_bw_bps == 10 * 10**6
    assert cfg.duration_s == 30


def test_unknown_key_is_an_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("targgget_us = 500\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_malformed_line_is_an_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("pairs 4\n")
    with pytest.raises(ValueError, match="expected"):
        load_config(path)


def test_bad_value_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("pairs = many\n")
    with pytest.raises(ValueError, match="pairs"):
        load_config(path)


def test_overrides_apply_in_order():
    cfg = apply_overrides(ScenarioConfig(), ["pairs=3", "pairs=7", "disc=taildrop"])
    assert cfg.pairs == 7
    assert cfg.disc == "taildrop"


def test_override_requires_equals():
    with pytest.raises(ValueError):
        apply_overrides(ScenarioConfig(), ["pairs"])


def test_bool_parsing():
    cfg = apply_setting(ScenarioConfig(), "ecn", "off")
    assert cfg.ecn is False
    with pytest.raises(ValueError):
        apply_setting(ScenarioConfig(), "ecn", "maybe")


def test_validation_rejects_bad_shapes():
    for key, value in (("pairs", "0"), ("disc", "red"), ("duration_s", "0"),
                       ("hard_limit_pkts", "0")):
        cfg = apply_setting(ScenarioConfig(), key, value)
        with pytest.raises(ValueError):
            cfg.validate()
    cfg = apply_setting(ScenarioConfig(), "target_us", "200000")  # 200 ms >= interval
    with pytest.raises(ValueError):
        cfg.validate()


def test_duration_is_bounded_before_anything_is_allocated():
    # Checked on the config alone: a run of the refused length would
    # allocate its per-second state before it starts.
    apply_setting(ScenarioConfig(), "duration_s", str(MAX_DURATION_S)).validate()
    for value in (MAX_DURATION_S + 1, 10**12):
        cfg = apply_setting(ScenarioConfig(), "duration_s", str(value))
        with pytest.raises(ValueError, match=f"duration_s must be at most {MAX_DURATION_S}"):
            cfg.validate()


def test_pairs_are_bounded_before_anything_is_allocated():
    # Checked on the config alone: a run builds every pair's hosts, links and
    # connection before it starts.
    apply_setting(ScenarioConfig(), "pairs", str(MAX_PAIRS)).validate()
    for value in (MAX_PAIRS + 1, 10**12):
        cfg = apply_setting(ScenarioConfig(), "pairs", str(value))
        with pytest.raises(ValueError, match=f"pairs must be at most {MAX_PAIRS}"):
            cfg.validate()


def test_retrain_time_is_bounded_before_anything_is_allocated():
    # An intelligent run allocates a 1 ms bin for every ms before its
    # retrain, so the bound holds at the longest run too.
    base = ScenarioConfig(intelligent=True, duration_s=MAX_DURATION_S)
    apply_setting(base, "retrain_at_s", str(MAX_RETRAIN_AT_S)).validate()
    for value in (MAX_RETRAIN_AT_S + 1, MAX_DURATION_S, 10**12):
        cfg = apply_setting(base, "retrain_at_s", str(value))
        with pytest.raises(ValueError, match=f"retrain_at_s must be at most {MAX_RETRAIN_AT_S}"):
            cfg.validate()


def test_every_field_has_exactly_one_config_key():
    # A field without a key is a knob that config files cannot reach; a key
    # without a field fails only when some file uses it.
    per_field = Counter(name for name, _ in KEY_SPECS.values())
    assert dict(per_field) == {f.name: 1 for f in fields(ScenarioConfig)}

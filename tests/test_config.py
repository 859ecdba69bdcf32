"""Config parsing, validation, unit conversion and round trips."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import desk_config

from cellshare.config import (_SCHEMA, db_to_linear, default_config,
                              dump_config, parse_config, resolved_dict,
                              validate_config)
from cellshare.control import initial_powers_dbm
from cellshare.errors import ConfigError


def test_unit_conversions():
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-12)
    assert db_to_linear(-110.0) == pytest.approx(1e-11, rel=1e-12)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)
    assert db_to_linear(-20.0) == pytest.approx(0.01, rel=1e-12)


def test_documented_defaults_frozen():
    # the resolved defaults are part of the interface; pin every value
    expected = {
        "network": {
            "cells": 2, "users_per_cell": 3, "antennas": 8,
            "codebook_bits": 3, "cell_radius_m": 112.0,
            "inter_site_distance_m": 225.0, "carrier_freq_hz": 28e9,
            "ue_speed_mps": 0.556, "step_duration_s": 1e-3,
            "pathloss_exponent": 3.0, "paths": 3,
            "noise_power_dbm": -110.0, "max_bs_power_dbm": 40.0,
            "min_ue_power_dbm": 0.0, "min_sinr_db": -3.0,
            "interference_threshold_dbm": -110.0, "punishment": 100.0,
        },
        "training": {
            "episodes": 200, "steps_per_episode": 50,
            "learning_rate": 0.01, "discount": 0.995, "batch_size": 32,
            "buffer_capacity": 10000, "epsilon_start": 1.0,
            "epsilon_decay": 0.99, "epsilon_min": 0.05,
            "target_refresh_steps": 1, "eval_episodes": 20,
        },
        "sharing": {"attribution": "measured", "ctde_sync_period": 1},
        "oracle": {"power_step_db": 3.0},
    }
    assert resolved_dict(default_config()) == expected


def test_derived_quantities():
    net = default_config().network
    assert net.noise_mw == pytest.approx(1e-11, rel=1e-12)
    assert net.max_bs_power_mw == pytest.approx(1e4, rel=1e-12)
    assert net.codebook_size == 8
    assert net.min_sinr == pytest.approx(10.0 ** -0.3, rel=1e-12)
    # even split with 3 dB headroom: 40 - 10 log10(3) - 3
    assert initial_powers_dbm(net) == pytest.approx(
        [32.228787452803374] * 3, rel=1e-12)


def test_parse_overrides_defaults():
    cfg = parse_config(
        "[network]\n"
        "cells = 3\n"
        "max_bs_power_dbm = 20.0  # inline comment\n"
        "\n"
        "; comment line\n"
        "[training]\n"
        "episodes = 7\n")
    assert cfg.network.cells == 3
    assert cfg.network.max_bs_power_dbm == 20.0
    assert cfg.training.episodes == 7
    # untouched keys keep defaults
    assert cfg.network.users_per_cell == 3


def test_parse_errors_are_line_precise():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("cells = 2\n")  # key before any section
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[network]\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1.*unknown section"):
        parse_config("[grid]\n")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("[network]\nwidth = 3\n")
    with pytest.raises(ConfigError, match="line 2.*cannot parse"):
        parse_config("[network]\ncells = two\n")
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config("[network\n")


def test_a_key_set_twice_under_one_header_is_refused_naming_both_lines():
    # the second value used to win silently
    with pytest.raises(ConfigError,
                       match="x.conf line 3: 'cells' already set on line 2"):
        parse_config("[network]\ncells = 2\ncells = 5\n", source="x.conf")
    with pytest.raises(ConfigError, match="line 7: 'episodes' already set "
                                          "on line 6"):
        parse_config("[training]\nepisodes = 7\n[network]\ncells = 3\n"
                     "[training]\nepisodes = 7\nepisodes = 7\n")
    # a header opened again lays its keys over the earlier ones, as the
    # benchmark's smoke test lays a tiny run over a workload's config
    cfg = parse_config("[network]\ncells = 3\n[training]\nepisodes = 7\n"
                       "[network]\ncells = 4\n")
    assert (cfg.network.cells, cfg.training.episodes) == (4, 7)


def test_nan_values_and_unbounded_noise_are_rejected():
    # NaN fails every comparison and inf passes most range checks, so a
    # range check alone lets either through
    floats = [(section, key) for section, keys in _SCHEMA.items()
              for key, (_attr, conv) in keys.items() if conv is float]
    unbounded = [("network", "min_sinr_db"),
                 ("network", "interference_threshold_dbm")]
    assert set(unbounded) < set(floats)
    for section, key in floats:
        with pytest.raises(ConfigError, match="line 3: %s " % key):
            parse_config("[%s]\n\n%s = nan\n" % (section, key))
        if (section, key) in unbounded:
            continue
        for value in ("inf", "-inf"):
            with pytest.raises(ConfigError,
                               match="line 2: %s must be finite" % key):
                parse_config("[%s]\n%s = %s\n" % (section, key, value))
    # an unbounded SINR floor or interference threshold is a valid policy
    for value in ("inf", "-inf"):
        parse_config("[network]\nmin_sinr_db = %s\n"
                     "interference_threshold_dbm = %s\n" % (value, value))
    cfg = parse_config("[network]\nmin_sinr_db = -inf\n"
                       "interference_threshold_dbm = inf\n")
    assert cfg.network.min_sinr == 0.0
    assert cfg.network.interference_threshold_mw == math.inf


def test_overflowing_doppler_phase_is_a_config_error():
    # each factor is finite, but 2*pi*v*f_c*T/c is not; the line named is
    # the last of the three keys the file sets
    text = "[network]\nue_speed_mps = 1e200\ncarrier_freq_hz = 1e200\n"
    with pytest.raises(ConfigError, match="line 3: .*Doppler phase"):
        parse_config(text)
    with pytest.raises(ConfigError, match="line 2: .*Doppler phase"):
        parse_config("[network]\nue_speed_mps = 1e300\n")
    with pytest.raises(ConfigError, match="line 4: .*Doppler phase"):
        parse_config(text + "step_duration_s = 1e300\n")
    cfg = default_config()
    cfg.network.step_duration = 1e307
    with pytest.raises(ConfigError, match="^ue_speed_mps \\* "):
        validate_config(cfg)
    # a large but finite phase is accepted
    parse_config("[network]\nue_speed_mps = 1e150\ncarrier_freq_hz = 1e150\n")


def test_path_loss_out_of_range_is_a_config_error():
    # a tiny carrier overflows (c/4*pi*f_c)**2: to inf through the
    # division, or as Python's OverflowError in the square; a huge
    # exponent or cell radius underflows d**-n to 0 at the cell edge
    for text in ("carrier_freq_hz = 1e-310\nue_speed_mps = 0.0\n",
                 "carrier_freq_hz = 1e-160\n",
                 "pathloss_exponent = 400\n",
                 "cell_radius_m = 1e300\ninter_site_distance_m = 1e300\n"):
        with pytest.raises(ConfigError, match="line 2: .*path-loss gain"):
            parse_config("[network]\n" + text)
    # the line named is the last of the three keys the file sets
    with pytest.raises(ConfigError, match="line 4: .*path-loss gain"):
        parse_config("[network]\npathloss_exponent = 400\n"
                     "ue_speed_mps = 0.0\ncell_radius_m = 150\n")
    with pytest.raises(ConfigError, match="line 3: .*path-loss gain"):
        parse_config("[network]\npathloss_exponent = 400\n"
                     "carrier_freq_hz = 1e-310\n")
    cfg = default_config()
    cfg.network.pathloss_exponent = 400.0
    with pytest.raises(ConfigError, match="^the path-loss gain"):
        validate_config(cfg)
    # large or small but representable gains are accepted
    parse_config("[network]\ncarrier_freq_hz = 1e-100\n")
    parse_config("[network]\npathloss_exponent = 100\n")
    validate_config(default_config())
    validate_config(desk_config())


def test_db_values_out_of_linear_range_are_config_errors():
    # 10**(dB/10) overflows a float beyond about 3083 dB, and a noise
    # floor or BS budget that underflows to 0 mW is no floor or budget
    for key in ("noise_power_dbm", "max_bs_power_dbm", "min_ue_power_dbm",
                "min_sinr_db", "interference_threshold_dbm"):
        with pytest.raises(ConfigError,
                           match="line 3: %s overflows its linear" % key):
            parse_config("[network]\n\n%s = 4000\n" % key)
    for key in ("noise_power_dbm", "max_bs_power_dbm"):
        with pytest.raises(ConfigError,
                           match="line 2: %s underflows to 0 mW" % key):
            parse_config("[network]\n%s = -4000\n" % key)
    cfg = default_config()
    cfg.network.max_bs_power_dbm = 4000.0
    with pytest.raises(ConfigError, match="^max_bs_power_dbm overflows"):
        validate_config(cfg)
    # a per-user floor of 0 mW is a valid floor
    cfg = parse_config("[network]\nmin_ue_power_dbm = -4000\n")
    assert cfg.network.min_ue_power_mw == 0.0
    validate_config(default_config())
    validate_config(desk_config())


def test_desk_conf_is_the_defaults_with_six_overrides():
    expected = default_config()
    expected.network.antennas = 4
    expected.network.codebook_bits = 6
    expected.network.noise_dbm = -120.0
    expected.network.step_duration = 1e-4
    expected.network.max_bs_power_dbm = 14.0
    expected.training.target_refresh_steps = 25
    assert desk_config() == expected


def test_validation_catches_bad_values():
    bad = [
        ("network", "cells", 0),
        ("network", "codebook_bits", 9),
        ("network", "cell_radius", -1.0),
        ("network", "step_duration", 0.0),
        ("network", "punishment", -5.0),
        ("training", "discount", 1.0),
        ("training", "batch_size", 0),
        ("training", "epsilon_decay", 0.0),
        ("sharing", "attribution", "oracle"),
        ("oracle", "power_step_db", 0.0),
    ]
    for section, attr, value in bad:
        cfg = default_config()
        setattr(getattr(cfg, section), attr, value)
        with pytest.raises(ConfigError):
            validate_config(cfg)
    # buffer smaller than one minibatch is unusable
    cfg = default_config()
    cfg.training.buffer_capacity = cfg.training.batch_size - 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    # a full cell of floor-power users must fit the budget
    cfg = default_config()
    cfg.network.max_bs_power_dbm = 3.0
    cfg.network.min_ue_power_dbm = 0.0
    cfg.network.users_per_cell = 3
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_dump_parse_round_trip():
    cfg = default_config()
    cfg.network.cells = 4
    cfg.network.noise_dbm = -120.0
    cfg.sharing.attribution = "genie"
    again = parse_config(dump_config(cfg))
    assert resolved_dict(again) == resolved_dict(cfg)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _valid_values(draw):
    """A value for every schema key, each drawn from its valid range."""
    users = draw(st.integers(1, 8))
    min_ue = draw(_floats(-60.0, 30.0))
    # the budget must exceed the floor and carry every user at the floor
    headroom = draw(_floats(0.01, 40.0))
    batch = draw(st.integers(1, 512))
    return {
        "network": {
            "cells": draw(st.integers(1, 64)),
            "users_per_cell": users,
            "antennas": draw(st.integers(1, 64)),
            "codebook_bits": draw(st.integers(1, 8)),
            "cell_radius_m": draw(_floats(1e-3, 1e4)),
            "inter_site_distance_m": draw(_floats(1e-3, 1e4)),
            "carrier_freq_hz": draw(_floats(1e6, 1e12)),
            "ue_speed_mps": draw(_floats(0.0, 100.0)),
            "step_duration_s": draw(_floats(1e-9, 10.0)),
            "pathloss_exponent": draw(_floats(1e-3, 10.0)),
            "paths": draw(st.integers(1, 64)),
            "noise_power_dbm": draw(_floats(-200.0, 50.0)),
            "max_bs_power_dbm": min_ue + 10.0 * math.log10(users) + headroom,
            "min_ue_power_dbm": min_ue,
            "min_sinr_db": draw(_floats(-50.0, 50.0)),
            "interference_threshold_dbm": draw(_floats(-250.0, 50.0)),
            "punishment": draw(_floats(1e-6, 1e6)),
        },
        "training": {
            "episodes": draw(st.integers(1, 10 ** 6)),
            "steps_per_episode": draw(st.integers(1, 10 ** 6)),
            "learning_rate": draw(_floats(0.0, 10.0)),
            "discount": draw(_floats(0.0, 0.999999)),
            "batch_size": batch,
            "buffer_capacity": draw(st.integers(batch, 10 ** 7)),
            "epsilon_start": draw(_floats(0.0, 1.0)),
            "epsilon_decay": draw(_floats(1e-6, 1.0)),
            "epsilon_min": draw(_floats(0.0, 1.0)),
            "target_refresh_steps": draw(st.integers(1, 10 ** 6)),
            "eval_episodes": draw(st.integers(1, 10 ** 6)),
        },
        "sharing": {
            "attribution": draw(st.sampled_from(("measured", "genie"))),
            "ctde_sync_period": draw(st.integers(1, 10 ** 6)),
        },
        "oracle": {"power_step_db": draw(_floats(1e-3, 100.0))},
    }


@given(_valid_values())
def test_dump_parse_round_trip_of_any_valid_config(values):
    text = "".join("[%s]\n" % section + "".join(
        "%s = %s\n" % (key, value) for key, value in keys.items())
        for section, keys in values.items())
    cfg = parse_config(text)
    # resolved_dict lists every key, so this also shows none was missed
    assert resolved_dict(cfg) == values
    assert parse_config(dump_config(cfg)) == cfg

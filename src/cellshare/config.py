"""Run configuration: dataclasses, file parsing and unit conversion.

Config files are flat ``key = value`` text grouped into ``[section]``
headers. Physical quantities are written in engineering units (dB, dBm,
meters, Hz, seconds) and converted to linear mW / SI on load; everything
internal to the simulator works in linear units and dB only reappears at
reporting boundaries.

The dataclasses are the only list of keys: each field of a section is
one key, named as the field (or with a unit suffix, ``_FILE_KEYS``) and
parsed by the type of its default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigError


ATTRIBUTION_MODES = ("measured", "genie")  # values of [sharing] attribution


def db_to_linear(db: float) -> float:
    """dB to a linear ratio, or dBm to mW; elementwise on arrays."""
    return 10.0 ** (db / 10.0)


@dataclass
class NetworkConfig:
    """Physical-layer and scenario parameters.

    Power-like fields keep both the configured dBm value (used by the
    +-1 dB command arithmetic and state normalization) and the linear mW
    value (used by all signal math) so neither direction accumulates
    round-trip error.
    """

    cells: int = 2                      # number of base stations (one agent each)
    users_per_cell: int = 3
    antennas: int = 8                   # ULA size at each BS
    codebook_bits: int = 3              # 2**bits beamforming vectors
    cell_radius: float = 112.0          # m, user drop radius around the BS
    inter_site_distance: float = 225.0  # m, spacing of the hex BS grid
    carrier_freq: float = 28e9          # Hz
    ue_speed: float = 0.556             # m/s (walking pace)
    step_duration: float = 1e-3         # s, one control interval
    pathloss_exponent: float = 3.0
    paths: int = 3                      # multipath components per link
    noise_dbm: float = -110.0
    max_bs_power_dbm: float = 40.0      # per-BS downlink budget (sum over users)
    min_ue_power_dbm: float = 0.0       # per-user transmit floor
    min_sinr_db: float = -3.0           # reward threshold on each user's SINR
    interference_threshold_dbm: float = -110.0  # inter-cell power that triggers sharing
    punishment: float = 100.0           # magnitude of the negative reward

    @property
    def noise_mw(self) -> float:
        return db_to_linear(self.noise_dbm)

    @property
    def max_bs_power_mw(self) -> float:
        return db_to_linear(self.max_bs_power_dbm)

    @property
    def min_ue_power_mw(self) -> float:
        return db_to_linear(self.min_ue_power_dbm)

    @property
    def min_sinr(self) -> float:
        return db_to_linear(self.min_sinr_db)

    @property
    def interference_threshold_mw(self) -> float:
        return db_to_linear(self.interference_threshold_dbm)

    @property
    def codebook_size(self) -> int:
        return 2 ** self.codebook_bits


@dataclass
class TrainingConfig:
    episodes: int = 200
    steps_per_episode: int = 50
    learning_rate: float = 0.01
    discount: float = 0.995
    batch_size: int = 32
    buffer_capacity: int = 10000
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.99         # multiplicative, applied per episode
    epsilon_min: float = 0.05
    target_refresh_steps: int = 1       # gradient steps between target-net copies
    eval_episodes: int = 20


@dataclass
class SharingConfig:
    attribution: str = "measured"       # measured | genie
    ctde_sync_period: int = 1           # env steps between central weight broadcasts


@dataclass
class OracleConfig:
    power_step_db: float = 3.0          # grid spacing for the exhaustive search


@dataclass
class RunConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sharing: SharingConfig = field(default_factory=SharingConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)


# file keys that carry a unit suffix; every other key is its field's name
_FILE_KEYS = {
    "cell_radius": "cell_radius_m",
    "inter_site_distance": "inter_site_distance_m",
    "carrier_freq": "carrier_freq_hz",
    "ue_speed": "ue_speed_mps",
    "step_duration": "step_duration_s",
    "noise_dbm": "noise_power_dbm",
}

# section -> key -> (attribute, converter), in field order. Converters
# run before validation.
_SCHEMA: Dict[str, Dict[str, Tuple[str, type]]] = {
    section.name: {_FILE_KEYS.get(f.name, f.name): (f.name, type(f.default))
                   for f in fields(section.default_factory)}
    for section in fields(RunConfig)
}


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse config text over the defaults.

    Unknown sections or keys, a key set twice under one header and bad
    lines raise ConfigError naming the line, for an actionable CLI message.
    """
    cfg = default_config()
    section = None
    lines_seen: Dict[Tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("%s line %d: unterminated section header %r"
                                  % (source, lineno, raw))
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError("%s line %d: unknown section [%s]"
                                  % (source, lineno, name))
            section, opened = name, lineno
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected 'key = value', got %r"
                              % (source, lineno, raw))
        if section is None:
            raise ConfigError("%s line %d: key before any [section] header"
                              % (source, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _SCHEMA[section]:
            raise ConfigError("%s line %d: unknown key %r in [%s]"
                              % (source, lineno, key, section))
        if lines_seen.get((section, key), 0) > opened:
            raise ConfigError("%s line %d: %r already set on line %d" % (
                source, lineno, key, lines_seen[section, key]))
        attr, conv = _SCHEMA[section][key]
        try:
            parsed = conv(value)
        except ValueError:
            raise ConfigError("%s line %d: cannot parse %r as %s for key %r"
                              % (source, lineno, value, conv.__name__, key))
        setattr(getattr(cfg, section), attr, parsed)
        lines_seen[(section, key)] = lineno
    validate_config(cfg, source=source, lines=lines_seen)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), source=path)
    except UnicodeDecodeError as err:
        raise ConfigError("%s: not UTF-8 text: %s" % (path, err))


def validate_config(cfg: RunConfig, source: str = "<config>",
                    lines: Dict[Tuple[str, str], int] | None = None) -> None:
    net, tr, sh, orc = cfg.network, cfg.training, cfg.sharing, cfg.oracle

    def check(section, keys, ok, message):
        """Unless ``ok``, raise naming the line of whichever of ``keys``
        (one key or a tuple) the file sets last."""
        if not ok:
            keys = (keys,) if isinstance(keys, str) else keys
            lineno = max((lines or {}).get((section, key), 0) for key in keys)
            where = "%s line %d: " % (source, lineno) if lineno else ""
            raise ConfigError(where + message)

    # NaN fails every comparison and inf passes most range checks, so
    # neither may reach them; only an unbounded SINR floor or
    # interference threshold is a valid policy
    for section, keys in _SCHEMA.items():
        holder = getattr(cfg, section)
        for key, (attr, conv) in keys.items():
            if conv is not float:
                continue
            value = getattr(holder, attr)
            if key in ("min_sinr_db", "interference_threshold_dbm"):
                check(section, key, not math.isnan(value),
                      "%s must not be NaN" % key)
            else:
                check(section, key, math.isfinite(value),
                      "%s must be finite" % key)

    # a finite dB value's linear value can still overflow, and a noise
    # floor or BS budget must not underflow to 0 mW
    for attr in ("noise_dbm", "max_bs_power_dbm", "min_ue_power_dbm",
                 "min_sinr_db", "interference_threshold_dbm"):
        key, value = _FILE_KEYS.get(attr, attr), getattr(net, attr)
        with np.errstate(over="ignore"):  # inf, not a float's OverflowError
            linear = db_to_linear(np.float64(value))
        check("network", key, math.isinf(value) or math.isfinite(linear),
              "%s overflows its linear value 10**(dB/10)" % key)
    for key, linear in (("noise_power_dbm", net.noise_mw),
                        ("max_bs_power_dbm", net.max_bs_power_mw)):
        check("network", key, linear > 0, "%s underflows to 0 mW" % key)

    check("network", "cells", net.cells >= 1, "cells must be >= 1")
    check("network", "users_per_cell", net.users_per_cell >= 1,
          "users_per_cell must be >= 1")
    check("network", "antennas", net.antennas >= 1, "antennas must be >= 1")
    check("network", "codebook_bits", 1 <= net.codebook_bits <= 8,
          "codebook_bits must be in [1, 8]")
    check("network", "cell_radius_m", net.cell_radius > 0,
          "cell_radius_m must be positive")
    check("network", "inter_site_distance_m", net.inter_site_distance > 0,
          "inter_site_distance_m must be positive")
    check("network", "carrier_freq_hz", net.carrier_freq > 0,
          "carrier_freq_hz must be positive")
    check("network", "ue_speed_mps", net.ue_speed >= 0,
          "ue_speed_mps must be non-negative")
    check("network", "step_duration_s", net.step_duration > 0,
          "step_duration_s must be positive")
    check("network", "pathloss_exponent", net.pathloss_exponent > 0,
          "pathloss_exponent must be positive")
    # finite factors can still overflow or underflow together
    from .channel import (MIN_PATHLOSS_DISTANCE, doppler_phase,
                          path_loss_gain)  # channel imports this module
    check("network", ("ue_speed_mps", "carrier_freq_hz", "step_duration_s"),
          math.isfinite(doppler_phase(net)),
          "ue_speed_mps * carrier_freq_hz * step_duration_s overflows the "
          "Doppler phase 2*pi*v*f_c*T/c")
    try:  # a Python float's square raises where it overflows
        with np.errstate(all="ignore"):
            near, edge = path_loss_gain(np.array(
                [MIN_PATHLOSS_DISTANCE, net.cell_radius]), net)
    except OverflowError:
        near = edge = math.inf
    check("network", ("carrier_freq_hz", "pathloss_exponent", "cell_radius_m"),
          math.isfinite(near) and edge > 0,
          "the path-loss gain (c/4*pi*f_c)**2 * d**-n must be finite at "
          "%g m and positive at the cell edge" % MIN_PATHLOSS_DISTANCE)
    check("network", "paths", net.paths >= 1, "paths must be >= 1")
    check("network", "punishment", net.punishment > 0,
          "punishment must be positive")
    check("network", "max_bs_power_dbm",
          net.max_bs_power_dbm > net.min_ue_power_dbm,
          "max_bs_power_dbm must exceed min_ue_power_dbm")
    check("network", "min_ue_power_dbm",
          net.users_per_cell * net.min_ue_power_mw <= net.max_bs_power_mw,
          "users_per_cell users at min_ue_power_dbm would exceed the "
          "per-BS budget max_bs_power_dbm")

    check("training", "episodes", tr.episodes >= 1, "episodes must be >= 1")
    check("training", "steps_per_episode", tr.steps_per_episode >= 1,
          "steps_per_episode must be >= 1")
    check("training", "learning_rate", tr.learning_rate >= 0,
          "learning_rate must be non-negative")
    check("training", "discount", 0.0 <= tr.discount < 1.0,
          "discount must be in [0, 1)")
    check("training", "batch_size", tr.batch_size >= 1,
          "batch_size must be >= 1")
    check("training", "buffer_capacity", tr.buffer_capacity >= tr.batch_size,
          "buffer_capacity must be >= batch_size")
    check("training", "epsilon_start", 0.0 <= tr.epsilon_start <= 1.0,
          "epsilon_start must be in [0, 1]")
    check("training", "epsilon_decay", 0.0 < tr.epsilon_decay <= 1.0,
          "epsilon_decay must be in (0, 1]")
    check("training", "epsilon_min", 0.0 <= tr.epsilon_min <= 1.0,
          "epsilon_min must be in [0, 1]")
    check("training", "target_refresh_steps", tr.target_refresh_steps >= 1,
          "target_refresh_steps must be >= 1")
    check("training", "eval_episodes", tr.eval_episodes >= 1,
          "eval_episodes must be >= 1")

    check("sharing", "attribution", sh.attribution in ATTRIBUTION_MODES,
          "attribution must be " + " or ".join(map(repr, ATTRIBUTION_MODES)))
    check("sharing", "ctde_sync_period", sh.ctde_sync_period >= 1,
          "ctde_sync_period must be >= 1")

    check("oracle", "power_step_db", orc.power_step_db > 0,
          "power_step_db must be positive")


def resolved_dict(cfg: RunConfig) -> Dict[str, Dict[str, object]]:
    """Every resolved value, in file units, for run.json and print-config."""
    out: Dict[str, Dict[str, object]] = {}
    for section, keys in _SCHEMA.items():
        holder = getattr(cfg, section)
        out[section] = {key: getattr(holder, attr)
                        for key, (attr, _conv) in keys.items()}
    return out


def dump_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to parseable file text."""
    parts = []
    for section, values in resolved_dict(cfg).items():
        parts.append("[%s]" % section)
        for key, value in values.items():
            parts.append("%s = %s" % (key, value))
        parts.append("")
    return "\n".join(parts)

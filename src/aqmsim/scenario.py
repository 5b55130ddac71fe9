"""Scenario configuration: defaults, config-file parsing, CLI overrides.

Config files are flat `key = value` lines (UTF-8, `#` comments). Keys carry
unit suffixes (`_mbps`, `_ms`, `_us`, `_s`) and map onto internal fields that
hold bits per second and integer nanoseconds. Unknown keys are an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .aqm import DEFAULT_HARD_LIMIT, DEFAULT_INTERVAL, DEFAULT_TARGET
from .engine import MS, SECOND, US
from .transport import ACK_SIZE

MBPS = 10**6
# The fastest rate the integer-ns clock can time: the smallest packet sent,
# a 64 B ACK, takes 1 ns at it (`transmit_delay` rounds half up) and 0 ns
# at any faster one.
MAX_BW_BPS = 2 * ACK_SIZE * 8 * SECOND

DISCIPLINES = ("taildrop", "codel", "fq_codel")

# The most sender/receiver pairs: a run builds about 6 KB of hosts, links
# and connections a pair before it simulates anything, about 25 MB at this
# bound (the size the duration bound admits), so more are refused up front.
MAX_PAIRS = 4_000
# The longest run: one simulated day. A run allocates its per-second state
# (ten 100 ms ECE bins and one epoch event a second) before it simulates
# anything, about 28 MB at this bound, so a longer one is refused up front.
MAX_DURATION_S = 86_400
# The latest in-loop retrain, one simulated hour: an intelligent run keeps a
# 1 ms ECE bin for every ms before it, allocated up front, 3.6 M bins (about
# 29 MB) at this bound and about 720 MB at a day, so a later one is refused.
MAX_RETRAIN_AT_S = 3_600


@dataclass
class ScenarioConfig:
    pairs: int = 20
    disc: str = "fq_codel"
    ecn: bool = True
    intelligent: bool = False
    duration_s: int = 300
    access_bw_bps: int = 200 * MBPS
    access_prop_ns: int = 20 * MS
    bottleneck_bw_bps: int = 20 * MBPS
    bottleneck_prop_ns: int = 0
    exit_bw_bps: int = 100 * MBPS
    exit_prop_ns: int = 0
    target_ns: int = DEFAULT_TARGET
    interval_ns: int = DEFAULT_INTERVAL
    hard_limit: int = DEFAULT_HARD_LIMIT
    alpha: float = 0.5
    gamma: float = 0.8
    epsilon: float = 0.5
    checkpoint: str = ""
    retrain_at_s: int = 6
    random_topology: bool = False
    bulk_start_ms: int = 50
    monitor_start_ms: int = 0

    def validate(self) -> None:
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")
        if self.disc not in DISCIPLINES:
            raise ValueError(f"disc must be one of {DISCIPLINES}, got {self.disc!r}")
        if self.duration_s < 1:
            raise ValueError("duration_s must be >= 1")
        for key, bound, why in (("pairs", MAX_PAIRS, "about 25 MB built up front"),
                                ("duration_s", MAX_DURATION_S, "one simulated day"),
                                ("retrain_at_s", MAX_RETRAIN_AT_S, "one simulated hour")):
            if getattr(self, key) > bound:
                raise ValueError(f"{key} must be at most {bound} ({why}), "
                                 f"got {getattr(self, key)}")
        if self.target_ns <= 0 or self.interval_ns <= 0:
            raise ValueError("target and interval must be positive")
        # Outputs report both in whole us, so a run takes no other value.
        for key, ns in (("target_us", self.target_ns), ("interval_us", self.interval_ns)):
            if ns % US:
                raise ValueError(f"{key} must be a whole number of us, got {ns / US}")
        if self.target_ns >= self.interval_ns:
            raise ValueError("target must be below interval")
        if self.hard_limit < 1:
            raise ValueError("hard_limit_pkts must be >= 1")
        for key in ("access_bw_mbps", "bottleneck_bw_mbps", "exit_bw_mbps"):
            bw = getattr(self, KEY_SPECS[key][0])
            if bw <= 0:
                raise ValueError(f"{key} must be positive")
            if bw > MAX_BW_BPS:
                raise ValueError(f"{key} must be at most {MAX_BW_BPS // MBPS}: a 64 B "
                                 f"packet would take 0 ns on the wire, got {bw / MBPS:g}")
        for name in ("alpha", "gamma", "epsilon"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for key in NON_NEGATIVE_KEYS:
            if getattr(self, KEY_SPECS[key][0]) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.access_prop_ns + self.bottleneck_prop_ns + self.exit_prop_ns <= 0:
            raise ValueError("access_prop_ms + bottleneck_prop_ms + exit_prop_ms must "
                             "be positive: the monitor path needs a nonzero base RTT")


def _parse_bool(v: str) -> bool:
    low = v.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _scaled_int(factor: int):
    def conv(v) -> int:
        x = float(v) * factor
        if not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {v!r}")
        return int(round(x))
    return conv


# config key -> (field, converter)
KEY_SPECS = {
    "pairs": ("pairs", int),
    "disc": ("disc", str),
    "ecn": ("ecn", _parse_bool),
    "intelligent": ("intelligent", _parse_bool),
    "duration_s": ("duration_s", int),
    "access_bw_mbps": ("access_bw_bps", _scaled_int(MBPS)),
    "access_prop_ms": ("access_prop_ns", _scaled_int(MS)),
    "bottleneck_bw_mbps": ("bottleneck_bw_bps", _scaled_int(MBPS)),
    "bottleneck_prop_ms": ("bottleneck_prop_ns", _scaled_int(MS)),
    "exit_bw_mbps": ("exit_bw_bps", _scaled_int(MBPS)),
    "exit_prop_ms": ("exit_prop_ns", _scaled_int(MS)),
    "target_us": ("target_ns", _scaled_int(US)),
    "interval_us": ("interval_ns", _scaled_int(US)),
    "hard_limit_pkts": ("hard_limit", int),
    "alpha": ("alpha", float),
    "gamma": ("gamma", float),
    "epsilon": ("epsilon", float),
    "checkpoint": ("checkpoint", str),
    "retrain_at_s": ("retrain_at_s", int),
    "random_topology": ("random_topology", _parse_bool),
    "bulk_start_ms": ("bulk_start_ms", int),
    "monitor_start_ms": ("monitor_start_ms", int),
}


# Delays and start offsets: a negative one would schedule events in the
# past, or (retrain_at_s) silently never happen; 0 turns the retrain off.
NON_NEGATIVE_KEYS = ("access_prop_ms", "bottleneck_prop_ms", "exit_prop_ms",
                     "bulk_start_ms", "monitor_start_ms", "retrain_at_s")


def apply_setting(cfg: ScenarioConfig, key: str, value: str, where: str = "") -> ScenarioConfig:
    spec = KEY_SPECS.get(key)
    if spec is None:
        raise ValueError(f"{where}unknown config key: {key!r}")
    attr, conv = spec
    try:
        parsed = conv(value.strip())
    except ValueError as exc:
        raise ValueError(f"{where}bad value for {key!r}: {exc}") from None
    return replace(cfg, **{attr: parsed})


def load_config(path) -> ScenarioConfig:
    cfg = ScenarioConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg = apply_setting(cfg, key.strip(), value, where=f"{path}:{ln}: ")
    return cfg


def apply_overrides(cfg: ScenarioConfig, pairs: list) -> ScenarioConfig:
    """Apply --set key=value overrides in order."""
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg = apply_setting(cfg, key.strip(), value, where="--set: ")
    return cfg

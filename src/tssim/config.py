"""Scenario files: flat `key = value` lines, full defaults, typo-proof.

Parsing never stops at the first problem; every bad line is reported
with its line number so a scenario file can be fixed in one pass.
Unknown keys and duplicates are errors, not warnings, because a silent
typo in a parameter name would quietly run the wrong experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class ScenarioConfig:
    # run selection
    overlay: str = "tree"
    seed: int = 0
    horizon_s: float = 3600.0
    # stream shape
    stream_kbps: float = 500.0
    chunk_mb: float = 2.0
    show_seconds: float = 1800.0
    # audience behavior
    arrival_rate: float = 0.05
    zipf_exponent: float = 1.0
    early_quit_fraction: float = 0.5
    early_quit_window: float = 600.0
    show_end_leave_prob: float = 0.8
    vcr_rate: float = 1 / 900
    live_join_prob: float = 0.5
    pause_mean_seconds: float = 120.0
    show_start_burst: float = 3.0
    abrupt_leave_prob: float = 0.2
    # transport and peer resources
    hop_latency_s: float = 0.05
    transfer_kbps: float = 500.0
    upload_capacity: int = 3
    storage_chunks: int = 100_000
    audit_period_s: float = 300.0
    sample_period_s: float = 600.0
    # turntable layout (tree and mesh)
    m: int = 12
    r: int = 2
    k_rep: int = 3
    k_min: int = 2
    producer_archive: bool = True
    # tree variant
    fanout: int = 3
    summary_mode: str = "exact"
    bloom_bits: int = 1024
    bloom_hashes: int = 3
    # mesh variant
    colors: int = 3
    gossip_period: float = 10.0
    max_degree: int = 8
    request_ttl: int = 16
    # interval overlay
    k: int = 2
    horizon_T: int = 600
    dedicated_server: bool = False
    rebalance_period_s: float = 600.0


OVERLAYS = ("tree", "mesh", "interval")
_CHOICES = {"overlay": OVERLAYS, "summary_mode": ("exact", "bloom")}

# key -> (lower bound, inclusive?, inclusive upper bound or None) for
# numeric fields; a key not listed has no bound
_RANGES: dict[str, tuple[float, bool, float | None]] = {
    "seed": (0, True, 2**64 - 1),  # seeds are unsigned 64-bit
    "horizon_s": (0, True, None),
    "stream_kbps": (0, False, None),
    "chunk_mb": (1e-6, True, None),  # the engine's chunk is int(chunk_mb * 1e6) bytes
    "show_seconds": (0, False, None),
    "arrival_rate": (0, True, None),
    "zipf_exponent": (0, False, None),
    "early_quit_fraction": (0, True, 1),
    "early_quit_window": (0, True, None),
    "show_end_leave_prob": (0, True, 1),
    "vcr_rate": (0, True, None),
    "live_join_prob": (0, True, 1),
    "pause_mean_seconds": (0, False, None),
    "show_start_burst": (0, True, None),
    "abrupt_leave_prob": (0, True, 1),
    "hop_latency_s": (0, True, None),
    "transfer_kbps": (0, False, None),
    "upload_capacity": (1, True, None),
    "storage_chunks": (1, True, None),
    "audit_period_s": (0, False, None),
    "sample_period_s": (0, False, None),
    "m": (1, True, None),
    "r": (1, True, 64),
    "k_rep": (1, True, None),
    "k_min": (1, True, None),
    "fanout": (1, True, None),
    "bloom_bits": (8, True, None),
    "bloom_hashes": (1, True, None),
    "colors": (1, True, None),
    "gossip_period": (0, False, None),
    "max_degree": (1, True, None),
    "request_ttl": (1, True, None),
    "k": (1, True, None),
    "horizon_T": (1, True, None),
    "rebalance_period_s": (0, False, None),
}


_TYPES: dict[str, type] = {
    f.name: type(getattr(ScenarioConfig(), f.name)) for f in fields(ScenarioConfig)
}
_NOUNS = {bool: "'true' or 'false'", int: "an integer", float: "a number"}


def _field_problem(key: str, value) -> str | None:
    """What is wrong with `value` as the setting of `key`; None if nothing."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{key} must be a finite number, got {value}"
    choices = _CHOICES.get(key)
    if choices is not None:
        if value in choices:
            return None
        return f"{key} must be one of {', '.join(choices)}, got {value!r}"
    bound = _RANGES.get(key)
    if bound is None:
        return None
    low, inclusive, high = bound
    if not (value >= low if inclusive else value > low):
        op = "at least" if inclusive else "greater than"
        return f"{key} must be {op} {low}, got {value}"
    if high is not None and value > high:
        return f"{key} must be within [{low}, {high}], got {value}"
    return None


def parse_field(key: str, text: str):
    """The setting of `key` that `text` spells, by the one rule scenario
    lines and command-line flags share: read as the field's type, then
    checked by the field's rule. ValueError names what is wrong."""
    kind = _TYPES[key]
    try:
        value = {"true": True, "false": False}[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key} must be {_NOUNS[kind]}, got {text!r}") from None
    problem = _field_problem(key, value)
    if problem:
        raise ValueError(problem)
    return value


def parse_config(text: str) -> tuple[ScenarioConfig | None, list[str]]:
    """Parse one scenario file; returns (config, errors).

    The config is None whenever errors is non-empty. All problems are
    collected: unknown keys, duplicates (both lines named), bad types,
    and out-of-range values.
    """
    errors: list[str] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {raw_line!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _TYPES:
            errors.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(
                f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = line_no
        try:
            values[key] = parse_field(key, raw_value)
        except ValueError as exc:
            errors.append(f"line {line_no}: {exc}")

    if errors:
        return None, errors

    config = ScenarioConfig(**values)
    # every field passed its line's check, so only cross-field checks can fail
    cross = validate_config(config)
    if cross:
        return None, cross
    return config, []


def validate_config(config: ScenarioConfig) -> list[str]:
    """Everything wrong with `config` by the scenario file's rules.

    Each field gets the check parse_config makes on its line, then the
    checks that span fields run; an empty list means the config is valid.
    """
    errors = [problem for f in fields(ScenarioConfig)
              if (problem := _field_problem(f.name, getattr(config, f.name)))]
    if config.k_min > config.k_rep:
        errors.append(
            f"k_min ({config.k_min}) cannot exceed k_rep ({config.k_rep})")
    return errors


def require_valid(config: ScenarioConfig) -> None:
    """Raise ValueError naming every problem validate_config finds."""
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))


def render_config(config: ScenarioConfig) -> str:
    """Serialize so that parse_config(render_config(c)) round-trips."""
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"

"""Scenario file parsing: defaults, validation, and round-trips."""

import math
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from tssim import cli
from tssim.config import (
    _CHOICES,
    _RANGES,
    _TYPES,
    ScenarioConfig,
    parse_config,
    render_config,
    validate_config,
)
from tssim.engine import PRODUCER, Engine, OverlayDriver
from tssim.mesh import ColorScheme, MeshPeer, SectorMesh
from tssim.metrics import emit_report, run_scenario
from tssim.stream import StreamParams, build_timeline
from tssim.tree import ExactSummary, SectorTree, TreeNode


def test_empty_text_gives_all_defaults():
    config, errors = parse_config("")
    assert errors == []
    assert config == ScenarioConfig()


def test_minimal_file_fills_documented_defaults():
    config, errors = parse_config("overlay = mesh\nseed = 42\n")
    assert errors == []
    assert config.overlay == "mesh"
    assert config.seed == 42
    assert config.m == 12
    assert config.k_rep == 3
    assert config.horizon_s == 3600.0
    assert config.producer_archive is True


def test_comments_and_blank_lines_ignored():
    text = "# scenario\n\nseed = 9  # inline note\n"
    config, errors = parse_config(text)
    assert errors == []
    assert config.seed == 9


def test_negative_k_names_key_and_range():
    config, errors = parse_config("k = -1\n")
    assert config is None
    assert len(errors) == 1
    assert "k" in errors[0]
    assert "at least 1" in errors[0]
    assert "line 1" in errors[0]


def test_duplicate_key_names_both_lines():
    config, errors = parse_config("seed = 1\nseed = 2\n")
    assert config is None
    assert len(errors) == 1
    assert "line 2" in errors[0]
    assert "line 1" in errors[0]
    assert "duplicate" in errors[0]


def test_unknown_key_rejected():
    # a typo, and knobs that were removed from the model (the two upload
    # knobs became transfer_kbps = upload_kbps / upload_slots)
    for key, value in (("sede", 0.5), ("popularity_session_corr", 0.5),
                       ("upload_kbps", 2000), ("upload_slots", 4)):
        config, errors = parse_config(f"{key} = {value}\n")
        assert config is None
        assert errors == [f"line 1: unknown key {key!r}"]


def test_all_errors_collected_not_just_first():
    text = "sede = 1\nk = -1\nseed = oops\n"
    config, errors = parse_config(text)
    assert config is None
    assert len(errors) == 3


def test_bad_bool_and_bad_number_report_types():
    config, errors = parse_config("producer_archive = yes\nm = 2.5\n")
    assert config is None
    assert any("true" in e and "false" in e for e in errors)
    assert any("integer" in e for e in errors)


def test_unrecognized_overlay_lists_choices():
    config, errors = parse_config("overlay = dht\n")
    assert config is None
    assert "tree" in errors[0]
    assert "mesh" in errors[0]
    assert "interval" in errors[0]


def test_malformed_line_reports_format():
    config, errors = parse_config("just some words\n")
    assert config is None
    assert "key = value" in errors[0]


def test_cross_field_check_k_min_vs_k_rep():
    config, errors = parse_config("k_min = 5\nk_rep = 2\n")
    assert config is None
    assert any("k_min" in e and "k_rep" in e for e in errors)


def test_probability_range_enforced():
    config, errors = parse_config("abrupt_leave_prob = 1.5\n")
    assert config is None
    assert "[0, 1]" in errors[0]


UNDER_ONE_BYTE = (0.0, 1e-7, math.nextafter(1e-6, 0))


def _bad_values():
    # an exclusive bound of 0 gives 0, so this covers the zero audit,
    # sample and rebalance periods that would keep a run from ending and
    # the zero pause mean that would divide by zero
    for key, (low, inclusive, high) in _RANGES.items():
        yield key, _TYPES[key](low - 1 if inclusive else low)
        if high is not None:
            # just above the top: 1.5 for a probability, r = 65, seed = 2**64
            yield key, high + (1 if _TYPES[key] is int else 0.5)
    for key in _CHOICES:
        yield key, "nope"
    # an infinite arrival rate would never finish generating the workload
    for key, kind in _TYPES.items():
        if kind is float:
            yield key, math.inf
    yield "arrival_rate", -math.inf
    yield "arrival_rate", math.nan
    # a chunk of under one byte sizes to zero bytes
    for tiny in UNDER_ONE_BYTE:
        yield "chunk_mb", tiny


BAD_VALUES = list(_bad_values())


@pytest.mark.parametrize("key,bad", BAD_VALUES,
                         ids=[f"{k}={v}" for k, v in BAD_VALUES])
def test_file_and_library_share_one_rule_per_field(key, bad):
    problems = validate_config(ScenarioConfig(**{key: bad}))
    assert problems and problems[0].startswith(f"{key} must")
    config, errors = parse_config(f"# one bad line\n{key} = {bad}\n")
    assert config is None
    assert errors == [f"line 2: {problems[0]}"]


def test_a_seed_beyond_64_bits_is_a_line_error():
    config, errors = parse_config("seed = %d" % 2**70)
    assert config is None
    assert errors == [f"line 1: seed must be within [0, {2**64 - 1}], got {2**70}"]


def test_one_byte_is_the_smallest_chunk(tmp_path, capsys):
    # the engine sizes a chunk as int(chunk_mb * 1_000_000) bytes; the
    # values below the bound are line errors in the cases above
    assert all(int(tiny * 1_000_000) == 0 for tiny in UNDER_ONE_BYTE)
    config, errors = parse_config("chunk_mb = 1e-6\n")
    assert errors == []
    assert int(config.chunk_mb * 1_000_000) == 1
    path = tmp_path / "tiny.cfg"
    path.write_text("chunk_mb = 1e-7\n")
    assert cli.main(["--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "tssim: config: line 1: chunk_mb must be at least 1e-06, got 1e-07\n")


# every field whose range the structures below the drivers no longer
# re-check, at its smallest legal value
SMALLEST = dict(m=1, r=1, fanout=1, colors=1, max_degree=1, k_rep=1, k_min=1,
                k=1, horizon_T=1, request_ttl=1, upload_capacity=1,
                storage_chunks=1, bloom_bits=8, bloom_hashes=1)
EDGE_RUNS = [
    ("tree", {}), ("tree", {"summary_mode": "bloom"}),
    ("tree", {"producer_archive": False}),
    ("mesh", {}), ("mesh", {"producer_archive": False}),
    ("interval", {}), ("interval", {"dedicated_server": True}),
    ("interval", {"producer_archive": False}),
]


@pytest.mark.parametrize(
    "overlay,overrides", EDGE_RUNS,
    ids=[f"{o}-{'-'.join(f'{k}={v}' for k, v in ov.items()) or 'plain'}"
         for o, ov in EDGE_RUNS])
def test_the_config_rules_suffice_at_their_smallest_values(tmp_path, overlay,
                                                         overrides):
    # the config's bounds are the only ones: each overlay must run at
    # them, pass its invariant checks and write the same bytes checked
    config = ScenarioConfig(overlay=overlay, seed=1, horizon_s=900.0,
                            arrival_rate=0.1, **SMALLEST, **overrides)
    assert validate_config(config) == []
    outputs = []
    for checked in (False, True):
        report = run_scenario(config, check_invariants=checked)
        out_dir = tmp_path / str(checked)
        outputs.append([Path(path).read_bytes()
                        for path in emit_report(report, str(out_dir))])
    assert outputs[0] == outputs[1]


def test_run_scenario_rejects_an_infinite_horizon():
    with pytest.raises(ValueError, match="horizon_s must be a finite number"):
        run_scenario(ScenarioConfig(), horizon=float("inf"))


def test_run_scenario_rejects_what_the_file_rejects():
    with pytest.raises(ValueError) as caught:
        run_scenario(ScenarioConfig(horizon_s=60.0, k_min=3, k_rep=2, r=65))
    message = str(caught.value)
    assert "k_min (3) cannot exceed k_rep (2)" in message
    assert "r must be within [1, 64], got 65" in message


def test_run_scenario_checks_its_overrides():
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        run_scenario(ScenarioConfig(horizon_s=60.0), seed=-1)


def test_run_scenario_rejects_a_zero_pause_mean():
    # a zero mean would divide by zero when the first pause is drawn
    with pytest.raises(ValueError,
                       match="pause_mean_seconds must be greater than 0"):
        run_scenario(ScenarioConfig(horizon_s=600.0, pause_mean_seconds=0.0,
                                    vcr_rate=0.05))


def test_every_field_is_read_by_the_model():
    # a knob that no module reads would run the same experiment whatever
    # its value, so each field must appear as config.<name> outside config.py
    src = Path(__file__).resolve().parent.parent / "src" / "tssim"
    text = "\n".join(path.read_text() for path in sorted(src.glob("*.py"))
                     if path.name != "config.py")
    unread = [f.name for f in fields(ScenarioConfig)
              if not re.search(rf"\bconfig\.{f.name}\b", text)]
    assert unread == []


def test_render_parse_round_trip_default():
    config = ScenarioConfig()
    parsed, errors = parse_config(render_config(config))
    assert errors == []
    assert parsed == config


def test_render_parse_round_trip_customized():
    config = ScenarioConfig(
        overlay="interval", seed=123456789, horizon_s=7200.5,
        stream_kbps=750.0, vcr_rate=0.001, producer_archive=False,
        dedicated_server=True, summary_mode="bloom", bloom_bits=2048,
        colors=4, k=3, horizon_T=1200,
    )
    parsed, errors = parse_config(render_config(config))
    assert errors == []
    assert parsed == config


def test_the_stream_and_structures_default_to_the_scenario():
    # a stream or structure built without the scenario's values behaves
    # as the engine and drivers build it from the default scenario
    config = ScenarioConfig()
    engine = Engine(config, OverlayDriver())
    assert StreamParams() == engine.stream
    timeline = build_timeline(StreamParams(), 2 * config.show_seconds)
    assert len(timeline.shows) == 2
    tree = SectorTree()
    tree.attach(0)
    mesh = SectorMesh(ColorScheme(colors=1, sector_count=1), random.Random(0))
    assert {
        TreeNode(0, PRODUCER, 1, ExactSummary()).storage_capacity,
        tree.nodes[0].storage_capacity,
        MeshPeer(0, 0).storage_capacity,
        mesh.add_peer(0, 0.0).storage_capacity,
    } == {config.storage_chunks}

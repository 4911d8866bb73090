"""Report assembly and CSV emission."""

import pytest

from tssim.config import ScenarioConfig
from tssim.metrics import MetricsReport, emit_report, run_scenario


def short_config(**overrides):
    return ScenarioConfig(**{"horizon_s": 900.0, **overrides})


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_csv_files_have_fixed_headers(tmp_path):
    report = run_scenario(short_config(), overlay="tree", seed=1)
    emit_report(report, str(tmp_path))
    assert read(tmp_path / "summary.csv").startswith(b"name,value\n")
    assert read(tmp_path / "replicas.csv").startswith(b"time,chunk_id,count\n")
    assert read(tmp_path / "hops.csv").startswith(b"hops,frequency\n")
    assert read(tmp_path / "load.csv").startswith(b"peer_id,served,stored\n")


def test_same_seed_twice_gives_identical_bytes(tmp_path):
    for sub in ("a", "b"):
        report = run_scenario(short_config(), overlay="mesh", seed=11)
        emit_report(report, str(tmp_path / sub))
    for name in ("summary.csv", "replicas.csv", "hops.csv", "load.csv"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


@pytest.mark.parametrize("overlay", ["tree", "mesh", "interval"])
def test_replicas_csv_has_one_row_per_chunk_per_sample(tmp_path, overlay):
    report = run_scenario(short_config(), overlay=overlay, seed=1)
    emit_report(report, str(tmp_path))
    lines = read(tmp_path / "replicas.csv").splitlines()
    assert report.replica_samples
    assert len(lines) == 1 + sum(len(c) for _, c in report.replica_samples)


def test_different_seeds_differ(tmp_path):
    a = run_scenario(short_config(), overlay="tree", seed=1)
    b = run_scenario(short_config(), overlay="tree", seed=2)
    assert a.scalars != b.scalars


def test_empty_run_emits_zero_counters_with_headers(tmp_path):
    report = run_scenario(short_config(), overlay="tree", seed=1, horizon=0.0)
    emit_report(report, str(tmp_path))
    lines = read(tmp_path / "summary.csv").decode().splitlines()
    assert lines[0] == "name,value"
    rows = dict(line.split(",") for line in lines[1:])
    assert float(rows["chunks_produced"]) == 0
    assert float(rows["chunks_requested"]) == 0
    assert float(rows["availability_ratio"]) == 0.0
    assert read(tmp_path / "replicas.csv") == b"time,chunk_id,count\n"
    assert read(tmp_path / "hops.csv") == b"hops,frequency\n"
    assert read(tmp_path / "load.csv") == b"peer_id,served,stored\n"


def test_availability_stays_in_unit_range():
    report = run_scenario(short_config(), overlay="interval", seed=3)
    assert 0.0 <= report.scalars["availability_ratio"] <= 1.0
    with pytest.raises(ValueError):
        MetricsReport(scalars={"availability_ratio": 1.5})


def test_unwritable_path_raises_before_losing_data(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    report = MetricsReport(scalars={"availability_ratio": 0.0})
    with pytest.raises(OSError):
        emit_report(report, str(blocker / "sub"))


def test_summary_rows_sorted_and_load_rows_by_peer(tmp_path):
    report = run_scenario(short_config(), overlay="tree", seed=4)
    emit_report(report, str(tmp_path))
    names = [line.split(",")[0] for line in
             read(tmp_path / "summary.csv").decode().splitlines()[1:]]
    assert names == sorted(names)
    peers = [int(line.split(",")[0]) for line in
             read(tmp_path / "load.csv").decode().splitlines()[1:]]
    assert peers == sorted(peers)


def test_overlay_specific_scalars_present():
    tree = run_scenario(short_config(), overlay="tree", seed=5)
    assert "summary_overhead_bytes" in tree.scalars
    assert "stale_handoffs" in tree.scalars
    mesh = run_scenario(short_config(), overlay="mesh", seed=5)
    assert "domination_violations" in mesh.scalars
    assert "coloring_gaps" in mesh.scalars
    interval = run_scenario(short_config(), overlay="interval", seed=5)
    assert "coverage_incident_fraction" in interval.scalars
    assert "buffer_mean_hot_decile" in interval.scalars


def test_arguments_override_config():
    config = short_config(overlay="tree", seed=1)
    report = run_scenario(config, overlay="interval", seed=9, horizon=600.0)
    assert "coverage_incident_fraction" in report.scalars
    assert report.scalars["chunks_produced"] == 18  # 600 s of 32 s chunks


def test_unknown_overlay_rejected():
    with pytest.raises(ValueError):
        run_scenario(short_config(), overlay="dht")

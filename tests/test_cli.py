"""Command line contract: flags, exit codes, output layout."""

import pytest

from tssim import cli
from tssim.engine import InvariantViolation


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("overlay = tree\nseed = 7\nhorizon_s = 600\n")
    return path


def test_happy_path_writes_four_csvs(config_file, tmp_path, capsys):
    out = tmp_path / "results"
    code = cli.main(["--config", str(config_file), "--overlay", "tree",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    for name in ("summary.csv", "replicas.csv", "hops.csv", "load.csv"):
        assert (out / name).exists()
    assert "seed 7" in capsys.readouterr().out


def test_missing_config_flag_exits_one_with_usage(capsys):
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--config" in err


def test_unknown_overlay_exits_one_naming_the_three(config_file, capsys):
    code = cli.main(["--config", str(config_file), "--overlay", "dht"])
    assert code == 1
    err = capsys.readouterr().err
    assert "tree" in err and "mesh" in err and "interval" in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = cli.main(["--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_config_errors_reported_with_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("k = -1\nsede = 3\n")
    code = cli.main(["--config", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "line 2" in err


def test_bad_seed_rejected(config_file, capsys):
    assert cli.main(["--config", str(config_file), "--seed", "-1"]) == 1
    assert cli.main(["--config", str(config_file), "--seed", str(2**64)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("horizon", ["-1", "inf", "nan"])
def test_bad_horizon_rejected(config_file, horizon, capsys):
    assert cli.main(["--config", str(config_file), "--horizon", horizon]) == 1
    assert "horizon_s must be" in capsys.readouterr().err


def test_runs_batch_writes_per_seed_directories(config_file, tmp_path, capsys):
    out = tmp_path / "batch"
    code = cli.main(["--config", str(config_file), "--seed", "3",
                     "--runs", "2", "--horizon", "300", "--out", str(out)])
    assert code == 0
    assert (out / "run-3" / "summary.csv").exists()
    assert (out / "run-4" / "summary.csv").exists()
    capsys.readouterr()


def test_a_batch_past_the_last_seed_runs_nothing(config_file, tmp_path, capsys):
    out = tmp_path / "batch"
    code = cli.main(["--config", str(config_file), "--seed", str(2**64 - 1),
                     "--runs", "2", "--horizon", "0", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert f"seed must be within [0, {2**64 - 1}], got {2**64}" in capsys.readouterr().err


def test_zero_runs_rejected(config_file, capsys):
    assert cli.main(["--config", str(config_file), "--runs", "0"]) == 1
    capsys.readouterr()


def test_invariant_violation_exits_two(config_file, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise InvariantViolation("synthetic breach")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code = cli.main(["--config", str(config_file), "--check-invariants"])
    assert code == 2
    assert "synthetic breach" in capsys.readouterr().err


def test_horizon_override_shortens_run(config_file, tmp_path, capsys):
    out = tmp_path / "short"
    code = cli.main(["--config", str(config_file), "--horizon", "100",
                     "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text()
    rows = dict(line.split(",") for line in summary.splitlines()[1:])
    assert float(rows["chunks_produced"]) == 3  # 100 s at 32 s per chunk
    capsys.readouterr()


def test_log_env_controls_verbosity(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TSSIM_LOG", "info")
    out = tmp_path / "logged"
    code = cli.main(["--config", str(config_file), "--horizon", "100",
                     "--out", str(out)])
    assert code == 0
    capsys.readouterr()

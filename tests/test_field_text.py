"""A setting given on a scenario line and by a command-line flag meets one
rule: the same bad text gets the same message both ways, less the line
number a scenario file names."""

import pytest

from tssim import cli

BAD = ([("--seed", "seed", text) for text in ("-1", str(2**64), "seven", "1.5", "inf")]
       + [("--horizon", "horizon_s", text) for text in ("-1", "soon", "inf", "nan")])


@pytest.mark.parametrize("flag,key,text", BAD, ids=[f"{k}={t}" for _, k, t in BAD])
def test_flag_and_scenario_line_give_one_message(flag, key, text, tmp_path, capsys):
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("overlay = tree\nhorizon_s = 600\n")
    bad.write_text(f"overlay = tree\n{key} = {text}\n")
    assert cli.main(["--config", str(good), flag, text]) == 1
    by_flag = capsys.readouterr().err.splitlines()
    assert cli.main(["--config", str(bad)]) == 1
    (by_line,) = capsys.readouterr().err.splitlines()
    prefix = "tssim: config: line 2: "
    assert by_line.startswith(f"{prefix}{key} must be ")
    # argparse prints its usage line first
    assert by_flag[-1] == f"tssim: error: argument {flag}: {by_line[len(prefix):]}"

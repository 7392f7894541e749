import pytest

from rfpp import cli


@pytest.mark.parametrize("flag", ["--config", "--load-field"])
def test_missing_input_file_fails_fast(flag, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    assert cli.main(["distance", flag, missing, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {flag} file not found: {missing}"]
    assert not out.exists()


def test_tiny_run_writes_outputs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"params": {"n": 4}, "replicas": 2}')
    out = tmp_path / "out"
    assert cli.main(["lpp", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "lpp.csv").read_text().splitlines()[0] == "replica,last_passage"
    assert "wrote 1 output file(s)" in capsys.readouterr().out

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


@pytest.mark.parametrize("flag", ["--save-field", "--load-field"])
@pytest.mark.parametrize("experiment", ["field-check", "shape", "scan", "bump",
                                        "fpp", "lpp", "euclid-fpp", "polymer",
                                        "accept"])
def test_field_flags_refused_where_no_seed_field_is_used(experiment, flag,
                                                         tmp_path, capsys):
    # these experiments draw a field per replica or none at all, so a saved
    # field would not be the one they used and a loaded one would be ignored
    # or reused for every replica
    field_path = tmp_path / "field.rfpp"
    if flag == "--load-field":
        field_path.write_bytes(b"")
    out = tmp_path / "out"
    assert cli.main([experiment, flag, str(field_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} applies only")
    assert not out.exists()
    assert field_path.exists() == (flag == "--load-field")


def test_tiny_run_writes_outputs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"params": {"n": 4}, "replicas": 2}')
    out = tmp_path / "out"
    assert cli.main(["lpp", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "lpp.csv").read_text().splitlines()[0] == "replica,last_passage"
    assert "wrote 1 output file(s)" in capsys.readouterr().out

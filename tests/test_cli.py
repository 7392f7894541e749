import json

import pytest

from rfpp import cli, harness, rng
from rfpp.distance import ShapeEstimate
from rfpp.lattice import (LatticeConfig, WeightLaw, fpp_passage, lpp_passage,
                          polymer_free_energy)


@pytest.mark.parametrize("flag", ["--config", "--load-field"])
def test_missing_input_file_fails_fast(flag, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    assert cli.main(["distance", flag, missing, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {flag} file not found: {missing}"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--save-field", "--load-field"])
@pytest.mark.parametrize("experiment", ["shape", "scan", "bump", "fpp", "lpp",
                                        "polymer", "accept"])
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
    key = flag[2:].replace("-", "_")
    assert len(err) == 1 and err[0].startswith(
        f"error: {experiment} does not read {key!r}")
    assert not out.exists()
    assert field_path.exists() == (flag == "--load-field")


# parameters no runner of the experiment reads: one per experiment, the
# misspellings of a geodesic config, lattice and suite flags on shape, a
# geodesic field mode on fpp, and a field container in the config of an
# experiment that draws a field per replica (each replica would load the one
# container, or the saved field would not be the one a replica used)
REFUSED = (
    [(e, [], {"no_such_parameter": 1}, ["no_such_parameter"])
     for e in harness.EXPERIMENTS]
    + [("geodesic", [], {"T": 0.2, "stpe": 0.5, "amplitud": 9},
        ["stpe", "amplitud"]),
       ("shape", ["--law", "bernoulli", "--n", "3", "--suite", "full"], {},
        ["law", "n", "suite"]),
       ("fpp", [], {"mode": "sym_exp", "exponent": True},
        ["mode", "exponent"])]
    + [(e, ["--replicas", "2"], {key: None}, [key])
       for e in ("shape", "scan")
       for key in ("load_field", "save_field")])


@pytest.mark.parametrize("experiment,argv,params,keys", REFUSED,
                         ids=[f"{e}-{'-'.join(k)}" for e, _, _, k in REFUSED])
def test_undeclared_parameters_are_refused_before_running(
        experiment, argv, params, keys, tmp_path, capsys):
    from rfpp.fields import save_field
    field_path = tmp_path / "field.rfpp"
    if "load_field" in keys:
        save_field(harness.make_field(5, {"half_width": 4.0}), field_path)
    saved = field_path.read_bytes() if field_path.exists() else None
    params = {k: str(field_path) if v is None else v for k, v in params.items()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": params}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--out", str(out)]
                    + argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {experiment} does not read "
                             + ", ".join(map(repr, keys)) + ";")
    assert not out.exists()
    assert (field_path.read_bytes() if field_path.exists() else None) == saved


def test_tiny_run_writes_outputs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"params": {"n": 4}, "replicas": 2}')
    out = tmp_path / "out"
    assert cli.main(["lpp", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "lpp.csv").read_text().splitlines()[0] == "replica,last_passage"
    assert "wrote 1 output file(s)" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["fpp", "lpp"])
def test_unknown_weight_law_fails_fast(experiment, tmp_path, capsys):
    # with no law_params given, an unknown kind is a one-line error too
    out = tmp_path / "out"
    assert cli.main([experiment, "--law", "gamma", "--n", "6",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: unknown weight law 'gamma'"]
    assert not out.exists()


def test_zero_box_size_fails_fast(tmp_path, capsys):
    # --n 0 is a size, not an absent flag: it must not fall back to the default
    out = tmp_path / "out"
    assert cli.main(["fpp", "--n", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: box size must be >= 1"]
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["euclid-fpp", "field-check"])
def test_unknown_experiment_fails_fast(experiment, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([experiment, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: unknown experiment {experiment!r}; valid names: "
                   + ", ".join(harness.EXPERIMENTS)]
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("replicas", "2"), ("replicas", 1.5),
                                       ("seed", "7"), ("seed", True)])
def test_non_integer_config_value_fails_fast(key, value, tmp_path, capsys):
    # a string seed would run seed 7 under another config hash, and a string
    # or float replica count would die with a traceback mid-run
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"n": 4}, key: value}))
    out = tmp_path / "out"
    assert cli.main(["lpp", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {key} must be an integer, not {value!r}"]
    assert not out.exists()


def _run_with_workers(tmp_path, monkeypatch, flag, config_value, env):
    """cli.main on an lpp config, the worker count given by --workers, the
    config's "workers" and RFPP_WORKERS, each left out where None."""
    if env is None:
        monkeypatch.delenv("RFPP_WORKERS", raising=False)
    else:
        monkeypatch.setenv("RFPP_WORKERS", env)
    loaded = {"params": {"n": 4}, "replicas": 2}
    if config_value is not None:
        loaded["workers"] = config_value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(loaded))
    argv = ["lpp", "--config", str(config), "--out", str(tmp_path / "out")]
    if flag is not None:
        argv += ["--workers", flag]
    return cli.main(argv)


@pytest.mark.parametrize("flag,config_value,env,expected", [
    ("3", 2, "4", 3), (None, 2, "4", 2), (None, None, "4", 4),
    (None, None, None, 1)])
def test_worker_count_precedence(flag, config_value, env, expected, tmp_path,
                                 monkeypatch):
    # --workers, then the config's "workers", then RFPP_WORKERS, then 1
    seen = []

    def record(config, force=False):
        seen.append(config.workers)
        return harness.RunManifest("", "", [1], 0.0, {})

    monkeypatch.setattr(cli, "run", record)
    assert _run_with_workers(tmp_path, monkeypatch, flag, config_value,
                             env) == 0
    assert seen == [expected]


@pytest.mark.parametrize("flag,config_value,env,message", [
    (None, "x", None, "workers must be an integer, not 'x'"),
    (None, 0, None, "workers must be >= 1"),
    (None, None, "x", "RFPP_WORKERS must be an integer, not 'x'"),
    (None, None, "0", "workers must be >= 1"),
    ("0", None, None, "workers must be >= 1")])
def test_invalid_worker_count_fails_fast(flag, config_value, env, message,
                                         tmp_path, monkeypatch, capsys):
    # an invalid config value was ignored, and an invalid RFPP_WORKERS died
    # with a traceback while the parser was built
    assert _run_with_workers(tmp_path, monkeypatch, flag, config_value,
                             env) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_malformed_field_container_fails_fast(tmp_path, capsys):
    # magic, version 2 and two header bytes: 14 bytes of a 164-byte container
    field_path = tmp_path / "field.rfpp"
    field_path.write_bytes(b"RFPP-FLD" + (2).to_bytes(4, "little") + b"\x00\x02")
    out = tmp_path / "out"
    assert cli.main(["geodesic", "--load-field", str(field_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: truncated field container")
    assert not out.exists()


# tiny parameters for the experiments that run once on the master seed
SINGLE_RUN_PARAMS = {
    "geodesic": {"T": 0.2, "step": 1e-2},
    "distance": {"graph_half_width": 3.0, "h": 0.5, "target": [2.0, 0.0]},
    "frontier": {"T": 0.4, "step": 1e-2},
    "bump": {"entries": 2, "check_minimizing": False},
}

# experiments that sample no field and refuse --save-field
NO_FIELD = ("bump",)


@pytest.mark.parametrize("experiment", sorted(SINGLE_RUN_PARAMS))
def test_replicas_refused_where_the_run_cannot_replicate(experiment, tmp_path,
                                                         capsys):
    out = tmp_path / "out"
    field_path = tmp_path / "field.rfpp"
    argv = [experiment, "--replicas", "2", "--out", str(out)]
    if experiment not in NO_FIELD:
        argv += ["--save-field", str(field_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {experiment} runs once on the master seed; "
                   f"replicas must be 1"]
    assert not out.exists() and not field_path.exists()


@pytest.mark.parametrize("experiment", sorted(SINGLE_RUN_PARAMS))
def test_manifest_records_the_seed_the_run_used(experiment, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": SINGLE_RUN_PARAMS[experiment]}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--seed", "17",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replica_seeds"] == [17]


def test_accept_refuses_replicas(tmp_path, capsys):
    # the suite runs each criterion on seeds of its own, so replicas would
    # repeat the same run
    out = tmp_path / "out"
    assert cli.main(["accept", "--replicas", "3", "--seed", "5",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: accept runs once on its own fixed seeds; "
                   "replicas must be 1"]
    assert not out.exists()


def test_accept_manifest_records_no_seed(tmp_path, monkeypatch):
    from rfpp import acceptance
    monkeypatch.setattr(acceptance, "FAST_CRITERIA", (4,))
    out = tmp_path / "out"
    assert cli.main(["accept", "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replica_seeds"] == []


# lattice parameters of the wrong type: each used to run on a truncated
# value (n = 2.5 as n = 2, true as 1) or die with a TypeError traceback
WRONG_TYPE = (
    ("lpp", {"n": 2.5}, "n must be an integer, not 2.5"),
    ("fpp", {"n": 2.5}, "n must be an integer, not 2.5"),
    ("fpp", {"dimension": 2.0}, "dimension must be an integer, not 2.0"),
    ("fpp", {"law_params": ["x"]},
     "a parameter of law exponential must be a real number, not 'x'"),
    ("lpp", {"law_params": 0.5}, "law_params must be a list, not 0.5"),
    ("polymer", {"n": 2.5}, "n must be an integer, not 2.5"),
    ("polymer", {"n": "5"}, "n must be an integer, not '5'"),
    ("polymer", {"n": True}, "n must be an integer, not True"),
    ("polymer", {"beta": "x"}, "beta must be a real number, not 'x'"),
)


@pytest.mark.parametrize("experiment,params,message", WRONG_TYPE,
                         ids=[f"{e}-{k}-{type(v).__name__}" for e, p, _ in WRONG_TYPE
                              for k, v in p.items()])
def test_lattice_parameters_of_the_wrong_type_fail_fast(
        experiment, params, message, tmp_path, capsys, monkeypatch):
    _assert_refused_before_drawing(experiment, params, message, tmp_path,
                                   capsys, monkeypatch)


def _assert_refused_before_drawing(experiment, params, message, tmp_path,
                                   capsys, monkeypatch):
    """The run exits 2 with the one error line, before any rng.uniform or
    rng.normal call and before making its output directory."""
    draws = []
    for name in ("uniform", "normal"):
        monkeypatch.setattr(rng, name, lambda *key: draws.append(key) or 1 / 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": params}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--out",
                     str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {message}"]
    assert draws == []
    assert not out.exists()


# values that only the runner can judge, refused before its first draw:
# a distance target outside the graph box (it was clipped to the box edge),
# a stencil that is not an integer (16.5 ran as 16), exponent sizes that
# are not at least 4 strictly increasing integers >= 1 (4.5 ran at n = 4 but
# was regressed on as 4.5), a graph box larger than the field's region (it
# failed after the draw), and values of the wrong kind ("T": "5" died in the
# shot, "jacobi": "no" integrated Jacobi fields, "T": true ran T = 1, and the
# scan, shape, bump and distance cases died with a traceback, the scan's
# after drawing its field), and the same for field, bump, ball and frontier
# values: a string shift, amplitude or half_width died with a traceback (in
# the replica task for shape and scan), a bool amplitude, a string spacing
# and a NaN shift ran, a bad ball_radius or beta failed only after the draw,
# "perturbations": 0 ran one perturbation, and a deleted field mode is
# refused as an unknown one; a graph_half_width of the wrong kind died in the
# target test with a traceback, and a conformal run with a shift other than
# 1.0, which it never reads, wrote the default run's bytes under another
# config hash
SIZES = "sizes must be at least 4 strictly increasing integers >= 1, not "
CONFORMAL_SHIFT = ("shift is the sym_exp mean level; a conformal field takes "
                   "only 1.0, not ")
REFUSED_BEFORE_DRAWING = (
    ("distance", {"graph_half_width": 3.0},
     "target [10.0, 0.0] lies outside the graph box [-3.0, 3.0]^2"),
    ("distance", {"target": [0.0, -4.5], "graph_half_width": 4.0},
     "target [0.0, -4.5] lies outside the graph box [-4.0, 4.0]^2"),
    ("distance", {"target": [1.0, 2.0, 3.0]},
     "target must be a point of the plane, not [1.0, 2.0, 3.0]"),
    ("distance", {"stencil": 16.5}, "stencil must be an integer, not 16.5"),
    ("distance", {"stencil": True}, "stencil must be an integer, not True"),
    ("shape", {"stencil": 32.0}, "stencil must be an integer, not 32.0"),
    ("scan", {"stencil": 16.5}, "stencil must be an integer, not 16.5"),
    ("fpp", {"exponents": True, "sizes": [4.5, 6, 8, 10]},
     SIZES + "[4.5, 6, 8, 10]"),
    ("lpp", {"exponents": True, "sizes": [4.5, 6, 8, 10]},
     SIZES + "[4.5, 6, 8, 10]"),
    ("lpp", {"exponents": True, "sizes": [4, 6, 8]}, SIZES + "[4, 6, 8]"),
    ("fpp", {"exponents": True, "sizes": [0, 2, 4, 8]}, SIZES + "[0, 2, 4, 8]"),
    ("lpp", {"exponents": True, "sizes": [4, 4, 6, 8]}, SIZES + "[4, 4, 6, 8]"),
    ("fpp", {"exponents": True, "sizes": [True, 2, 3, 4]},
     SIZES + "[True, 2, 3, 4]"),
    ("distance", {"graph_half_width": 20.0, "target": [1.0, 0.0]},
     "graph_half_width = 20 exceeds the field's half_width 16"),
    ("shape", {"t": 20.0, "half_width": 10.0},
     "graph half-width t + 2 = 22 exceeds the field's half_width 10"),
    ("scan", {"radii": [5.0, 20.0], "half_width": 20.0},
     "graph half-width 1.1 max(radii) + 2 = 24 exceeds the field's "
     "half_width 20"),
    ("geodesic", {"T": "5"}, "T must be a finite real number > 0, not '5'"),
    ("geodesic", {"T": -1.0}, "T must be a finite real number > 0, not -1.0"),
    ("geodesic", {"step": True},
     "step must be a finite real number > 0, not True"),
    ("geodesic", {"jacobi": "no"}, "jacobi must be a bool, not 'no'"),
    ("geodesic", {"parametrization": "arc"},
     "parametrization must be 'riemannian' or 'euclidean', not 'arc'"),
    ("geodesic", {"x0": [0.0]}, "x0 must be a point of the plane, not [0.0]"),
    ("geodesic", {"v0": ["1", 0]},
     "v0 must be a point of the plane, not ['1', 0]"),
    ("frontier", {"T": True}, "T must be a finite real number > 0, not True"),
    ("frontier", {"step": "x"},
     "step must be a finite real number > 0, not 'x'"),
    ("frontier", {"v0": [1.0, 0.0, 0.0]},
     "v0 must be a point of the plane, not [1.0, 0.0, 0.0]"),
    ("scan", {"directions": 2.5}, "directions must be an integer >= 1, not 2.5"),
    ("scan", {"radii": [2, "x"]},
     "radii must be a nonempty list of finite real numbers > 0, "
     "not [2, 'x']"),
    ("shape", {"t": "3"}, "t must be a finite real number > 0, not '3'"),
    ("shape", {"directions": 2.5},
     "directions must be an integer >= 1, not 2.5"),
    ("bump", {"entries": 2.5}, "entries must be an integer >= 1, not 2.5"),
    ("distance", {"h": "0.3"}, "h must be a finite real number > 0, not '0.3'"),
    ("geodesic", {"mode": "sym_shift"},
     "unknown mode 'sym_shift'; valid modes: conformal, sym_exp"),
    ("shape", {"mode": "sym_shift"},
     "unknown mode 'sym_shift'; valid modes: conformal, sym_exp"),
    ("geodesic", {"shift": "1"},
     "shift must be a finite real number > 0, not '1'"),
    ("scan", {"shift": "1"}, "shift must be a finite real number > 0, not '1'"),
    ("frontier", {"shift": float("nan")},
     "shift must be a finite real number > 0, not nan"),
    ("geodesic", {"amplitude": "x"},
     "amplitude must be a finite real number >= 0, not 'x'"),
    ("scan", {"amplitude": True},
     "amplitude must be a finite real number >= 0, not True"),
    ("shape", {"half_width": "x"},
     "half_width must be a finite real number > 0, not 'x'"),
    ("shape", {"range": 0}, "range must be a finite real number > 0, not 0"),
    ("distance", {"spacing": "0.25"},
     "spacing must be a finite real number > 0, not '0.25'"),
    ("bump", {"perturbations": 1.5},
     "perturbations must be an integer >= 1, not 1.5"),
    ("bump", {"perturbations": 0}, "perturbations must be an integer >= 1, not 0"),
    ("bump", {"eps": "0.0"}, "eps must be a finite real number >= 0, not '0.0'"),
    ("distance", {"ball_radius": "x"},
     "ball_radius must be a finite real number >= 0, not 'x'"),
    ("distance", {"ball_radius": -1},
     "ball_radius must be a finite real number >= 0, not -1"),
    ("frontier", {"beta": "0.5"},
     "beta must be a finite real number in (0, 1), not '0.5'"),
    ("frontier", {"beta": 1.5},
     "beta must be a finite real number in (0, 1), not 1.5"),
    ("frontier", {"rho": False}, "rho must be a finite real number > 0, not False"),
    ("distance", {"graph_half_width": "x", "h": 0.5},
     "graph_half_width must be a finite real number > 0, not 'x'"),
    ("distance", {"graph_half_width": True, "h": 0.5},
     "graph_half_width must be a finite real number > 0, not True"),
    ("distance", {"graph_half_width": 0},
     "graph_half_width must be a finite real number > 0, not 0"),
    ("distance", {"graph_half_width": float("nan")},
     "graph_half_width must be a finite real number > 0, not nan"),
    ("geodesic", {"shift": 5.0}, CONFORMAL_SHIFT + "5.0"),
    ("distance", {"shift": 2.0}, CONFORMAL_SHIFT + "2.0"),
)


@pytest.mark.parametrize("experiment,params,message", REFUSED_BEFORE_DRAWING,
                         ids=[f"{e}-{'-'.join(map(str, p.values()))}"
                              for e, p, _ in REFUSED_BEFORE_DRAWING])
def test_values_out_of_range_fail_before_drawing(
        experiment, params, message, tmp_path, capsys, monkeypatch):
    _assert_refused_before_drawing(experiment, params, message, tmp_path,
                                   capsys, monkeypatch)


@pytest.mark.parametrize("shift", [0.5, 1.0, 2.0])
def test_sym_exp_accepts_any_shift_it_reads(shift):
    # shift is the sym_exp mean level; only a conformal run refuses it
    harness._check_field_params({**harness.FIELD_PARAMS, "mode": "sym_exp",
                                 "shift": shift})


def _lattice_replica_values(experiment, seeds, replicas):
    """What each replica of a 6-site run computes from the recorded seeds."""
    if experiment == "polymer":
        return [polymer_free_energy(s, 6, 1.0).free_energy for s in seeds]
    cfg = LatticeConfig(2, 6, WeightLaw(*{"fpp": ("exponential", (1.0,)),
                                          "lpp": ("geometric", (0.5,))}[experiment]),
                        seeds[0])
    if experiment == "fpp":
        return [fpp_passage(cfg, (6, 0), replica=r).tau for r in range(replicas)]
    return [lpp_passage(cfg, (6, 6), replica=r) for r in range(replicas)]


@pytest.mark.parametrize("experiment", ["fpp", "lpp", "polymer"])
def test_lattice_manifest_records_the_seeds_the_replicas_used(experiment,
                                                              tmp_path):
    # fpp and lpp key replica r's bonds by the word r under the master seed;
    # polymer draws replica r's environment from derive_seed(seed, r)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": {"n": 6}}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--seed", "17",
                     "--replicas", "3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = ([rng.derive_seed(17, r) for r in range(3)]
                if experiment == "polymer" else [17])
    assert manifest["replica_seeds"] == expected
    rows = (out / f"{experiment}.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == \
        _lattice_replica_values(experiment, expected, 3)


# tiny parameters of the experiments that draw replica r's field from
# derive_seed(seed, r)
REPLICA_PARAMS = {
    "shape": {"t": 2.0, "h": 0.5, "stencil": 16, "directions": 8},
    "scan": {"radii": [1.0, 2.0], "h": 0.5, "directions": 4, "step": 1e-2},
}


def _replica_outputs_from_seeds(experiment, seeds, params):
    """The output the run must have written, recomputed replica by replica
    from the recorded seeds."""
    if experiment == "shape":
        rows = [harness._shape_replica((s, params)) for s in seeds]
        return "shape.csv", ShapeEstimate.from_samples(
            rows, params["t"]).csv_text()
    rows = [json.loads(harness.canonical_json(harness._scan_replica((s, params))))
            for s in seeds]
    return "scan.json", rows


@pytest.mark.parametrize("experiment", sorted(REPLICA_PARAMS))
def test_replica_manifest_records_the_seeds_the_replicas_used(experiment,
                                                              tmp_path):
    params = REPLICA_PARAMS[experiment]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": params}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--seed", "17",
                     "--replicas", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    seeds = [rng.derive_seed(17, r) for r in range(2)]
    assert manifest["replica_seeds"] == seeds
    name, expected = _replica_outputs_from_seeds(experiment, seeds, params)
    written = (out / name).read_text()
    if name.endswith(".json"):
        written = json.loads(written)["replicas"]
    assert written == expected


def test_save_field_is_refused_before_sampling_when_an_output_exists(
        tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "distance.json").write_text("kept")
    field_path = tmp_path / "field.rfpp"
    assert cli.main(["distance", "--save-field", str(field_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("exists; pass force to overwrite")
    assert not field_path.exists()
    assert (out / "distance.json").read_text() == "kept"


# tiny parameters of every experiment the harness runs; accept runs its
# cheapest criterion alone (see test_every_experiment_runs_from_the_cli)
SMOKE_PARAMS = {**SINGLE_RUN_PARAMS, **REPLICA_PARAMS,
                "fpp": {"n": 6}, "lpp": {"n": 6}, "polymer": {"n": 6},
                "accept": {}}


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_every_experiment_runs_from_the_cli(experiment, tmp_path,
                                            monkeypatch):
    # the suite's fast subset takes tens of seconds; criterion 4
    # (Christoffel symbols against finite differences) takes a fraction of
    # a second and is not rerun by the reproducibility criterion
    from rfpp import acceptance
    monkeypatch.setattr(acceptance, "FAST_CRITERIA", (4,))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"params": SMOKE_PARAMS[experiment]}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(config), "--out",
                     str(out)]) == 0
    declared = harness.output_paths(harness.ExperimentConfig(
        experiment, SMOKE_PARAMS[experiment], out=str(out)), force=True)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        list(declared) + ["manifest.json"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == list(declared)

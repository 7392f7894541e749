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
    assert err == [{"--config": f"error: --config file not found: {missing}",
                    "--load-field": "error: load_field must be an existing "
                                    f"file or None, not {missing!r}"}[flag]]
    assert not out.exists()


# config files of the wrong shape: each died with a traceback, or (an unknown
# top-level key) was ignored and the default run written
BAD_CONFIG_FILES = (
    ("not-json", "{params: 1}", "--config {path} is not JSON: Expecting "
     "property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("list", "[1, 2]", "--config must hold a JSON object, not list"),
    ("params-list", '{"params": [1, 2]}',
     "params must be a JSON object, not [1, 2]"),
    ("params-string", '{"params": "n"}', "params must be a JSON object, not 'n'"),
    ("out-number", '{"out": 5}', "out must be a path, not 5"),
    ("misspelled-key", '{"prams": {"n": 5}}', "--config has no key 'prams'; "
     "its keys are: params, seed, replicas, workers, out"),
)


@pytest.mark.parametrize("text,message", [row[1:] for row in BAD_CONFIG_FILES],
                         ids=[row[0] for row in BAD_CONFIG_FILES])
def test_config_file_of_the_wrong_shape_fails_fast(text, message, tmp_path,
                                                   capsys, monkeypatch):
    # no --out: the default output directory, out/polymer, is not made either
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["polymer", "--config", str(config)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: " + message.format(path=config)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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
    assert err == ["error: law must be one of 'exponential', 'geometric', "
                   "'uniform', 'bernoulli', 'deterministic', not 'gamma'"]
    assert not out.exists()


def test_zero_box_size_fails_fast(tmp_path, capsys):
    # --n 0 is a size, not an absent flag: it must not fall back to the default
    out = tmp_path / "out"
    assert cli.main(["fpp", "--n", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: n must be an integer >= 1, not 0"]
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


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_the_generator_range_fails_fast(seed, tmp_path, capsys):
    # the generator reduces seeds mod 2^64: -1 ran seed 2^64 - 1 and 2^64
    # ran seed 0, each under another config hash
    out = tmp_path / "out"
    assert cli.main(["polymer", "--n", "4", "--seed", str(seed),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: seed must be in [0, 2^64), not {seed}"]
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


def _kind_error(experiment, params):
    """The refusal of the first of params not of the kind its record
    declares."""
    declared = harness.EXPERIMENTS[experiment].params
    name, value = next((name, value) for name, value in params.items()
                       if not declared[name][1].test(value))
    default, kind = declared[name]
    noun = kind.noun + (" or None" if default is None else "")
    return f"{name} must be {noun}, not {value!r}"


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


# a value of the wrong kind for each declared kind: a string where a number,
# a bool or a list belongs, a fraction where an integer does
WRONG_KIND = {
    harness.POSITIVE: "x", harness.NONNEGATIVE: "x", harness.FRACTION: "x",
    harness.COUNT: 2.5, harness.FLAG: "no", harness.POINT: [1.0],
    harness.RADII: "x", harness.SIZES: "no", harness.LAW_PARAMS: 0.5,
    harness.STENCIL: 16.5, harness.PARAMETRIZATION: "arc",
    harness.MODE: "sym_shift", harness.LAW: "gamma", harness.SUITE: "x",
    harness.PATH: 5, harness.FILE: "missing.rfpp",
}
DECLARED = [(e, name) for e, spec in harness.EXPERIMENTS.items()
            for name in spec.params]


@pytest.mark.parametrize("experiment,name", DECLARED,
                         ids=[f"{e}-{name}" for e, name in DECLARED])
def test_every_parameter_of_the_wrong_kind_fails_before_drawing(
        experiment, name, tmp_path, capsys, monkeypatch):
    # generated from the EXPERIMENTS table; the missing load_field is
    # relative to the run's directory
    monkeypatch.chdir(tmp_path)
    value = WRONG_KIND[harness.EXPERIMENTS[experiment].params[name][1]]
    _assert_refused_before_drawing(experiment, {name: value},
                                   _kind_error(experiment, {name: value}),
                                   tmp_path, capsys, monkeypatch)


def test_every_default_is_of_its_declared_kind():
    for experiment, spec in harness.EXPERIMENTS.items():
        defaults = {name: default for name, (default, _) in spec.params.items()}
        harness.ExperimentConfig(experiment, defaults)


def test_declared_modes_and_laws_are_the_libraries_own():
    from rfpp.fields import _MODE_CODES
    from rfpp.lattice import LAW_DEFAULTS
    assert harness.MODE.noun == "one of " + ", ".join(map(repr, _MODE_CODES))
    assert harness.LAW.noun == "one of " + ", ".join(map(repr, LAW_DEFAULTS))


# values of the wrong type that each ran on a truncated value (n = 2.5 as
# n = 2, true as 1) or died with a TypeError traceback, before the
# declaration refused them
WRONG_TYPE = (
    ("lpp", {"n": 2.5}), ("fpp", {"n": 2.5}), ("fpp", {"dimension": 2.0}),
    ("fpp", {"law_params": ["x"]}), ("lpp", {"law_params": 0.5}),
    ("polymer", {"n": 2.5}), ("polymer", {"n": "5"}), ("polymer", {"n": True}),
    ("polymer", {"beta": "x"}),
)


@pytest.mark.parametrize("experiment,params", WRONG_TYPE,
                         ids=[f"{e}-{k}-{type(v).__name__}" for e, p in WRONG_TYPE
                              for k, v in p.items()])
def test_lattice_parameters_of_the_wrong_type_fail_fast(
        experiment, params, tmp_path, capsys, monkeypatch):
    _assert_refused_before_drawing(experiment, params,
                                   _kind_error(experiment, params), tmp_path,
                                   capsys, monkeypatch)


# values that only the runner can judge, refused before its first draw: a
# distance target outside the graph box (it was clipped to the box edge), a
# geodesic start point outside the field (it failed after the draw),
# exponent sizes that are not at least 4 strictly increasing, a graph box
# larger than the field's region (it failed after the draw), and a conformal
# run with a shift other than 1.0, which it never reads (it wrote the default
# run's bytes under another config hash; MetricField refuses it)
SIZES = "sizes must be at least 4 strictly increasing integers >= 1, not "
CONFORMAL_SHIFT = ("shift is the sym_exp mean level; a conformal field takes "
                   "only 1.0, not ")
REFUSED_BEFORE_DRAWING = (
    ("distance", {"graph_half_width": 3.0},
     "target [10.0, 0.0] lies outside the graph box [-3.0, 3.0]^2"),
    ("distance", {"target": [0.0, -4.5], "graph_half_width": 4.0},
     "target [0.0, -4.5] lies outside the graph box [-4.0, 4.0]^2"),
    ("geodesic", {"x0": [100.0, 0.0]},
     "x0 [100.0, 0.0] lies outside the field's box [-16.0, 16.0]^2"),
    ("lpp", {"exponents": True, "sizes": [4, 6, 8]}, SIZES + "[4, 6, 8]"),
    ("lpp", {"exponents": True, "sizes": [4, 4, 6, 8]}, SIZES + "[4, 4, 6, 8]"),
    ("distance", {"graph_half_width": 20.0, "target": [1.0, 0.0]},
     "graph_half_width = 20 exceeds the field's half_width 16"),
    ("shape", {"t": 20.0, "half_width": 10.0},
     "graph half-width t + 2 = 22 exceeds the field's half_width 10"),
    ("scan", {"radii": [5.0, 20.0], "half_width": 20.0},
     "graph half-width 1.1 max(radii) + 2 = 24 exceeds the field's "
     "half_width 20"),
    ("geodesic", {"shift": 5.0}, CONFORMAL_SHIFT + "5.0"),
    ("distance", {"shift": 2.0}, CONFORMAL_SHIFT + "2.0"),
) + tuple(
    # values of the wrong kind, each of which ran ("jacobi": "no" integrated
    # Jacobi fields, "T": true ran T = 1, a bool amplitude, a string spacing
    # and a NaN shift ran, "perturbations": 0 ran one perturbation, a stencil
    # of 16.5 ran as 16, sizes of 4.5 ran at n = 4 but were regressed on as
    # 4.5), failed only after the draw, or died with a traceback, before the
    # declaration refused them; the message is the declaration's
    (e, p, _kind_error(e, p)) for e, p in (
        ("distance", {"target": [1.0, 2.0, 3.0]}),
        ("distance", {"stencil": 16.5}), ("distance", {"stencil": True}),
        ("shape", {"stencil": 32.0}), ("scan", {"stencil": 16.5}),
        ("fpp", {"exponents": True, "sizes": [4.5, 6, 8, 10]}),
        ("lpp", {"exponents": True, "sizes": [4.5, 6, 8, 10]}),
        ("fpp", {"exponents": True, "sizes": [0, 2, 4, 8]}),
        ("fpp", {"exponents": True, "sizes": [True, 2, 3, 4]}),
        ("geodesic", {"T": "5"}), ("geodesic", {"T": -1.0}),
        ("geodesic", {"step": True}), ("geodesic", {"jacobi": "no"}),
        ("geodesic", {"parametrization": "arc"}), ("geodesic", {"x0": [0.0]}),
        ("geodesic", {"v0": ["1", 0]}), ("frontier", {"T": True}),
        ("frontier", {"step": "x"}), ("frontier", {"v0": [1.0, 0.0, 0.0]}),
        ("scan", {"directions": 2.5}), ("scan", {"radii": [2, "x"]}),
        ("shape", {"t": "3"}), ("shape", {"directions": 2.5}),
        ("bump", {"entries": 2.5}), ("distance", {"h": "0.3"}),
        ("geodesic", {"mode": "sym_shift"}), ("shape", {"mode": "sym_shift"}),
        ("geodesic", {"shift": "1"}), ("scan", {"shift": "1"}),
        ("frontier", {"shift": float("nan")}), ("geodesic", {"amplitude": "x"}),
        ("scan", {"amplitude": True}), ("shape", {"half_width": "x"}),
        ("shape", {"range": 0}), ("distance", {"spacing": "0.25"}),
        ("bump", {"perturbations": 1.5}), ("bump", {"perturbations": 0}),
        ("bump", {"eps": "0.0"}), ("distance", {"ball_radius": "x"}),
        ("distance", {"ball_radius": -1}), ("frontier", {"beta": "0.5"}),
        ("frontier", {"beta": 1.5}), ("frontier", {"rho": False}),
        ("distance", {"graph_half_width": "x", "h": 0.5}),
        ("distance", {"graph_half_width": True, "h": 0.5}),
        ("distance", {"graph_half_width": 0}),
        ("distance", {"graph_half_width": float("nan")})))


@pytest.mark.parametrize("experiment,params,message", REFUSED_BEFORE_DRAWING,
                         ids=[f"{e}-{'-'.join(map(str, p.values()))}"
                              for e, p, _ in REFUSED_BEFORE_DRAWING])
def test_values_out_of_range_fail_before_drawing(
        experiment, params, message, tmp_path, capsys, monkeypatch):
    _assert_refused_before_drawing(experiment, params, message, tmp_path,
                                   capsys, monkeypatch)


@pytest.mark.parametrize("shift", [0.5, 1.0, 2.0])
def test_sym_exp_accepts_any_shift_it_reads(shift):
    # shift is the sym_exp mean level; only a conformal field refuses it
    params = {"mode": "sym_exp", "shift": shift, "half_width": 2.0}
    harness.ExperimentConfig("geodesic", params)
    assert harness.make_field(1, params).shift == shift


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

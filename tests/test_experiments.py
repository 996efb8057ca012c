from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qsearch import ConfigError, InvalidParameterError
from qsearch.cli import EXIT_CONFIG
from qsearch.cli import main as cli_main
from qsearch.experiments import (
    MODES,
    SWEEP_PARAMETERS,
    config_hash,
    fit_power_law,
    load_config,
    parse_config,
    SweepResult,
    run,
    sweep,
)


def _unitary_doc(n: int = 64, **system_extra) -> dict:
    system = {"n": n, "sigma": 0.0, "seed": 0, "gamma_policy": "plain"}
    system.update(system_extra)
    return {"mode": "unitary", "system": system, "grid": {"points": 40}}


def _secular_doc() -> dict:
    return {
        "mode": "secular",
        "system": {"n": 10**4, "sigma": 0.05, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.01, "beta": 15.0, "omega_c": 2.0},
        "grid": {"t_max": 1e6, "points": 30},
    }


def test_parse_config_rejects_unknown_keys() -> None:
    with pytest.raises(ConfigError):
        parse_config({"mode": "unitary", "system": {"n": 64}, "stem": "x"})
    with pytest.raises(ConfigError):
        parse_config({"mode": "unitary", "system": {"n": 64, "coupling": 1.0}})
    doc = _secular_doc()
    doc["bath"]["temperature"] = 0.1
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = _secular_doc()
    doc["grid"]["dt"] = 0.1
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc = _unitary_doc()
    doc["output"] = {"directory": "/tmp"}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_requires_mode_and_sections() -> None:
    with pytest.raises(ConfigError):
        parse_config({"system": {"n": 64}})
    with pytest.raises(ConfigError):
        parse_config({"mode": "fourier", "system": {"n": 64}})
    with pytest.raises(ConfigError):
        parse_config({"mode": "unitary"})
    with pytest.raises(ConfigError):
        parse_config({"mode": "redfield", "system": {"n": 64}, "grid": {"t_max": 10.0}})
    doc = _secular_doc()
    del doc["grid"]["t_max"]
    with pytest.raises(ConfigError):
        parse_config(doc)
    with pytest.raises(ConfigError):
        parse_config({"mode": "correlation", "bath": {"g": 0.02, "beta": 15.0}})
    doc = {
        "mode": "sweep",
        "system": {"n": 64, "sigma": 0.0},
        "bath": {"g": 0.02, "beta": 15.0},
    }
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_config_sweep_section_validation() -> None:
    base = {
        "mode": "sweep",
        "system": {"n": 64, "sigma": 0.0},
        "bath": {"g": 0.02, "beta": 15.0},
    }
    for bad in (
        {"parameter": "gamma", "values": [1, 2, 3]},
        {"parameter": "beta", "values": []},
        {"parameter": "beta", "values": [1.0, math.inf]},
        {"parameter": "beta", "values": [15, 25], "seeds": 0},
        {"parameter": "beta", "values": [15, 25], "repeat": 3},
    ):
        doc = dict(base)
        doc["sweep"] = bad
        with pytest.raises(ConfigError):
            parse_config(doc)
    doc = dict(base)
    doc["sweep"] = {"parameter": "beta", "values": [15, 25, 40]}
    cfg = parse_config(doc)
    assert cfg.sweep.seeds == 8
    assert cfg.sweep.fit is True


def test_parse_config_beta_strings_and_custom_graphs() -> None:
    doc = _secular_doc()
    doc["bath"]["beta"] = "inf"
    assert math.isinf(parse_config(doc).bath.beta)
    doc["bath"]["beta"] = "Infinity"
    assert math.isinf(parse_config(doc).bath.beta)
    doc["bath"]["beta"] = "warm"
    with pytest.raises(ConfigError):
        parse_config(doc)
    custom = _unitary_doc(n=3, kind="custom")
    custom["system"]["adjacency"] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert parse_config(custom).system.kind == "custom"
    for bad in ([[0, 1], [1, 0]], [[0, 1, 1], [1, 0, 1], [1, 1]], [[0, 1, "x"], [1, 0, 1], [1, 1, 0]]):
        custom["system"]["adjacency"] = bad
        with pytest.raises(ConfigError, match="system.adjacency"):
            parse_config(custom)
    del custom["system"]["adjacency"]
    with pytest.raises(ConfigError):
        parse_config(custom)


def test_parse_config_refuses_gaussian_truncated_distribution() -> None:
    doc = _unitary_doc(distribution="gaussian-truncated")
    with pytest.raises(ConfigError, match="eps_w"):
        parse_config(doc)
    doc["system"]["distribution"] = "cauchy"
    with pytest.raises(ConfigError, match="unknown distribution"):
        parse_config(doc)
    doc["system"]["distribution"] = "uniform"
    assert parse_config(doc).system.distribution == "uniform"


def test_parse_config_refuses_custom_graph_in_reduced_modes() -> None:
    path4 = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    for mode in ("redfield", "secular", "sweep", "validate", "correlation"):
        doc = _small_sweep_doc([10.0, 20.0, 30.0])
        doc["mode"] = mode
        doc["system"].update(n=4, kind="custom", adjacency=path4)
        doc["grid"] = {"t_max": 10.0, "points": 30}
        with pytest.raises(ConfigError, match="custom"):
            parse_config(doc)
    for mode in ("unitary", "spectrum"):
        doc = _unitary_doc(n=4, kind="custom", adjacency=path4)
        doc["mode"] = mode
        assert parse_config(doc).system.kind == "custom"


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("system", "n", 64.5),
        ("system", "sigma", "wide"),
        ("system", "sigma", math.nan),
        pytest.param("system", "sigma", 10**400, id="system-sigma-overflow"),
        ("system", "seed", [1]),
        ("system", "seed", -1),
        ("system", "w", True),
        ("bath", "g", "abc"),
        ("bath", "g", math.nan),
        ("bath", "beta", [15.0]),
        ("grid", "points", "abc"),
        ("grid", "points", 2.7),
        ("grid", "t_max", math.inf),
        ("sweep", "seeds", 2.5),
        ("sweep", "values", [10.0, "x", 30.0]),
    ],
)
def test_malformed_numbers_exit_with_config_error(tmp_path, capsys, section, key, value) -> None:
    doc = _small_sweep_doc([10.0, 20.0, 30.0]) if section == "sweep" else _secular_doc()
    doc[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli_main([doc["mode"], "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert section in capsys.readouterr().err


def test_config_hash_is_order_independent() -> None:
    a = {"mode": "unitary", "system": {"n": 64, "sigma": 0.0}}
    b = {"system": {"sigma": 0.0, "n": 64}, "mode": "unitary"}
    assert config_hash(a) == config_hash(b)
    c = {"mode": "unitary", "system": {"n": 65, "sigma": 0.0}}
    assert config_hash(a) != config_hash(c)


def test_fit_power_law_recovers_exact_exponents() -> None:
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = fit_power_law(xs, [2.0 * x**2 for x in xs])
    assert fit["exponent"] == pytest.approx(2.0, abs=1e-12)
    assert math.exp(fit["intercept"]) == pytest.approx(2.0, rel=1e-12)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
    inverse = fit_power_law(xs, [5.0 / x for x in xs])
    assert inverse["exponent"] == pytest.approx(-1.0, abs=1e-12)


def test_fit_power_law_tolerates_noise() -> None:
    rng = np.random.default_rng(11)
    xs = np.geomspace(1.0, 1e3, 10)
    ys = 3.0 * xs * np.exp(rng.normal(0.0, 0.05, size=10))
    fit = fit_power_law(xs, ys)
    assert fit["exponent"] == pytest.approx(1.0, abs=0.1)
    assert fit["r2"] > 0.95


def test_fit_power_law_input_validation() -> None:
    with pytest.raises(InvalidParameterError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        fit_power_law([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


def test_run_unitary_exact_small_system(tmp_path, read_csv, csv_comments) -> None:
    files, summary = run(parse_config(_unitary_doc()), out_dir=str(tmp_path))
    assert [f.split("/")[-1] for f in files] == ["unitary.csv", "unitary_summary.json"]
    assert summary["method"] == "exact"
    assert summary["regime"] == "weak"
    cols = read_csv(files[0])
    assert list(cols) == ["t", "p_w"]
    assert cols["p_w"][0] == pytest.approx(1.0 / 64, rel=1e-10)
    comments = csv_comments(files[0])
    assert len(comments) == 3
    assert all(line.startswith("#") for line in comments)
    with open(files[1]) as f:
        payload = json.load(f)
    assert payload["config_hash"] == parse_config(_unitary_doc()).config_hash


def test_run_unitary_reduced_large_system(tmp_path) -> None:
    doc = {
        "mode": "unitary",
        "system": {"n": 10**6, "sigma": 0.007, "seed": 54, "gamma_policy": "shifted"},
        "grid": {"points": 50},
    }
    files, summary = run(parse_config(doc), out_dir=str(tmp_path))
    assert summary["method"] == "reduced"
    assert summary["regime"] == "strong"
    assert summary["p_peak"] <= 0.12


def test_run_redfield_trajectory_columns(tmp_path, read_csv) -> None:
    doc = {
        "mode": "redfield",
        "system": {"n": 256, "sigma": 0.0, "seed": 0, "gamma_policy": "plain"},
        "bath": {"g": 0.02, "beta": "inf", "omega_c": 2.0},
        "grid": {"t_max": 2000.0, "points": 25},
    }
    files, summary = run(parse_config(doc), out_dir=str(tmp_path))
    cols = read_csv(files[0])
    assert list(cols) == ["t", "p_w", "rho11", "rho22", "re_rho12", "im_rho12"]
    rho_sum = np.asarray(cols["rho11"]) + np.asarray(cols["rho22"])
    assert np.max(np.abs(rho_sum - 1.0)) < 1e-9
    assert summary["gamma_damping"] > 0.0
    assert summary["regime"] == "underdamped"


def test_run_secular_curve(tmp_path, read_csv) -> None:
    files, summary = run(parse_config(_secular_doc()), out_dir=str(tmp_path))
    cols = read_csv(files[0])
    assert list(cols) == ["t", "p_w", "rho11", "rho22", "re_rho12", "im_rho12"]
    p_w = np.asarray(cols["p_w"])
    assert bool(np.all(np.diff(p_w) > 0.0))
    assert summary["p_suc"] == pytest.approx(1.0 / (1.0 + math.exp(-15.0 * summary["delta"])), rel=1e-9)


def test_secular_mode_and_sweep_start_from_the_projected_state(tmp_path, monkeypatch) -> None:
    import qsearch.experiments as experiments
    from qsearch.redfield import secular_populations

    received = []

    def recording(rates, t, rho11_0):
        received.append(rho11_0)
        return secular_populations(rates, t, rho11_0)

    monkeypatch.setattr(experiments, "secular_populations", recording)
    doc = _secular_doc()
    run(parse_config(doc), out_dir=str(tmp_path))
    # a one-point n sweep over the same system takes the secular path (sigma > 0)
    doc["mode"] = "sweep"
    doc["sweep"] = {"parameter": "n", "values": [doc["system"]["n"]], "seeds": 1, "fit": False}
    sweep(parse_config(doc))
    cfg = parse_config(_secular_doc())
    tl, _ = experiments._reduced_system(cfg.system)
    s1, s2 = tl.s_overlap(1), tl.s_overlap(2)
    projected = s1 * s1 / (s1 * s1 + s2 * s2)
    assert abs(projected - 1.0 / cfg.system.n) > 1e-3
    assert received == [pytest.approx(projected, rel=1e-12)] * 2


def test_run_correlation_series(tmp_path, read_csv) -> None:
    doc = {
        "mode": "correlation",
        "bath": {"g": 0.02, "beta": 15.0, "omega_c": 2.0},
        "grid": {"t_max": 10.0, "points": 30},
    }
    files, summary = run(parse_config(doc), out_dir=str(tmp_path))
    assert summary["temperature_mode"] == "finite"
    cols = read_csv(files[0])
    assert list(cols) == ["t", "re_f", "im_f", "abs_f"]
    mags = np.hypot(np.asarray(cols["re_f"]), np.asarray(cols["im_f"]))
    assert np.allclose(mags, np.asarray(cols["abs_f"]), atol=1e-15)


def test_run_validate_writes_report(tmp_path) -> None:
    doc = {
        "mode": "validate",
        "system": {"n": 10**6, "sigma": 0.007, "seed": 54, "gamma_policy": "shifted"},
        "bath": {"g": 0.02, "beta": 15.0, "omega_c": 2.0},
    }
    files, summary = run(parse_config(doc), out_dir=str(tmp_path))
    assert files[0].endswith("validate_validity.json")
    assert summary["validity"]["markov_status"] in ("ok", "marginal", "fail")
    with open(files[0]) as f:
        payload = json.load(f)
    assert payload["validity"]["two_level_ok"] is True


def test_run_spectrum_small_system(tmp_path) -> None:
    doc = {
        "mode": "spectrum",
        "system": {"n": 16, "sigma": 0.0, "seed": 0, "gamma_policy": "plain"},
        "output": {"stem": "tiny"},
    }
    files, summary = run(parse_config(doc), out_dir=str(tmp_path))
    assert files[0].endswith("tiny_spectrum.json")
    assert len(summary["eigenvalues"]) == 16
    assert summary["gap"] == pytest.approx(0.5, abs=1.0 / 16)
    big = {"mode": "spectrum", "system": {"n": 10**6, "sigma": 0.0}}
    with pytest.raises(ConfigError):
        run(parse_config(big), out_dir=str(tmp_path))


def test_csv_rows_use_twelve_significant_digits(tmp_path, csv_body) -> None:
    files, _ = run(parse_config(_unitary_doc()), out_dir=str(tmp_path))
    body = csv_body(files[0]).decode()
    first_row = body.splitlines()[1]
    t_text, p_text = first_row.split(",")
    assert t_text == format(0.0, ".12g")
    assert p_text == format(1.0 / 64, ".12g")


def test_output_stem_is_honored(tmp_path) -> None:
    doc = _unitary_doc()
    doc["output"] = {"stem": "probe"}
    files, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert files[0].endswith("probe.csv")
    assert files[1].endswith("probe_summary.json")


def test_load_config_round_trip(tmp_path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_unitary_doc()))
    cfg = load_config(str(path))
    assert cfg.mode == "unitary"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def _small_sweep_doc(values, fit: bool = True) -> dict:
    return {
        "mode": "sweep",
        "system": {"n": 10**4, "sigma": 0.05, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.01, "beta": 15.0, "omega_c": 2.0},
        "sweep": {"parameter": "beta", "values": values, "seeds": 2, "fit": fit},
    }


def test_sweep_rows_and_per_value_structure() -> None:
    cfg = parse_config(_small_sweep_doc([10.0, 20.0, 30.0]))
    result = sweep(cfg, force=True)
    assert result.parameter == "beta"
    assert len(result.rows) == 6
    keys = {"seed", "eps_w", "delta", "t_rel_fit", "t_rel_formula", "p_suc", "p_peak"}
    assert keys <= set(result.rows[0])
    values_in_order = [row["value"] for row in result.rows]
    assert values_in_order == [10.0, 10.0, 20.0, 20.0, 30.0, 30.0]
    seeds_in_order = [row["seed"] for row in result.rows]
    assert seeds_in_order == [0, 1, 0, 1, 0, 1]
    assert len(result.per_value) == 3
    for pv in result.per_value:
        assert set(pv) == {"value", "median_t_rel_fit", "iqr_t_rel_fit", "points"}
        assert pv["points"] == 2
    assert result.fit is not None
    # relaxation slows roughly linearly as the bath gets colder
    assert 0.5 < result.fit["exponent"] < 1.5


def test_sweep_warns_when_fit_needs_more_values() -> None:
    cfg = parse_config(_small_sweep_doc([10.0, 30.0]))
    with pytest.warns(UserWarning, match="fit omitted"):
        result = sweep(cfg, force=True)
    assert result.fit is None
    assert len(result.per_value) == 2


def test_sweep_without_fit_is_silent() -> None:
    cfg = parse_config(_small_sweep_doc([10.0, 30.0], fit=False))
    result = sweep(cfg, force=True)
    assert result.fit is None


def test_sweep_fit_over_nonpositive_values_is_refused_at_parse(tmp_path, monkeypatch) -> None:
    doc = _small_sweep_doc([0.0, 0.02, 0.04])
    doc["sweep"]["parameter"] = "sigma"
    with pytest.raises(ConfigError, match="positive"):
        parse_config(doc)
    doc["sweep"]["fit"] = False
    assert parse_config(doc).sweep.values[0] == 0.0
    # the CLI refuses it with exit 2 before any point runs
    doc["sweep"]["fit"] = True
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))

    def no_points(*_args, **_kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr("qsearch.experiments._sweep_point", no_points)
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_zero_coupling_is_refused_where_it_would_relax(tmp_path, capsys) -> None:
    redfield = _secular_doc()
    redfield["mode"] = "redfield"
    secular = _secular_doc()
    sweep_doc = _small_sweep_doc([10.0, 20.0, 30.0])
    g_sweep = _small_sweep_doc([0.0, 0.01, 0.02])
    g_sweep["sweep"].update(parameter="g", fit=False)
    for doc in (redfield, secular, sweep_doc):
        doc["bath"]["g"] = 0
    for doc in (redfield, secular, sweep_doc, g_sweep):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main([doc["mode"], "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "g > 0" in capsys.readouterr().err
    # a coupling whose square underflows relaxes no more than g = 0 does
    redfield["bath"]["g"] = 1e-200
    path.write_text(json.dumps(redfield))
    assert cli_main(["redfield", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "nothing relaxes" in capsys.readouterr().err
    # a g sweep replaces bath.g, and the validity and correlation modes take g = 0
    g_sweep["sweep"]["values"] = [0.01, 0.02, 0.03]
    g_sweep["bath"]["g"] = 0
    assert parse_config(g_sweep).bath.g == 0
    for mode in ("validate", "correlation"):
        doc = _secular_doc()
        doc.update(mode=mode)
        doc["bath"]["g"] = 0
        assert parse_config(doc).bath.g == 0


def test_swept_points_are_checked_before_any_runs(tmp_path, capsys, monkeypatch) -> None:
    def no_points(*_args, **_kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr("qsearch.experiments._sweep_point", no_points)
    n_below_w = {
        "mode": "sweep",
        "system": {"n": 100, "sigma": 0.01, "seed": 1, "w": 50},
        "bath": {"g": 0.005, "beta": 15.0},
        "grid": {"points": 200},
        "sweep": {"parameter": "n", "values": [20, 100, 1000], "seeds": 2, "fit": False},
    }
    n_at_w = json.loads(json.dumps(n_below_w))
    n_at_w["sweep"]["values"] = [1000, 50]
    n_one = json.loads(json.dumps(n_below_w))
    n_one["system"]["w"] = 0
    n_one["sweep"]["values"] = [1.4, 100]
    negative_sigma = _small_sweep_doc([0.01, -0.01], fit=False)
    negative_sigma["sweep"]["parameter"] = "sigma"
    zero_beta = _small_sweep_doc([10.0, 0.0], fit=False)
    zero_omega_c = _small_sweep_doc([2.0, -1.0], fit=False)
    zero_omega_c["sweep"]["parameter"] = "omega_c"
    cases = [
        (n_below_w, "exceed system.w = 50, got 20"),
        (n_at_w, "exceed system.w = 50, got 50"),
        (n_one, "got 1"),
        (negative_sigma, "nonnegative"),
        (zero_beta, "beta must be positive"),
        (zero_omega_c, "omega_c must be positive"),
    ]
    for doc, message in cases:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_dense_only_inputs_are_refused_at_parse(monkeypatch) -> None:
    monkeypatch.setattr("qsearch.experiments.DENSE_LIMIT", 4)
    with pytest.raises(ConfigError, match="spectrum mode needs n <= 4"):
        parse_config({"mode": "spectrum", "system": {"n": 5}})
    ring = [[1 if abs(i - j) in (1, 4) else 0 for j in range(5)] for i in range(5)]
    for mode in ("unitary", "spectrum"):
        doc = _unitary_doc(n=5, kind="custom", adjacency=ring)
        doc["mode"] = mode
        with pytest.raises(ConfigError, match="custom graphs are limited to n <= 4"):
            parse_config(doc)
    assert parse_config(_unitary_doc(n=5)).system.n == 5


def test_reduced_modes_draw_only_the_sites_up_to_w(tmp_path, monkeypatch) -> None:
    import qsearch.experiments as experiments
    from qsearch.model import DENSE_LIMIT, sample_disorder

    requested = []

    def recording(n, sigma, distribution="uniform", seed=0):
        requested.append(n)
        return sample_disorder(n, sigma, distribution, seed)

    monkeypatch.setattr(experiments, "sample_disorder", recording)
    docs = []
    for mode in ("secular", "redfield", "validate", "correlation"):
        doc = _secular_doc()
        doc["mode"] = mode
        doc["system"]["w"] = 7
        docs.append(doc)
    n_sweep = _small_sweep_doc([10**3, 10**4], fit=False)
    n_sweep["sweep"]["parameter"] = "n"
    n_sweep["system"]["w"] = 7
    docs.append(n_sweep)
    big = {"n": 10**5, "sigma": 0.01, "seed": 4, "w": 12345}
    docs.append({"mode": "unitary", "system": big, "grid": {"points": 20}})
    for doc in docs:
        requested.clear()
        _, summary = run(parse_config(doc), out_dir=str(tmp_path), force=True)
        assert requested and max(requested) <= doc["system"]["w"] + 1, doc["mode"]
    # the reduced unitary run reads site w of the n-site field it no longer draws
    assert big["n"] > DENSE_LIMIT and summary["method"] == "reduced"
    assert summary["eps_w"] == sample_disorder(big["n"], 0.01, "uniform", 4).epsilons[12345]


def test_csv_cells_keep_their_text_form(tmp_path, monkeypatch, csv_body) -> None:
    import qsearch.experiments as experiments

    def row(value, seed, t_rel_fit, two_level_ok, note):
        return {
            "value": value, "seed": seed, "eps_w": -0.00123456789012345, "delta": 0.1,
            "t_rel_fit": t_rel_fit, "t_rel_formula": 12345.678901234567, "p_suc": 0.5,
            "p_peak": 1.0 / 3.0, "markov_status": "ok", "secular_status": "marginal",
            "two_level_ok": two_level_ok, "note": note,
        }

    rows = [row(1000.0, 3, math.nan, False, "fit failed: flat"), row(2.5e-7, 0, 42.0, True, "")]
    monkeypatch.setattr(
        experiments, "sweep", lambda cfg, force=False, workers=1: SweepResult("n", rows, [], None)
    )
    files, _ = run(parse_config(_small_sweep_doc([10.0, 20.0], fit=False)), out_dir=str(tmp_path))
    assert csv_body(files[0]) == (
        b"value,seed,eps_w,delta,t_rel_fit,t_rel_formula,p_suc,p_peak,"
        b"markov_status,secular_status,two_level_ok,note\n"
        b"1000,3,-0.00123456789012,0.1,nan,12345.6789012,0.5,0.333333333333,ok,marginal,false,fit failed: flat\n"
        b"2.5e-07,0,-0.00123456789012,0.1,42,12345.6789012,0.5,0.333333333333,ok,marginal,true,\n"
    )
    values = np.array([complex(-0.0, 1e-320), complex(math.inf, -2.5)])
    monkeypatch.setattr(experiments, "correlation_finite_T", lambda times, bath: values)
    doc = {"mode": "correlation", "bath": {"g": 0.02, "beta": 15.0}, "grid": {"t_max": 10.0, "points": 2}}
    files, _ = run(parse_config(doc), out_dir=str(tmp_path))
    assert csv_body(files[0]) == (
        b"t,re_f,im_f,abs_f\n"
        b"0,-0,9.99988867183e-321,9.99988867183e-321\n"
        b"10,inf,-2.5,inf\n"
    )


def test_sweep_fit_must_be_a_bool() -> None:
    for value in ("no", 0, 1, None, "false"):
        doc = _small_sweep_doc([10.0, 20.0, 30.0])
        doc["sweep"]["fit"] = value
        with pytest.raises(ConfigError, match="sweep.fit"):
            parse_config(doc)
    doc = _small_sweep_doc([10.0, 20.0, 30.0])
    doc["sweep"]["fit"] = False
    assert parse_config(doc).sweep.fit is False


def test_run_sweep_writes_rows_and_summary(tmp_path, read_csv) -> None:
    cfg = parse_config(_small_sweep_doc([10.0, 20.0, 30.0]))
    files, summary = run(cfg, out_dir=str(tmp_path), force=True)
    cols = read_csv(files[0])
    assert "t_rel_fit" in cols
    assert "markov_status" in cols
    with open(files[1]) as f:
        payload = json.load(f)
    assert payload["parameter"] == "beta"
    assert len(payload["per_value"]) == 3
    assert summary["fit"]["exponent"] == pytest.approx(payload["fit"]["exponent"], rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="measured exponent is 0.817 at sigma=0.02: n sigma^2 spans 2 to 200 "
    "across the sweep, so the smallest n sits near the crossover and flattens "
    "the fit; sigma=0.05 keeps all points deep in the strong-disorder regime "
    "and measures 0.961",
)
def test_sweep_relaxation_vs_n_at_weak_disorder() -> None:
    doc = {
        "mode": "sweep",
        "system": {"n": 10**4, "sigma": 0.02, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.02, "beta": 15.0, "omega_c": 2.0},
        "sweep": {"parameter": "n", "values": [10**4, 10**5, 10**6], "seeds": 8},
    }
    fit = sweep(parse_config(doc), force=True).fit
    assert abs(fit["exponent"] - 1.0) <= 0.1


def test_sweep_relaxation_vs_n_at_weak_disorder_measured() -> None:
    doc = {
        "mode": "sweep",
        "system": {"n": 10**4, "sigma": 0.02, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.02, "beta": 15.0, "omega_c": 2.0},
        "sweep": {"parameter": "n", "values": [10**4, 10**5, 10**6], "seeds": 8},
    }
    fit = sweep(parse_config(doc), force=True).fit
    assert fit["exponent"] == pytest.approx(0.8173, abs=5e-3)


def test_sweep_relaxation_vs_sigma_zero_temperature() -> None:
    doc = {
        "mode": "sweep",
        "system": {"n": 10**5, "sigma": 0.02, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.02, "beta": "inf", "omega_c": 2.0},
        "sweep": {"parameter": "sigma", "values": [0.02, 0.04, 0.08], "seeds": 8},
    }
    fit = sweep(parse_config(doc), force=True).fit
    # t_rel grows linearly in sigma at fixed n when absorption is frozen out.
    assert abs(fit["exponent"] - 1.0) <= 0.15
    assert fit["r2"] > 0.99


def test_module_constants_status() -> None:
    assert set(SWEEP_PARAMETERS) == {"n", "sigma", "beta", "g", "omega_c"}
    assert "sweep" in MODES and "validate" in MODES

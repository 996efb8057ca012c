from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import qsearch
from qsearch.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VALIDITY, build_parser, main


def _write(tmp_path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _unitary_doc() -> dict:
    return {
        "mode": "unitary",
        "system": {"n": 64, "sigma": 0.0, "seed": 0, "gamma_policy": "plain"},
        "grid": {"points": 30},
    }


def test_successful_run_prints_output_paths(tmp_path, capsys) -> None:
    code = main(["unitary", "--config", _write(tmp_path, _unitary_doc()), "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("unitary.csv")
    assert lines[1].endswith("unitary_summary.json")


def test_mode_mismatch_is_config_error(tmp_path, capsys) -> None:
    code = main(["spectrum", "--config", _write(tmp_path, _unitary_doc()), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "mode" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["unitary", "--config", str(path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys) -> None:
    doc = _unitary_doc()
    doc["system"]["tunneling"] = 1.0
    assert main(["unitary", "--config", _write(tmp_path, doc)]) == EXIT_CONFIG
    assert "tunneling" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys) -> None:
    assert main(["unitary", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    capsys.readouterr()


def _strong_coupling_doc() -> dict:
    return {
        "mode": "secular",
        "system": {"n": 10**4, "sigma": 0.05, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": 0.5, "beta": 15.0, "omega_c": 2.0},
        "grid": {"t_max": 1e5, "points": 20},
    }


def test_validity_refusal_and_force_override(tmp_path, capsys) -> None:
    cfg = _write(tmp_path, _strong_coupling_doc())
    assert main(["secular", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDITY
    assert "validity" in capsys.readouterr().err
    assert main(["secular", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
    capsys.readouterr()


def test_validity_refusal_names_the_command_line_flag(tmp_path, capsys) -> None:
    recipe = os.path.join(os.path.dirname(__file__), os.pardir, "recipes", "fig1_beta40.json")
    assert main(["secular", "--config", recipe, "--out", str(tmp_path)]) == EXIT_VALIDITY
    err = capsys.readouterr().err
    assert "validity: coarse-graining margin g*sqrt(delta_t/delta) = 1.2 >= 1" in err
    assert "--force" in err and "force=True" not in err


def _tensor_doc(g: float) -> dict:
    return {
        "mode": "redfield",
        "system": {"n": 1000, "sigma": 0.0, "seed": 0, "gamma_policy": "shifted"},
        "bath": {"g": g, "beta": 10.0, "omega_c": 2.0},
        "grid": {"t_max": 200.0, "points": 50},
    }


def test_tensor_path_refusal_and_force_override(tmp_path, capsys) -> None:
    cfg = _write(tmp_path, _tensor_doc(0.5))
    assert main(["redfield", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDITY
    assert "validity: bath memory margin g*delta_t = 5 >= 1" in capsys.readouterr().err
    assert main(["redfield", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("points", [2, 3])
@pytest.mark.parametrize("mode", ["redfield", "secular", "sweep"])
def test_relaxing_grid_too_short_to_fit_is_config_error(tmp_path, capsys, mode, points) -> None:
    doc = dict(_tensor_doc(0.02), mode=mode, grid={"t_max": 200.0, "points": points})
    if mode == "sweep":
        doc.update(grid={"points": points}, sweep={"parameter": "beta", "values": [10.0, 20.0], "seeds": 1})
    assert main([mode, "--config", _write(tmp_path, doc), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"needs grid.points >= 4, got {points}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_memory_margin_of_exactly_one_is_refused(tmp_path, capsys) -> None:
    # g * delta_t = 0.1 * 10 = 1: the summary has always reported it as failed,
    # and the refusal reads that report
    cfg = _write(tmp_path, _tensor_doc(0.1))
    assert main(["redfield", "--config", cfg, "--out", str(tmp_path)]) == EXIT_VALIDITY
    assert "validity: bath memory margin g*delta_t = 1 >= 1" in capsys.readouterr().err
    assert main(["redfield", "--config", cfg, "--out", str(tmp_path), "--force"]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "redfield_summary.json").read_text())
    assert summary["validity"] == {
        "beta_star": 7.374136629512897,
        "delta_t": 10.0,
        "markov_margin": 1.0,
        "markov_ok": False,
        "markov_status": "fail",
        "notes": "memoryless-bath margin 1 is fail; coarse-graining margin 1.26 is fail",
        "secular_margin": 1.2574334296829348,
        "secular_ok": False,
        "secular_status": "fail",
        "two_level_ok": True,
    }


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch) -> None:
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("qsearch.cli.run", boom)
    code = main(["unitary", "--config", _write(tmp_path, _unitary_doc()), "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "numerical" in capsys.readouterr().err


def test_parser_takes_only_mode_config_out_and_force() -> None:
    # every option is a knob each caller must reason about; a new one needs a reason
    names = {name for action in build_parser()._actions for name in action.option_strings or [action.dest]}
    assert names == {"-h", "--help", "mode", "--config", "--out", "--force"}


def test_unknown_mode_rejected_by_argparse(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["melt", "--config", _write(tmp_path, _unitary_doc())])
    assert exc.value.code == 2


def test_import_loads_no_scipy() -> None:
    # every CLI run pays the import; scipy modules are imported where used
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsearch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import qsearch, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_namespace_holds_only_submodules() -> None:
    # every public name has one import path: the submodule that defines it
    for name, value in vars(qsearch).items():
        if name.startswith("__") and name.endswith("__"):
            continue
        assert isinstance(value, types.ModuleType), name
    assert isinstance(qsearch.__version__, str)


def test_two_level_redfield_path_loads_no_scipy() -> None:
    # every disorder-free sweep point assembles, propagates and solves an m = 2
    # tensor; no grid and no generator, not even a defective one, reaches scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsearch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy as np, qsearch as q\n"
        "tl = q.spectral.reduce_two_level(10**4, [0.0])\n"
        "rows, counts, _ = q.spectral._pair_coefficients(tl.n, tl.overlaps)\n"
        "co = q.spectral.CouplingCoefficients(rows[0], counts)\n"
        "te = q.redfield.assemble_redfield(co, tl.eigenvalues[0], q.bath.BathSpec(g=0.02, beta=15.0))\n"
        "q.redfield.integrate_master(te, np.eye(2, dtype=complex) / 2, np.linspace(0.0, 1e5, 400))\n"
        "q.redfield.steady_state(te)\n"
        "q.redfield.integrate_master(te, np.eye(2, dtype=complex) / 2, np.array([1.0, 2.0, 2.0, 7.5]))\n"
        "jordan = -0.5 * np.eye(4)\n"
        "jordan[2, 3] = 0.3\n"
        "de = q.redfield.RedfieldTensor(2, jordan)\n"
        "q.redfield.integrate_master(de, np.eye(2, dtype=complex) / 2, np.linspace(0.0, 12.0, 40))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

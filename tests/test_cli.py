"""Campaign runner tests: config resolution, campaigns end to end, emission.

Oracles: hand-written config files and flag dictionaries with known
precedence outcomes, byte comparison of repeated runs for reproducibility,
and the documented CSV headers / report schema as the emission contract.
Campaign parameters are chosen small enough that every check passes at
desk scale, so the exit-status contract can be asserted both ways.
"""

import json

import numpy as np
import pytest

from heislab import cli, cluster_eigenvalues


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_parse_grid_forms():
    assert cli._parse_grid("33") == (33,)
    assert cli._parse_grid("9,11,9") == (9, 11, 9)


def test_parse_grid_rejects_garbage():
    with pytest.raises(SystemExit):
        cli._parse_grid("abc")
    with pytest.raises(SystemExit):
        cli._parse_grid("9,2,9")


def test_resolve_config_defaults_only():
    cfg = cli.resolve_config("gram", None, {})
    assert cfg["schema"] == cli.SCHEMA
    assert cfg["kind"] == "gram"
    assert cfg["seed"] == 0
    assert cfg["out"] is None
    assert cfg["params"]["J"] == 3 and cfg["params"]["K"] == 3


def test_resolve_config_precedence_file_then_flags():
    file_config = {
        "kind": "folland-stein",
        "params": {"iters": 55, "counts": 13},
        "seed": 7,
        "out": "from-file",
    }
    flags = {"seed": 11, "out": "from-flags"}
    cfg = cli.resolve_config("folland-stein", file_config, flags)
    assert cfg["params"]["iters"] == 55
    assert cfg["params"]["counts"] == 13
    assert cfg["params"]["p"] == 2.0  # untouched default
    assert cfg["seed"] == 11 and cfg["params"]["seed"] == 11
    assert cfg["out"] == "from-flags"


def test_resolve_config_flag_overrides_file_value():
    file_config = {"kind": "gram", "params": {"tau": 0.5}}
    cfg = cli.resolve_config("gram", file_config, {"tau": 2.0})
    assert cfg["params"]["tau"] == 2.0


def test_resolve_config_grid_flag():
    cfg = cli.resolve_config("folland-stein", None, {"grid": "13"})
    assert cfg["params"]["counts"] == 13
    cfg = cli.resolve_config("solve", None, {"grid": "9,9,9"})
    assert cfg["params"]["counts"] == [9, 9, 9]


def test_resolve_config_lambda_flag_applies_where_meaningful():
    cfg = cli.resolve_config("solve", None, {"lam": 25.0})
    assert cfg["params"]["lam"] == 25.0
    cfg = cli.resolve_config("gram", None, {"lam": 25.0})
    assert "lam" not in cfg["params"]


def test_resolve_config_rejects_unknown_param():
    with pytest.raises(SystemExit, match="not understood"):
        cli.resolve_config("gram", {"kind": "gram", "params": {"Jmax": 3}}, {})


def test_resolve_config_rejects_kind_mismatch():
    with pytest.raises(SystemExit, match="kind"):
        cli.resolve_config("gram", {"kind": "weyl", "params": {}}, {})


def test_resolve_config_rejects_non_object_params():
    with pytest.raises(SystemExit, match="params"):
        cli.resolve_config("gram", {"kind": "gram", "params": [1, 2]}, {})


def test_resolve_config_rejects_unknown_kind():
    with pytest.raises(SystemExit, match="unknown kind"):
        cli.resolve_config("laplace", None, {})


def test_load_config_file_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "gram",\n  "params": {oops}}\n')
    with pytest.raises(SystemExit, match=r"line 2.*column"):
        cli._load_config_file(str(bad))


def test_load_config_file_rejects_non_object(tmp_path):
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]\n")
    with pytest.raises(SystemExit, match="object"):
        cli._load_config_file(str(arr))


def test_jsonable_handles_numpy_and_nonfinite():
    out = cli._jsonable(
        {
            1: np.float64(0.5),
            "n": np.int32(7),
            "arr": np.array([1.0, 2.0]),
            "bad": float("nan"),
            "inf": float("inf"),
            "nested": (np.float32(1.5),),
        }
    )
    assert out == {
        "1": 0.5,
        "n": 7,
        "arr": [1.0, 2.0],
        "bad": "nan",
        "inf": "inf",
        "nested": [1.5],
    }
    json.dumps(out)  # must be serializable as-is


# ---------------------------------------------------------------------------
# campaigns end to end
# ---------------------------------------------------------------------------


def _report(path):
    data = json.loads(path.read_text())
    assert data["schema"] == cli.SCHEMA
    assert set(data) == {"schema", "kind", "config", "results", "checks", "ok"}
    return data


def _csv_lines(path):
    raw = path.read_bytes()
    assert b"\r" not in raw, "CSV must use bare newlines"
    text = raw.decode()
    assert text.endswith("\n")
    return text.splitlines()


def test_gram_campaign(tmp_path, capsys):
    cfg = cli.resolve_config(
        "gram", {"kind": "gram", "params": {"J": 2, "K": 2}}, {"out": str(tmp_path)}
    )
    code, report, files = cli.run(cfg)
    assert code == 0 and report["ok"]
    assert report["checks"]["identity_deviation_1e-6"]
    out = capsys.readouterr().out
    assert "[gram] ok" in out and "PASS" in out

    data = _report(tmp_path / "gram_report.json")
    assert data["kind"] == "gram"
    assert data["config"]["J"] == 2

    lines = _csv_lines(tmp_path / "gram.csv")
    assert lines[0] == "row_j,row_k,col_j,col_k,real,imag"
    assert len(lines) == 1 + 81  # labels run j=0..J, k=0..K: 9 pairs for J=K=2
    norms = _csv_lines(tmp_path / "gram_norms.csv")
    assert norms[0] == "j,k,raw_norm"
    assert len(norms) == 1 + 9


def test_folland_stein_campaign_reproducible_csv(tmp_path):
    file_config = {"kind": "folland-stein", "params": {"counts": 13, "iters": 40}}
    runs = []
    for sub in ("a", "b"):
        cfg = cli.resolve_config(
            "folland-stein", dict(file_config), {"out": str(tmp_path / sub), "seed": 3}
        )
        code, report, _ = cli.run(cfg)
        assert code == 0 and report["ok"]
        runs.append((tmp_path / sub / "fs_history.csv").read_bytes())
    assert runs[0] == runs[1], "same config + seed must give identical CSV bytes"

    lines = _csv_lines(tmp_path / "a" / "fs_history.csv")
    assert lines[0] == "iteration,quotient"
    assert len(lines) > 10
    data = _report(tmp_path / "a" / "folland_stein_report.json")
    assert data["checks"]["monotone_descent"]
    assert data["results"]["value"] > 0


def test_spectra_campaign(tmp_path):
    cfg = cli.resolve_config(
        "spectra",
        {"kind": "spectra", "params": {"counts": 45, "m": 170, "levels": 1}},
        {"out": str(tmp_path)},
    )
    code, report, _ = cli.run(cfg)
    assert code == 0 and report["ok"]

    eig = _csv_lines(tmp_path / "eigenvalues.csv")
    assert eig[0] == "index,eigenvalue"
    assert len(eig) == 1 + 170
    values = [float(line.split(",")[1]) for line in eig[1:]]
    assert values == sorted(values)

    ladder = _csv_lines(tmp_path / "ladder.csv")
    assert ladder[0] == "k,center,model,rel_deviation"
    assert len(ladder) == 1 + 1  # one fitted rung
    rel_dev = float(ladder[1].split(",")[3])
    assert rel_dev <= 0.05

    res = _csv_lines(tmp_path / "residuals.csv")
    assert res[0] == "j,k,scaling,angular_sign,residual"
    assert len(res) == 1 + 2


def test_spectra_default_config_holds_the_whole_third_level(tmp_path):
    # at 65^2 Landau level 3 spans indices 345-487 (143 states); a default m
    # inside it biases the fitted centre (95 members give 18.4175, all 18.6103)
    cfg = cli.resolve_config("spectra", None, {"out": str(tmp_path)})
    code, report, _ = cli.run(cfg)
    assert code == 0 and report["ok"]
    ladder = report["results"]["ladder"]
    assert ladder["populations"][2] == 143
    eigs = report["results"]["eigenvalues"]
    # the level is followed by further eigenvalues, so it is not cut short
    assert cluster_eigenvalues(eigs, rel_gap=ladder["rel_gap_used"])[-1][0] > ladder["centers"][2]


def test_weyl_campaign(tmp_path):
    cfg = cli.resolve_config(
        "weyl",
        {"kind": "weyl", "params": {"widths": [2.0, 4.0, 8.0], "counts": 71}},
        {"out": str(tmp_path)},
    )
    code, report, _ = cli.run(cfg)
    assert code == 0 and report["ok"]
    assert report["checks"]["strictly_decreasing"]
    assert report["checks"]["final_below_0.1"]

    lines = _csv_lines(tmp_path / "weyl.csv")
    assert lines[0] == "width,sigma,tau0,residual,eigen_estimate"
    assert len(lines) == 1 + 3
    residuals = [float(line.split(",")[3]) for line in lines[1:]]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[-1] <= 0.1


def test_conventions_campaign(tmp_path):
    cfg = cli.resolve_config(
        "conventions",
        {"kind": "conventions", "params": {"counts": 41, "half": 5.0}},
        {"out": str(tmp_path)},
    )
    code, report, _ = cli.run(cfg)
    assert code == 0 and report["ok"]
    conv = report["results"]["convention"]
    assert conv["scaling"] == 2.0
    assert conv["angular_sign"] == 1
    assert report["results"]["bridge_sign_inverse"] == -1
    assert report["results"]["bridge_sign_forward"] == 1

    lines = _csv_lines(tmp_path / "conventions.csv")
    assert lines[0] == (
        "scaling,angular_sign,residual,bridge_sign_inverse,bridge_sign_forward"
    )
    assert len(lines) == 1 + 1


def test_solve_campaign(tmp_path):
    cfg = cli.resolve_config(
        "solve",
        {
            "kind": "solve",
            "params": {
                "counts": 9,
                "nodes": 7,
                "max_iter": 8000,
                "fs_iters": 40,
                "ray_steps": 120,
            },
        },
        {"out": str(tmp_path)},
    )
    code, report, _ = cli.run(cfg)
    assert code == 0 and report["ok"]
    for name in (
        "exponents_valid",
        "ray_peak_positive",
        "ray_tail_decreasing",
        "mp_converged",
        "mp_positive_norm",
        "mp_positive_energy",
        "ps_all_ok",
        "threshold_compared",
    ):
        assert report["checks"][name], name

    mp = report["results"]["mountain_pass"]
    log = _csv_lines(tmp_path / "ps_log.csv")
    assert log[0] == "iteration,energy,gradient_norm,hw_norm"
    assert len(log) == 1 + len(mp["energies"])

    ray = _csv_lines(tmp_path / "ray.csv")
    assert ray[0] == "t,energy"
    assert len(ray) > 10


def test_solve_infeasible_exponents_skip_computation(tmp_path):
    cfg = cli.resolve_config(
        "solve",
        {"kind": "solve", "params": {"counts": 9, "kappa": 2.5}},
        {"out": str(tmp_path)},
    )
    code, report, _ = cli.run(cfg)
    assert code == 1 and not report["ok"]
    assert report["checks"] == {"exponents_valid": False}
    assert "folland_stein" not in report["results"]
    assert "mountain_pass" not in report["results"]
    # emission still writes the contracted files, just with no data rows
    assert _csv_lines(tmp_path / "ps_log.csv") == [
        "iteration,energy,gradient_norm,hw_norm"
    ]


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("HEISLAB_OUT", str(tmp_path / "envout"))
    cfg = cli.resolve_config(
        "conventions",
        {"kind": "conventions", "params": {"counts": 41, "half": 5.0}},
        {},
    )
    code, _, files = cli.run(cfg)
    assert code == 0
    assert (tmp_path / "envout" / "conventions_report.json").exists()
    assert all(f.parent == tmp_path / "envout" for f in files)


# ---------------------------------------------------------------------------
# argument-parser entry point
# ---------------------------------------------------------------------------


def test_main_with_config_file(tmp_path):
    config = tmp_path / "gram.json"
    config.write_text(
        json.dumps({"kind": "gram", "params": {"J": 2, "K": 2}, "out": str(tmp_path)})
    )
    assert cli.main(["gram", "--config", str(config)]) == 0
    assert (tmp_path / "gram_report.json").exists()


def test_main_flags_override_config(tmp_path):
    config = tmp_path / "fs.json"
    config.write_text(
        json.dumps(
            {
                "kind": "folland-stein",
                "params": {"counts": 13, "iters": 30},
                "out": str(tmp_path / "ignored"),
            }
        )
    )
    code = cli.main(
        [
            "folland-stein",
            "--config",
            str(config),
            "--out",
            str(tmp_path / "real"),
            "--grid",
            "9",
        ]
    )
    assert code == 0
    assert (tmp_path / "real" / "folland_stein_report.json").exists()
    assert not (tmp_path / "ignored").exists()
    data = json.loads((tmp_path / "real" / "folland_stein_report.json").read_text())
    assert data["config"]["counts"] == 9


def test_main_rejects_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "gram", params: 3}')
    with pytest.raises(SystemExit, match="line"):
        cli.main(["gram", "--config", str(bad)])


def test_main_requires_verb():
    with pytest.raises(SystemExit):
        cli.main([])

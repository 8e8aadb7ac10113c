"""Campaign runner tests: config resolution, campaigns end to end, emission.

Oracles: hand-written config files and flag dictionaries with known
precedence outcomes, byte comparison of repeated runs for reproducibility,
the documented CSV headers / report schema as the emission contract, exact
CSV bytes from hand-built reports, and a recording stand-in for matplotlib.
Campaign parameters are chosen small enough that every check passes at
desk scale, so the exit-status contract can be asserted both ways.
"""

import json
import sys
import types
from pathlib import Path

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
    # like --tau and --lambda, --grid applies only where the kind has a grid
    cfg = cli.resolve_config("gram", None, {"grid": "9"})
    assert "counts" not in cfg["params"]
    with pytest.raises(SystemExit, match="--grid"):
        cli.resolve_config("gram", None, {"grid": "abc"})


def test_resolve_config_rejects_differing_counts_from_a_flag(tmp_path):
    with pytest.raises(SystemExit, match=r"counts \[9, 11, 13\] differ"):
        cli.resolve_config("folland-stein", None, {"grid": "9,11,13"})
    with pytest.raises(SystemExit, match=r"counts \[9, 41\] differ"):
        cli.main(["spectra", "--grid", "9,41", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()  # rejected before any computation


def test_resolve_config_rejects_differing_counts_from_a_config_file():
    file_config = {"kind": "solve", "params": {"counts": [9, 9, 11]}}
    with pytest.raises(SystemExit, match=r"counts \[9, 9, 11\] differ"):
        cli.resolve_config("solve", file_config, {})
    file_config = {"kind": "solve", "params": {"counts": [9, 9, 9]}}
    assert cli.resolve_config("solve", file_config, {})["params"]["counts"] == [9, 9, 9]


@pytest.mark.parametrize("kind, grid, axes", [
    ("spectra", "9,9,9", 2), ("weyl", "71,71,71", 2), ("conventions", "41,41,41", 2),
    ("folland-stein", "9,9", 3), ("solve", "9,9", 3), ("solve", "9,9,9,9,9", 3),
])
def test_resolve_config_rejects_a_count_per_wrong_number_of_axes_from_a_flag(kind, grid, axes):
    with pytest.raises(SystemExit, match=rf"{kind} takes 1 or {axes} counts, one per grid axis"):
        cli.resolve_config(kind, None, {"grid": grid})
    single = grid.split(",")[0]
    assert cli.resolve_config(kind, None, {"grid": single})["params"]["counts"] == int(single)


def test_resolve_config_rejects_a_count_per_wrong_number_of_axes_from_a_config_file():
    # solve takes 2n + 1 counts: 5 on H_2, where the default 3 is too few
    file_config = {"kind": "solve", "params": {"n": 2, "counts": [9, 9, 9]}}
    with pytest.raises(SystemExit, match=r"solve takes 1 or 5 counts, .*got \[9, 9, 9\]"):
        cli.resolve_config("solve", file_config, {})
    file_config = {"kind": "solve", "params": {"n": 2, "counts": [9] * 5}}
    assert cli.resolve_config("solve", file_config, {})["params"]["counts"] == [9] * 5
    file_config = {"kind": "spectra", "params": {"counts": [45]}}  # a single count
    assert cli.resolve_config("spectra", file_config, {})["params"]["counts"] == [45]


def test_main_rejects_a_count_per_wrong_number_of_axes_before_any_output(tmp_path):
    with pytest.raises(SystemExit, match=r"folland-stein takes 1 or 3 counts"):
        cli.main(["folland-stein", "--grid", "9,9", "--out", str(tmp_path / "out")])
    config = tmp_path / "weyl.json"
    config.write_text(json.dumps({"kind": "weyl", "params": {"counts": [71, 71, 71]}}))
    with pytest.raises(SystemExit, match=r"weyl takes 1 or 2 counts"):
        cli.main(["weyl", "--config", str(config), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()  # rejected before any computation


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


# ---------------------------------------------------------------------------
# emission from hand-built reports
# ---------------------------------------------------------------------------

_RESULTS = {
    "spectra": {
        "eigenvalues": [3.9, 4.1],
        "ladder": {"kappa0": 4.0, "tau": -1.0, "centers": [4.0, 12.5]},
        "residuals": [
            {"j": 0, "k": 1, "scaling": 2.0, "angular_sign": 1, "residual": 0.003}
        ],
    },
    "weyl": {
        "widths": [2.0, 4.0],
        "sigmas": [4.0, 16.0],
        "tau0s": [0.1, 0.05],
        "residuals": [0.2, 0.01],
        "eigen_estimates": [4.1, 4.0],
    },
    "gram": {
        "labels": [[0, 0], [0, 1]],
        "matrix_real": [[1.0, 0.0], [0.0, 1.0]],
        "matrix_imag": [[0.0, 0.25], [-0.25, 0.0]],
        "raw_norms": [1.5, 2.5],
    },
    "folland-stein": {"history": [3.0, 2.5, 2.25]},
    "solve": {
        "ray": {"ts": [0.0, 1.0], "energies": [0.0, 0.5]},
        "mountain_pass": {
            "energies": [0.75, 0.5],
            "gradient_norms": [0.1, 0.001],
            "norms": [1.25, 1.5],
        },
    },
    "conventions": {
        "convention": {"scaling": 2.0, "angular_sign": 1, "residual": 0.001},
        "bridge_sign_inverse": -1,
        "bridge_sign_forward": 1,
    },
}

_CSV_BYTES = {
    "spectra": {
        "eigenvalues.csv": b"index,eigenvalue\n0,3.9\n1,4.1\n",
        "ladder.csv": (
            b"k,center,model,rel_deviation\n"
            b"0,4.0,4.0,0.0\n"
            b"1,12.5,12.0,0.041666666666666664\n"
        ),
        "residuals.csv": b"j,k,scaling,angular_sign,residual\n0,1,2.0,1,0.003\n",
    },
    "weyl": {
        "weyl.csv": (
            b"width,sigma,tau0,residual,eigen_estimate\n"
            b"2.0,4.0,0.1,0.2,4.1\n"
            b"4.0,16.0,0.05,0.01,4.0\n"
        ),
    },
    "gram": {
        "gram.csv": (
            b"row_j,row_k,col_j,col_k,real,imag\n"
            b"0,0,0,0,1.0,0.0\n"
            b"0,0,0,1,0.0,0.25\n"
            b"0,1,0,0,0.0,-0.25\n"
            b"0,1,0,1,1.0,0.0\n"
        ),
        "gram_norms.csv": b"j,k,raw_norm\n0,0,1.5\n0,1,2.5\n",
    },
    "folland-stein": {
        "fs_history.csv": b"iteration,quotient\n0,3.0\n1,2.5\n2,2.25\n",
    },
    "solve": {
        "ray.csv": b"t,energy\n0.0,0.0\n1.0,0.5\n",
        "ps_log.csv": (
            b"iteration,energy,gradient_norm,hw_norm\n"
            b"0,0.75,0.1,1.25\n"
            b"1,0.5,0.001,1.5\n"
        ),
    },
    "conventions": {
        "conventions.csv": (
            b"scaling,angular_sign,residual,bridge_sign_inverse,bridge_sign_forward\n"
            b"2.0,1,0.001,-1,1\n"
        ),
    },
}


def _emit(tmp_path, kind, results):
    report = {"schema": cli.SCHEMA, "kind": kind, "results": results}
    paths = cli.emit_csv(report, tmp_path)
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("kind", sorted(_CSV_BYTES))
def test_emit_csv_exact_bytes(tmp_path, kind):
    written = _emit(tmp_path, kind, _RESULTS[kind])
    assert list(written) == list(_CSV_BYTES[kind])
    assert written == _CSV_BYTES[kind]


def test_emit_csv_spectra_without_ladder_writes_its_header(tmp_path):
    written = _emit(tmp_path, "spectra", dict(_RESULTS["spectra"], ladder=None))
    assert written["ladder.csv"] == b"k,center,model,rel_deviation\n"
    assert written["eigenvalues.csv"] == _CSV_BYTES["spectra"]["eigenvalues.csv"]
    assert written["residuals.csv"] == _CSV_BYTES["spectra"]["residuals.csv"]


def test_emit_csv_solve_without_ray_or_mountain_pass_writes_headers(tmp_path):
    written = _emit(tmp_path, "solve", {"exponents": {"all_ok": False}})
    assert written == {
        "ray.csv": b"t,energy\n",
        "ps_log.csv": b"iteration,energy,gradient_norm,hw_norm\n",
    }


def test_emit_csv_conventions_without_convention_writes_its_header(tmp_path):
    written = _emit(tmp_path, "conventions", dict(_RESULTS["conventions"], convention=None))
    assert written == {
        "conventions.csv": (
            b"scaling,angular_sign,residual,bridge_sign_inverse,bridge_sign_forward\n"
        )
    }


# ---------------------------------------------------------------------------
# --plots, against a recording stand-in for matplotlib
# ---------------------------------------------------------------------------


class _RecordingAxes:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


class _RecordingFigure:
    def __init__(self, axes, saved):
        self.axes, self.saved = axes, saved

    def savefig(self, path, **kwargs):
        Path(path).write_bytes(b"png")
        self.saved[Path(path).name] = (self.axes.calls, kwargs)


@pytest.fixture
def fake_matplotlib(monkeypatch):
    saved = {}  # PNG name -> (axes calls, savefig keywords)

    def subplots():
        ax = _RecordingAxes()
        return _RecordingFigure(ax, saved), ax

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return saved


def _labels(x, y):
    return [("set_xlabel", (x,), {}), ("set_ylabel", (y,), {})]


_PLOTS = {
    "spectra": {
        "eigenvalues.png": [
            ("plot", ([3.9, 4.1],), {"marker": ".", "linestyle": "none"}),
            *_labels("index", "eigenvalue"),
        ],
    },
    "weyl": {
        "weyl.png": [
            ("loglog", ([2.0, 4.0], [0.2, 0.01]), {"marker": "o"}),
            *_labels("envelope width", "residual"),
        ],
    },
    "folland-stein": {
        "fs_history.png": [
            ("semilogy", ([3.0, 2.5, 2.25],), {}),
            *_labels("iteration", "quotient"),
        ],
    },
    "solve": {
        "ps_log.png": [
            ("semilogy", ([0.1, 0.001],), {}),
            *_labels("iteration", "gradient norm"),
        ],
        "ray.png": [
            ("plot", ([0.0, 1.0], [0.0, 0.5]), {}),
            *_labels("t", "J(t v0)"),
        ],
    },
    "gram": {},
    "conventions": {},
}


@pytest.mark.parametrize("kind", sorted(_PLOTS))
def test_render_plots_writes_each_kinds_pngs(tmp_path, fake_matplotlib, kind):
    report = {"schema": cli.SCHEMA, "kind": kind, "results": _RESULTS[kind]}
    paths = cli._render_plots(report, tmp_path)
    assert [p.name for p in paths] == list(_PLOTS[kind])
    assert all(p.exists() for p in paths)
    assert {name: calls for name, (calls, _) in fake_matplotlib.items()} == _PLOTS[kind]
    assert all(kwargs == {"dpi": 120} for _, kwargs in fake_matplotlib.values())


def test_main_plots_flag_renders_through_matplotlib(tmp_path, fake_matplotlib):
    assert cli.main(["folland-stein", "--grid", "9", "--out", str(tmp_path), "--plots"]) == 0
    assert (tmp_path / "fs_history.png").read_bytes() == b"png"
    assert list(fake_matplotlib) == ["fs_history.png"]


def test_render_plots_warns_without_matplotlib(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    report = {"schema": cli.SCHEMA, "kind": "spectra", "results": _RESULTS["spectra"]}
    with pytest.warns(UserWarning, match="matplotlib unavailable"):
        assert cli._render_plots(report, tmp_path) == []
    assert not list(tmp_path.iterdir())

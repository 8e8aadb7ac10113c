"""Batch campaign runner and report emitter.

Each campaign (verb) is one record in ``_CAMPAIGNS``, declared beside its
runner: default parameters, runner, CSV tables and plots.  Every campaign
resolves its parameters as

    built-in defaults  <  JSON config file (--config)  <  CLI flags,

executes, writes ``<kind>_report.json`` (schema ``heislab-report-v1``) plus
its CSV tables into the output directory (--out, else ``$HEISLAB_OUT``, else
``./heislab-out``), and exits 0 exactly when every in-campaign check passed.

Report JSON layout::

    {"schema": "heislab-report-v1", "kind": ..., "config": {...},
     "results": {...}, "checks": {name: bool}, "ok": bool}

CSV headers are the contract; each record's tables list them, and README
"Report formats" tabulates them.  ``--plots`` renders static images of the
same tables when matplotlib is available (skipped with a warning otherwise).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import NoConventionFoundError, StructureMismatchError
from .grid import BoxGrid, ScalarField
from .spectral import (
    assemble_twisted,
    convention_search,
    eigenfunction_residual,
    gram_matrix,
    landau_structure_fit,
    lowest_eigenvalues,
    vertical_bridge_sign,
    weyl_probe,
)
from .variational import (
    GrowthNonlinearity,
    KirchhoffM,
    KirchhoffProblem,
    dirichlet_field,
    folland_stein_constant,
    hw_norm,
    mountain_pass_solve,
    mp_threshold,
    ps_monitor,
    ray_scan,
    validate_exponents,
)

SCHEMA = "heislab-report-v1"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SystemExit(f"--grid expects one node count n, got {text!r}") from exc


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise SystemExit(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SystemExit(f"config {path}: top level must be a JSON object")
    return raw


def resolve_config(kind: str, file_config: dict | None, flags: dict) -> dict:
    """defaults < config file < explicit CLI flags; returns the full config."""
    if kind not in _CAMPAIGNS:
        raise SystemExit(f"unknown kind {kind!r}; choose from {', '.join(_CAMPAIGNS)}")
    params = dict(_CAMPAIGNS[kind].defaults)
    seed = 0
    out = None
    if file_config:
        fkind = file_config.get("kind", kind)
        if fkind != kind:
            raise SystemExit(
                f"config file is for kind {fkind!r} but the verb is {kind!r}"
            )
        fparams = file_config.get("params", {})
        if not isinstance(fparams, dict):
            raise SystemExit("config field 'params' must be an object")
        unknown = sorted(set(fparams) - set(params))
        if unknown:
            hint = "; the seed is the top-level 'seed'" if "seed" in unknown else ""
            raise SystemExit(f"config params not understood for {kind}: {unknown}{hint}")
        params.update(fparams)
        seed = file_config.get("seed", seed)
        if type(seed) is not int:  # bool is an int subclass, and int() would round or parse
            raise SystemExit(f"config field 'seed' must be an integer, got {seed!r}")
        out = file_config.get("out", out)
    if flags.get("seed") is not None:
        seed = int(flags["seed"])
    if flags.get("out") is not None:
        out = flags["out"]
    if flags.get("tau") is not None and "tau" in params:
        params["tau"] = float(flags["tau"])
    if flags.get("lam") is not None and "lam" in params:
        params["lam"] = float(flags["lam"])
    if flags.get("grid") is not None:
        counts = _parse_grid(flags["grid"])  # malformed text fails on every kind
        if "counts" in params:
            params["counts"] = counts
    counts = params.get("counts", 3)  # gram has no grid
    if type(counts) is not int or counts < 3 or counts % 2 == 0:
        raise SystemExit(f"counts must be an odd integer >= 3 (nodes per axis), got {counts!r}")
    params["seed"] = seed
    return {"schema": SCHEMA, "kind": kind, "seed": seed, "out": out, "params": params}


def _out_dir(config: dict) -> Path:
    out = config.get("out") or os.environ.get("HEISLAB_OUT") or "heislab-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# ---------------------------------------------------------------------------
# campaign records
# ---------------------------------------------------------------------------


class _Campaign(NamedTuple):
    """One verb: its default parameters, runner, CSV tables and plots.

    The defaults hold no seed: ``resolve_config`` writes the top-level seed
    into the params.  A grid's ``counts`` is its nodes per axis, one odd int.
    A table is (file, header line, rows from ``results``).  A plot is (file,
    x, y, axes method, x label, y label, style) and draws
    ``ax.<method>([x,] y, **style)``; x and y are key paths into ``results``,
    x None plots y against its index, and an empty y draws nothing.
    """

    defaults: dict
    run: Callable[[dict], tuple[dict, dict]]
    tables: tuple
    plots: tuple


_CAMPAIGNS: dict[str, _Campaign] = {}


def _campaign(kind: str, defaults: dict, tables: tuple, plots: tuple = ()):
    """Register the decorated runner as campaign ``kind``; ``--help`` keeps this order."""
    def register(run):
        _CAMPAIGNS[kind] = _Campaign(defaults, run, tables, plots)
        return run
    return register


def _series(results: dict, path: str) -> list:
    """The list at the dotted key ``path`` of ``results``; [] where a key is missing."""
    value = results
    for key in path.split("."):
        value = (value or {}).get(key)
    return value or []


def _columns(*paths: str, index: bool = False) -> Callable[[dict], list]:
    """Rows zipped from the series at ``paths``, led by the row index if asked.

    A list-valued cell, such as a (j, k) label, spreads over its columns."""
    def rows(results: dict) -> list:
        zipped = zip(*(_series(results, path) for path in paths))
        out = [[v for cell in row for v in (cell if isinstance(cell, list) else [cell])]
               for row in zipped]
        return [[i, *row] for i, row in enumerate(out)] if index else out
    return rows


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def _ladder_rows(results: dict) -> list:
    ladder = results.get("ladder")
    if not ladder:
        return []
    k0, tau = ladder["kappa0"], abs(ladder["tau"])
    models = [k0 * (2 * k + 1) * tau for k in range(len(ladder["centers"]))]
    return [[k, center, model, abs(center - model) / model]
            for k, (center, model) in enumerate(zip(ladder["centers"], models))]


@_campaign(
    "spectra",
    defaults={
        "tau": 1.0, "half": 8.0, "counts": 65, "m": 520, "levels": 3,
        "angular_sign": 1, "scaling": 2.0, "kappa0": 4.0,
        "residual_pairs": [[0, 0], [0, 1]],
    },
    tables=(
        ("eigenvalues.csv", "index,eigenvalue", _columns("eigenvalues", index=True)),
        ("ladder.csv", "k,center,model,rel_deviation", _ladder_rows),
        ("residuals.csv", "j,k,scaling,angular_sign,residual", lambda r: [
            [row[c] for c in ("j", "k", "scaling", "angular_sign", "residual")]
            for row in r.get("residuals", [])
        ]),
    ),
    plots=(
        ("eigenvalues.png", None, "eigenvalues", "plot", "index", "eigenvalue",
         {"marker": ".", "linestyle": "none"}),
    ),
)
def _run_spectra(p: dict) -> tuple[dict, dict]:
    grid = BoxGrid.cube(float(p["half"]), p["counts"], 2)
    tau = float(p["tau"])
    h = max(grid.spacing)
    t0 = time.perf_counter()
    op = assemble_twisted(tau, grid, angular_sign=int(p["angular_sign"]))
    eigs, _ = lowest_eigenvalues(op, int(p["m"]), seed=int(p["seed"]))
    t_eigs = time.perf_counter() - t0
    checks: dict[str, bool] = {}
    ladder = None
    try:
        fit = landau_structure_fit(eigs, tau, n_levels=int(p["levels"]))
        ladder = fit.to_dict()
        checks["ladder_structure"] = True
        checks["ladder_deviation_5pct"] = fit.max_rel_deviation <= 0.05
    except StructureMismatchError as exc:
        warnings.warn(f"ladder fit failed: {exc}", stacklevel=2)
        checks["ladder_structure"] = False
        checks["ladder_deviation_5pct"] = False
    t1 = time.perf_counter()
    residuals = []
    for j, k in p["residual_pairs"]:
        r = eigenfunction_residual(
            int(j), int(k), tau, grid,
            scaling=float(p["scaling"]),
            angular_sign=int(p["angular_sign"]),
            kappa0=float(p["kappa0"]),
        )
        residuals.append(
            {"j": int(j), "k": int(k), "scaling": float(p["scaling"]),
             "angular_sign": int(p["angular_sign"]), "residual": r}
        )
    checks["residuals_order_h2"] = all(
        row["residual"] <= 2.5 * h * h for row in residuals
    )
    results = {
        "tau": tau,
        "grid": grid.descriptor(),
        "h": h,
        "eigenvalues": [float(v) for v in eigs],
        "ladder": ladder,
        "residuals": residuals,
        "runtimes": {"eigensolve": t_eigs, "residuals": time.perf_counter() - t1},
    }
    return results, checks


@_campaign(
    "weyl",
    defaults={
        "lam": 4.0, "j": 0, "k": 0, "widths": [2.0, 4.0, 8.0, 16.0], "half": 7.0,
        "counts": 141, "kappa0": 4.0, "probe_lambda": None, "tau0_start": 0.1,
    },
    tables=(
        ("weyl.csv", "width,sigma,tau0,residual,eigen_estimate",
         _columns("widths", "sigmas", "tau0s", "residuals", "eigen_estimates")),
    ),
    plots=(
        ("weyl.png", "widths", "residuals", "loglog", "envelope width", "residual",
         {"marker": "o"}),
    ),
)
def _run_weyl(p: dict) -> tuple[dict, dict]:
    widths = [float(w) for w in p["widths"]]
    half = float(p["half"])
    c = p["counts"]
    t_half = 3.0 * max(w * w for w in widths)
    grid3 = BoxGrid((-half, -half, -t_half), (half, half, t_half), (c, c, 3))
    probe_lambda = p["probe_lambda"]
    res = weyl_probe(
        float(p["lam"]),
        int(p["k"]),
        widths,
        grid3,
        j=int(p["j"]),
        kappa0=float(p["kappa0"]),
        probe_lambda=None if probe_lambda is None else float(probe_lambda),
        tau0_start=float(p["tau0_start"]),
    )
    checks = {"strictly_decreasing": res.strictly_decreasing}
    on_target = probe_lambda is None or float(probe_lambda) == float(p["lam"])
    if on_target:
        checks["final_below_0.1"] = res.residuals[-1] <= 0.1
    results = res.to_dict()
    results["grid"] = grid3.descriptor()
    results["sigmas"] = [w * w for w in widths]
    return results, checks


def _gram_rows(results: dict) -> list:
    labels = results.get("labels", [])
    re_m, im_m = results.get("matrix_real", []), results.get("matrix_imag", [])
    return [[*la, *lb, re_m[a][b], im_m[a][b]]
            for a, la in enumerate(labels) for b, lb in enumerate(labels)]


@_campaign(
    "gram",
    defaults={"tau": 1.0, "J": 3, "K": 3},
    tables=(
        ("gram.csv", "row_j,row_k,col_j,col_k,real,imag", _gram_rows),
        ("gram_norms.csv", "j,k,raw_norm", _columns("labels", "raw_norms")),
    ),
)
def _run_gram(p: dict) -> tuple[dict, dict]:
    res = gram_matrix(int(p["J"]), int(p["K"]), float(p["tau"]))
    out = res.to_dict()
    out["matrix_real"] = [[float(v) for v in row] for row in np.real(res.matrix)]
    out["matrix_imag"] = [[float(v) for v in row] for row in np.imag(res.matrix)]
    checks = {"identity_deviation_1e-6": res.max_deviation <= 1e-6}
    return out, checks


@_campaign(
    "folland-stein",
    defaults={"p": 2.0, "half": 4.0, "counts": 25, "iters": 200},
    tables=(
        ("fs_history.csv", "iteration,quotient", _columns("history", index=True)),
    ),
    plots=(("fs_history.png", None, "history", "semilogy", "iteration", "quotient", {}),),
)
def _run_folland_stein(p: dict) -> tuple[dict, dict]:
    grid = BoxGrid.cube(float(p["half"]), p["counts"], 3)
    res = folland_stein_constant(
        grid, float(p["p"]), iters=int(p["iters"]), seed=int(p["seed"])
    )
    out = res.to_dict()
    out["grid"] = grid.descriptor()
    out["history"] = res.history
    checks = {
        "monotone_descent": res.monotone,
        "finite_value": math.isfinite(res.value) and res.value > 0,
    }
    return out, checks


def _build_problem(p: dict) -> KirchhoffProblem:
    n = int(p["n"])
    grid = BoxGrid.cube(float(p["half"]), p["counts"], 2 * n + 1)
    growth = GrowthNonlinearity(r_g=float(p["r_g"]), theta=float(p["theta"]))
    return KirchhoffProblem(
        n=n,
        p=float(p["p"]),
        lam=float(p["lam"]),
        kirchhoff=KirchhoffM(float(p["m0"]), float(p["b"]), float(p["kappa"])),
        nonlinearity=growth,
        grid=grid,
        potential=float(p["potential"]),
    )


@_campaign(
    "solve",
    defaults={
        "n": 1, "p": 2.0, "lam": 50.0, "m0": 1.0, "b": 1.0, "kappa": 1.5,
        "r_g": 3.5, "theta": 3.5, "potential": 1.0, "half": 4.0, "counts": 33,
        "max_iter": 20000, "fs_iters": 150, "ray_t_max": 24.0, "ray_steps": 200,
        "bump_width": 1.2,
    },
    tables=(
        ("ray.csv", "t,energy", _columns("ray.ts", "ray.energies")),
        ("ps_log.csv", "iteration,energy,gradient_norm,hw_norm", _columns(
            "mountain_pass.energies", "mountain_pass.gradient_norms",
            "mountain_pass.norms", index=True,
        )),
    ),
    plots=(
        ("ps_log.png", None, "mountain_pass.gradient_norms", "semilogy",
         "iteration", "gradient norm", {}),
        ("ray.png", "ray.ts", "ray.energies", "plot", "t", "J(t v0)", {}),
    ),
)
def _run_solve(p: dict) -> tuple[dict, dict]:
    problem = _build_problem(p)
    report = validate_exponents(problem)
    checks = {"exponents_valid": report["all_ok"]}
    results: dict = {"problem": problem.to_dict(), "exponents": report}
    if not report["all_ok"]:
        return results, checks

    t0 = time.perf_counter()
    fs = folland_stein_constant(
        problem.grid, problem.p, iters=int(p["fs_iters"]), seed=int(p["seed"])
    )
    threshold = mp_threshold(problem, fs.value)
    results["folland_stein"] = fs.to_dict()
    results["threshold"] = float(threshold)

    width = float(p["bump_width"])
    bump = dirichlet_field(
        problem.grid,
        lambda *m: np.exp(-sum(c * c for c in m) / (2.0 * width * width)),
    )
    v0 = ScalarField(problem.grid, bump.values / hw_norm(bump, problem))
    ray = ray_scan(v0, problem, t_max=float(p["ray_t_max"]), steps=int(p["ray_steps"]))
    results["ray"] = ray
    checks["ray_peak_positive"] = ray["t_peak"] > 0 and ray["j_peak"] > 0
    checks["ray_tail_decreasing"] = ray["tail_decreasing"]

    e = ScalarField(problem.grid, ray["t_negative"] * v0.values)
    mp = mountain_pass_solve(
        problem, e, max_iter=int(p["max_iter"]), threshold=float(threshold)
    )
    results["mountain_pass"] = mp.to_dict()
    ps = ps_monitor(mp)
    results["ps_monitor"] = ps
    results["runtimes"] = {"total": time.perf_counter() - t0}
    checks["mp_converged"] = bool(mp.flags["converged"])
    checks["mp_positive_norm"] = bool(mp.flags["positive_norm"])
    checks["mp_positive_energy"] = bool(mp.flags["positive_energy"])
    checks["ps_all_ok"] = bool(ps["all_ok"])
    checks["threshold_compared"] = math.isfinite(threshold)
    return results, checks


def _conventions_rows(results: dict) -> list:
    conv = results.get("convention")
    if not conv:
        return []
    return [[conv["scaling"], conv["angular_sign"], conv["residual"],
             results.get("bridge_sign_inverse"), results.get("bridge_sign_forward")]]


@_campaign(
    "conventions",
    defaults={
        "tau": 1.0, "half": 6.0, "counts": 101, "j": 0, "k": 1, "kappa0": 4.0,
    },
    tables=(
        ("conventions.csv",
         "scaling,angular_sign,residual,bridge_sign_inverse,bridge_sign_forward",
         _conventions_rows),
    ),
)
def _run_conventions(p: dict) -> tuple[dict, dict]:
    grid = BoxGrid.cube(float(p["half"]), p["counts"], 2)
    checks: dict[str, bool] = {}
    try:
        choice = convention_search(
            int(p["j"]), int(p["k"]), float(p["tau"]), grid,
            kappa0=float(p["kappa0"]),
        )
        checks["convention_found"] = True
        choice_dict = choice.to_dict()
    except NoConventionFoundError as exc:
        warnings.warn(str(exc), stacklevel=2)
        checks["convention_found"] = False
        choice_dict = None
    sign_inv = vertical_bridge_sign(transform="inverse")
    sign_fwd = vertical_bridge_sign(transform="forward")
    checks["bridge_signs_opposite"] = sign_inv == -sign_fwd
    results = {
        "tau": float(p["tau"]),
        "grid": grid.descriptor(),
        "convention": choice_dict,
        "bridge_sign_inverse": sign_inv,
        "bridge_sign_forward": sign_fwd,
        "kappa0": float(p["kappa0"]),
    }
    return results, checks


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows: list) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)
    return path


def emit_csv(report: dict, out_dir) -> list[Path]:
    """Write the report's tabular sections as CSV files; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, results = report.get("kind"), report.get("results") or {}
    tables = _CAMPAIGNS[kind].tables if kind in _CAMPAIGNS else ()
    return [_write_csv(out / name, header, rows(results)) for name, header, rows in tables]


def _render_plots(report: dict, out_dir: Path) -> list[Path]:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        warnings.warn("matplotlib unavailable; skipping plots", stacklevel=2)
        return []
    kind, results = report.get("kind"), report.get("results") or {}
    paths: list[Path] = []
    plots = _CAMPAIGNS[kind].plots if kind in _CAMPAIGNS else ()
    for name, x, y, method, xlabel, ylabel, style in plots:
        ys = _series(results, y)
        if not ys:
            continue
        fig, ax = plt.subplots()
        xy = (ys,) if x is None else (_series(results, x), ys)
        getattr(ax, method)(*xy, **style)
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        path = out_dir / name
        fig.savefig(path, dpi=120)
        plt.close(fig)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run(config: dict, plots: bool = False) -> tuple[int, dict, list[Path]]:
    """Execute one campaign; write report + CSVs; return (exit code, report, files)."""
    kind = config["kind"]
    if kind not in _CAMPAIGNS:
        raise SystemExit(f"unknown kind {kind!r}")
    results, checks = _CAMPAIGNS[kind].run(config["params"])
    report = {
        "schema": SCHEMA,
        "kind": kind,
        "config": _jsonable(config["params"]),
        "results": _jsonable(results),
        "checks": {k: bool(v) for k, v in checks.items()},
        "ok": bool(all(checks.values())),
    }
    out = _out_dir(config)
    json_path = out / f"{kind.replace('-', '_')}_report.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    files = [json_path]
    files += emit_csv(report, out)
    if plots:
        files += _render_plots(report, out)
    summary = " ".join(
        f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in report["checks"].items()
    )
    print(f"[{kind}] {'ok' if report['ok'] else 'FAILED'}: {summary}")
    print(f"[{kind}] report: {json_path}")
    return (0 if report["ok"] else 1), report, files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Heisenberg-group spectral and variational campaigns",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(_CAMPAIGNS))
    for kind in _CAMPAIGNS:
        sp = sub.add_parser(kind, help=f"run the {kind} campaign")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default $HEISLAB_OUT)")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--grid", help="nodes per grid axis, an odd n >= 3")
        sp.add_argument("--tau", type=float, help="vertical frequency")
        sp.add_argument("--lambda", dest="lam", type=float, help="problem parameter")
        sp.add_argument("--plots", action="store_true", help="render static plots")
    args = parser.parse_args(argv)
    file_config = _load_config_file(args.config) if args.config else None
    config = resolve_config(
        args.kind,
        file_config,
        {"seed": args.seed, "out": args.out, "tau": args.tau,
         "lam": args.lam, "grid": args.grid},
    )
    code, _, _ = run(config, plots=args.plots)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs, one round of campaign calls, and their checks.

Each workload builds its inputs from the seed in ``setup`` (imports, config
resolution, grid and problem construction), lists one round of campaign calls
in ``operations`` and checks a round's outputs in ``check``, apart from the
timed interval.  A round is the same list of operations on every seed.
"""

from __future__ import annotations

import numpy as np

import checks

LANDAU_GRID = {"half": 8.0, "counts": 129}
INERTIA_SAMPLES = 6

# criterion 11's reference problem (n = 1, nondegenerate M) on the 17^3 cube
MP_PROBLEM = {
    "p": 2.0, "lam": 50.0, "m0": 1.0, "b": 1.0, "kappa": 1.5,
    "r_g": 3.5, "theta": 3.5, "V": 1.0, "half": 4.0, "count": 17,
}
MP_BUMP_WIDTH = 1.2
SOBOLEV = {"p": 2.0, "half": 4.0, "count": 65, "iters": 200}


class Workload:
    def counters(self, outputs) -> dict:
        """Per-layer counts read from a round's outputs rather than from spans."""
        return {}


class Spectra(Workload):
    """``spectra`` campaigns through ``heislab.cli.run``, one per (tau, m, levels)."""

    def __init__(self, solves):
        self.solves = solves
        self.ops = len(solves)
        self.nodes = LANDAU_GRID["counts"] ** 2

    def setup(self, seed: int, out_dir) -> dict:
        from heislab import cli

        configs = []
        for tau, m, levels in self.solves:
            params = dict(LANDAU_GRID, tau=tau, m=m, levels=levels)
            configs.append(cli.resolve_config(
                "spectra", {"params": params}, {"seed": seed, "out": str(out_dir / f"tau{tau:g}")}
            ))
        return {"cli": cli, "configs": configs, "seed": seed}

    def operations(self, state):
        return [lambda config=config: state["cli"].run(config) for config in state["configs"]]

    def check(self, state, outputs) -> list[str]:
        from heislab.grid import BoxGrid
        from heislab.spectral import assemble_twisted

        fails = []
        half, n = LANDAU_GRID["half"], LANDAU_GRID["counts"]
        grid = BoxGrid((-half, -half), (half, half), (n, n))
        rng = np.random.default_rng(state["seed"])
        for (tau, m, levels), (code, report, _) in zip(self.solves, outputs):
            if code != 0:
                fails.append(f"tau={tau:g}: campaign checks failed: {report['checks']}")
            eigs = report["results"]["eigenvalues"]
            if len(eigs) != m:
                fails.append(f"tau={tau:g}: {len(eigs)} eigenvalues, {m} asked")
                continue
            sample = np.sort(rng.choice(m, size=INERTIA_SAMPLES, replace=False))
            fails += [
                f"tau={tau:g}: {msg}" for msg in checks.check_spectrum(
                    assemble_twisted(tau, grid), checks.twisted_operator(tau, half, n),
                    eigs, tau, report["results"]["ladder"], levels, sample,
                )
            ]
        return fails


class MountainPass(Workload):
    """The calls of the ``solve`` campaign on criterion 11's problem at 17^3."""

    ops = 3
    nodes = MP_PROBLEM["count"] ** 3

    def setup(self, seed: int, out_dir) -> dict:
        from heislab import variational as var
        from heislab.grid import BoxGrid, ScalarField

        P = MP_PROBLEM
        problem = var.KirchhoffProblem(
            n=1, p=P["p"], lam=P["lam"],
            kirchhoff=var.KirchhoffM.nondegenerate(P["m0"], P["b"], P["kappa"]),
            nonlinearity=var.GrowthNonlinearity(r_g=P["r_g"], theta=P["theta"]),
            grid=BoxGrid.cube(P["half"], P["count"], 3),
            potential=P["V"],
        )
        bump = var.dirichlet_field(
            problem.grid,
            lambda *m: np.exp(-sum(c * c for c in m) / (2.0 * MP_BUMP_WIDTH ** 2)),
        )
        v0 = ScalarField(problem.grid, bump.values / var.hw_norm(bump, problem))
        return {"var": var, "ScalarField": ScalarField, "problem": problem, "v0": v0, "seed": seed}

    def operations(self, state):
        var, problem, out = state["var"], state["problem"], {}

        def sobolev():
            out["fs"] = var.folland_stein_constant(problem.grid, problem.p, iters=150, seed=state["seed"])
            out["threshold"] = var.mp_threshold(problem, out["fs"].value)
            return out

        def ray():
            out["ray"] = var.ray_scan(state["v0"], problem, t_max=24.0, steps=200)
            return out

        def solve():
            e = state["ScalarField"](problem.grid, out["ray"]["t_negative"] * state["v0"].values)
            out["mp"] = var.mountain_pass_solve(problem, e, nodes=9, threshold=out["threshold"])
            return out

        return [sobolev, ray, solve]

    def check(self, state, outputs) -> list[str]:
        out = outputs[-1]
        P = MP_PROBLEM
        J = checks.KirchhoffEnergy(
            P["half"], P["count"], P["p"], P["lam"], P["m0"], P["b"], P["kappa"],
            P["r_g"], P["theta"], P["V"],
        )
        ray, mp = out["ray"], out["mp"]
        picks = list(range(20, len(ray["ts"]), 20)) + [ray["ts"].index(ray["t_peak"])]
        ray_energies = {ray["ts"][i]: ray["energies"][i] for i in picks}
        rng = np.random.default_rng(state["seed"])
        direction = rng.standard_normal(J.D.shape)
        direction.ravel()[J.D.ring] = 0.0
        fails = checks.check_mountain_pass(
            J, mp.u_star.values, mp.energy, mp.gradient_norm, mp.gradient_norms[0], ray,
            state["v0"].values, ray_energies, out["fs"].value, direction,
        )
        if not mp.flags["converged"]:
            fails.append("the mountain-pass solve did not converge")
        return fails

    def counters(self, outputs) -> dict:
        return {"variational.mp_iterations": outputs[-1]["mp"].iterations}


class Sobolev(Workload):
    """``folland_stein_constant`` at 65^3 with a fixed iteration budget."""

    ops = 1
    nodes = SOBOLEV["count"] ** 3

    def setup(self, seed: int, out_dir) -> dict:
        from heislab import variational as var
        from heislab.grid import BoxGrid

        return {"var": var, "grid": BoxGrid.cube(SOBOLEV["half"], SOBOLEV["count"], 3), "seed": seed}

    def operations(self, state):
        var = state["var"]
        return [lambda: var.folland_stein_constant(
            state["grid"], SOBOLEV["p"], iters=SOBOLEV["iters"], seed=state["seed"]
        )]

    def check(self, state, outputs) -> list[str]:
        fs = outputs[0]
        D = checks.HeisenbergDifferences(SOBOLEV["half"], SOBOLEV["count"])
        fails = checks.check_folland_stein(D, SOBOLEV["p"], fs.minimizer.values, fs.value, fs.history)
        if fs.iterations != SOBOLEV["iters"] or fs.stagnated:
            fails.append(f"stopped after {fs.iterations} of {SOBOLEV['iters']} iterations")
        return fails


WORKLOADS = {
    "landau": Spectra([(1.0, 490, 3)]),
    "landau-ground": Spectra([(0.5, 60, 1), (2.0, 60, 1)]),
    "mountain-pass": MountainPass(),
    "sobolev-65": Sobolev(),
}

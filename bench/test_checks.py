"""The benchmark's checks accept the program's answers and reject wrong ones.

    python3 -m pytest bench/test_checks.py

Small inputs, so the file runs in about half a minute; the workloads use the
same check functions at full size.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from heislab import variational as var  # noqa: E402
from heislab.grid import BoxGrid, ScalarField  # noqa: E402
from heislab.spectral import assemble_twisted, landau_structure_fit, lowest_eigenvalues  # noqa: E402

HALF, N, TAU, M = 8.0, 65, 0.5, 60


@pytest.fixture(scope="module")
def spectrum():
    grid = BoxGrid((-HALF, -HALF), (HALF, HALF), (N, N))
    op = assemble_twisted(TAU, grid)
    eigs, _ = lowest_eigenvalues(op, M)
    ladder = landau_structure_fit(eigs, TAU, n_levels=1).to_dict()
    return op, checks.twisted_operator(TAU, HALF, N), eigs, ladder


def test_spectrum_accepted(spectrum):
    op, A, eigs, ladder = spectrum
    assert checks.check_spectrum(op, A, eigs, TAU, ladder, 1, np.array([0, 7, M - 1])) == []


def test_dropped_degenerate_copy_rejected(spectrum):
    op, A, eigs, ladder = spectrum
    assert eigs[4] - eigs[3] < 1e-8 * eigs[4]  # a degenerate level
    next_value = lowest_eigenvalues(op, M + 1)[0][M]
    dropped = np.append(np.delete(eigs, 3), next_value)
    fails = checks.check_spectrum(op, A, dropped, TAU, ladder, 1, np.array([0, 7, M - 1]))
    assert any("lie below" in f for f in fails)


def test_other_operator_rejected(spectrum):
    op, _, eigs, ladder = spectrum
    A = checks.twisted_operator(TAU * (1 + 1e-6), HALF, N)
    fails = checks.check_spectrum(op, A, eigs, TAU, ladder, 1, np.array([0]))
    assert any("differs" in f for f in fails)


@pytest.fixture(scope="module")
def mountain_pass():
    work = workloads.MountainPass()
    state = work.setup(0, None)
    ops = work.operations(state)
    out = [op() for op in ops]
    return work, state, out


def test_mountain_pass_accepted(mountain_pass):
    work, state, out = mountain_pass
    assert work.check(state, out) == []


def test_scaled_critical_point_rejected(mountain_pass):
    work, state, out = mountain_pass
    mp = out[-1]["mp"]
    scaled = dict(out[-1], mp=var.MPResult(**{
        **vars(mp), "u_star": ScalarField(mp.u_star.grid, 1.01 * mp.u_star.values),
    }))
    fails = work.check(state, [scaled])
    assert any(f.startswith("J(u*)") and "from the program" in f for f in fails)
    assert any(f.startswith("|grad J(u*)|") and "from the program" in f for f in fails)


def test_folland_stein_value_checked():
    D = checks.HeisenbergDifferences(4.0, 17)
    fs = var.folland_stein_constant(BoxGrid.cube(4.0, 17, 3), 2.0, iters=40, seed=3)
    args = (D, 2.0, fs.minimizer.values)
    assert checks.check_folland_stein(*args, fs.value, fs.history) == []
    fails = checks.check_folland_stein(*args, fs.value * (1 + 1e-8), fs.history)
    assert any("reported" in f for f in fails)

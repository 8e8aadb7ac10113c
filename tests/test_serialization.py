"""Grid equality and hashing, field dtypes, and result-object serialization.

Oracles: a grid rebuilt from the same bounds and counts, the two dtypes a
field stores, and hand-built dataclass instances whose dictionary forms are
spelled out inline.
"""

import dataclasses
import json

import numpy as np
import pytest

from heislab import BoxGrid, ScalarField
from heislab.exceptions import DimensionMismatchError


def _grid3(counts=(9, 7, 5)):
    return BoxGrid((-4.0, -3.0, -2.0), (4.0, 3.0, 6.0), counts)


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------


def test_grid_spacing_is_cached_read_only_and_not_compared():
    # a grid whose spacing was read equals and hashes like a fresh one, so
    # caches keyed by grids (the stencils' coefficient meshes) keep hitting
    grid = _grid3()
    assert grid.spacing == (1.0, 1.0, 2.0)
    assert grid.spacing is grid.spacing
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.spacing = (2.0, 2.0, 2.0)
    assert "spacing" not in {f.name for f in dataclasses.fields(BoxGrid)}
    fresh = BoxGrid(grid.lo, grid.hi, grid.counts)
    assert fresh == grid and hash(fresh) == hash(grid)
    assert fresh.spacing == grid.spacing


def test_scalar_field_coerces_to_float64_or_complex128():
    grid = BoxGrid.cube(1.0, 5, 2)
    assert ScalarField(grid, np.ones(grid.counts, dtype=np.float32)).values.dtype == np.float64
    assert ScalarField(grid, np.ones(grid.counts, dtype=np.int64)).values.dtype == np.float64
    assert ScalarField(grid, np.ones(grid.counts, dtype=np.complex64)).values.dtype == np.complex128
    with pytest.raises(DimensionMismatchError):
        ScalarField(grid, np.ones((5, 3)))


# ---------------------------------------------------------------------------
# result objects to JSON
# ---------------------------------------------------------------------------


def test_ladder_fit_dict_is_json_ready():
    from heislab import LadderFit

    fit = LadderFit(
        kappa0=4.0,
        max_rel_deviation=0.01,
        centers=[4.0, 12.0],
        populations=[30, 30],
        tau=1.0,
        rel_gap_used=0.03,
    )
    text = json.dumps(fit.to_dict())
    back = json.loads(text)
    assert back["kappa0"] == 4.0
    assert back["populations"] == [30, 30]
    assert back["rel_gap_used"] == 0.03


def test_mp_result_dict_is_json_ready():
    from heislab.variational import MPResult

    grid = BoxGrid.cube(1.0, 5, 3)
    res = MPResult(
        u_star=ScalarField(grid, np.zeros(grid.counts)),
        energy=1.5,
        gradient_norm=1e-6,
        energies=[2.0, 1.5],
        gradient_norms=[1.0, 1e-6],
        norms=[1.0, 0.9],
        iterations=2,
        tol=1e-5,
        threshold=2.0,
        stagnated=False,
        flags={"converged": True},
    )
    back = json.loads(json.dumps(res.to_dict()))
    assert back["energy"] == 1.5
    assert back["iterations"] == 2
    assert back["flags"]["converged"] is True
    assert "u_star" not in back  # field payload stays in the .npz container

"""Field-container round trips and result-object serialization.

Oracles: bitwise array comparison after a save/load cycle, the documented
container key set, and hand-built dataclass instances whose dictionary
forms are spelled out inline.
"""

import dataclasses
import json

import numpy as np
import pytest

from heislab import BoxGrid, ScalarField, load_field, save_field


def _grid3(counts=(9, 7, 5)):
    return BoxGrid((-4.0, -3.0, -2.0), (4.0, 3.0, 6.0), counts)


# ---------------------------------------------------------------------------
# ScalarField container
# ---------------------------------------------------------------------------


def test_real_field_round_trip_bitwise(tmp_path):
    grid = _grid3()
    rng = np.random.default_rng(0)
    fld = ScalarField(grid, rng.standard_normal(grid.counts))
    path = tmp_path / "field.npz"
    save_field(fld, path)
    back = load_field(path)
    assert back.grid == grid
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, fld.values)


def test_grid_spacing_is_cached_read_only_and_not_compared(tmp_path):
    # a grid whose spacing was read equals and hashes like a fresh one, so
    # caches keyed by grids (the stencils' coefficient meshes) keep hitting
    grid = _grid3()
    assert grid.spacing == (1.0, 1.0, 2.0)
    assert grid.spacing is grid.spacing
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.spacing = (2.0, 2.0, 2.0)
    assert "spacing" not in {f.name for f in dataclasses.fields(BoxGrid)}
    path = tmp_path / "field.npz"
    save_field(ScalarField(grid, np.zeros(grid.counts)), path)
    back = load_field(path).grid
    assert back == grid and hash(back) == hash(grid)
    assert back.spacing == grid.spacing


def test_complex_field_round_trip_bitwise(tmp_path):
    grid = _grid3((5, 5, 5))
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts)
    fld = ScalarField(grid, vals)
    path = tmp_path / "field.npz"
    save_field(fld, path)
    back = load_field(path)
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values, fld.values)
    assert back.grid.lo == grid.lo and back.grid.hi == grid.hi


def test_round_trip_preserves_coerced_dtype(tmp_path):
    grid = BoxGrid.cube(1.0, 5, 2)
    fld = ScalarField(grid, np.ones(grid.counts, dtype=np.float32))
    assert fld.values.dtype == np.float64  # construction coerces
    path = tmp_path / "f.npz"
    save_field(fld, path)
    assert load_field(path).values.dtype == np.float64


def test_round_trip_noncontiguous_input(tmp_path):
    grid = BoxGrid((-1.0, -2.0), (1.0, 2.0), (5, 7))
    base = np.arange(35, dtype=float).reshape(7, 5).T  # transposed, F-ordered
    fld = ScalarField(grid, base)
    path = tmp_path / "f.npz"
    save_field(fld, path)
    assert np.array_equal(load_field(path).values, base)


def test_container_keys_documented(tmp_path):
    grid = BoxGrid.cube(2.0, 5, 2)
    save_field(ScalarField(grid, np.zeros(grid.counts)), tmp_path / "f.npz")
    with np.load(tmp_path / "f.npz") as data:
        assert set(data.files) == {"format", "lo", "hi", "counts", "values"}
        assert bytes(data["format"]).decode() == "heislab-field-v1"
        assert data["counts"].dtype == np.int64
        assert list(data["lo"]) == [-2.0, -2.0]


def test_load_rejects_unknown_format_tag(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(
        path,
        format=np.bytes_("heislab-field-v0"),
        lo=np.array([-1.0]),
        hi=np.array([1.0]),
        counts=np.array([5]),
        values=np.zeros(5),
    )
    with pytest.raises(ValueError, match="format"):
        load_field(path)


def test_load_rejects_non_container(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, values=np.zeros(5))
    with pytest.raises(KeyError):
        load_field(path)


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

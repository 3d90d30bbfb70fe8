"""Caging verdicts of the fixture objects at CLI defaults, against the grid.

The rasterized search (Rimon & Blake, IJRR 1999) should give the same
verdict on a grid twice as fine, and a contact at rest should not read as
an escape through a narrow gap."""

import warnings

import numpy as np

from multigrip import grasp
from multigrip.config import default_config
from multigrip.modes import build_mode_table
from multigrip.objects import load_object_file
from oracles import (reference_cspace_obstacle, reference_polygon_runs,
                     unpack_bits)

NAMES = ["box", "complex_bracket", "large_cylinder", "small_cylinder", "thin_plate"]
# the pairs whose contact at rest once forced all 72 rotation slices
FORMER_FULL_SEARCHES = [("box", 5), ("box", 8), ("box", 11),
                        ("complex_bracket", 5), ("complex_bracket", 8),
                        ("complex_bracket", 11), ("thin_plate", 5)]


def _classify_fixtures(fixtures_dir, monkeypatch, on_caging=None):
    """Classify each fixture object in every mode at CLI defaults; returns
    {(name, mode): rotation slices built}.  `on_caging(args, kwargs, verdict)`
    sees every caging_test call."""
    cfg = default_config()
    table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    builds = []
    build, cage = grasp._cspace_obstacle, grasp.caging_test

    def caging(*args, **kwargs):
        verdict = cage(*args, **kwargs)
        if on_caging is not None:
            on_caging(args, kwargs, verdict)
        return verdict

    monkeypatch.setattr(grasp, "_cspace_obstacle", lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(grasp, "caging_test", caging)
    slices = {}
    for name in NAMES:
        spec = load_object_file(fixtures_dir / "objects" / f"{name}.object").spec
        for mode in range(1, len(table) + 1):
            builds.clear()
            grasp.classify_grasp(spec, table.entry(mode), face_width=cfg.face_width,
                                 thin_threshold=cfg.thin_object, stroke=cfg.stroke_limit)
            slices[name, mode] = len(builds)
    return slices


def test_no_fixture_classification_warns(fixtures_dir, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error", grasp.CagingResolutionWarning)
        slices = _classify_fixtures(fixtures_dir, monkeypatch)
    assert len(slices) == 60


def test_contact_at_rest_builds_one_slice(fixtures_dir, monkeypatch):
    slices = _classify_fixtures(fixtures_dir, monkeypatch)
    assert {pair: slices[pair] for pair in FORMER_FULL_SEARCHES} == dict.fromkeys(
        FORMER_FULL_SEARCHES, 1)


def test_verdicts_converge_at_half_the_cells(fixtures_dir, monkeypatch):
    cage = grasp.caging_test
    calls = []
    _classify_fixtures(fixtures_dir, monkeypatch,
                       lambda args, kwargs, verdict: calls.append((args, kwargs, verdict)))
    assert len(calls) == 29
    for args, kwargs, verdict in calls:
        assert kwargs == {}   # the defaults: cell=0.5, angle_cell_deg=5.0
        with warnings.catch_warnings():   # nor does the finer grid see a narrow gap
            warnings.simplefilter("error", grasp.CagingResolutionWarning)
            fine = cage(*args, cell=0.25, angle_cell_deg=2.5)
        assert fine is verdict, args[0]


def _mask_runs(mask: np.ndarray) -> np.ndarray:
    """The x-runs (j, i0, i1) of an (nx, ny) boolean grid."""
    runs = []
    for j in range(mask.shape[1]):
        ends = np.flatnonzero(np.diff(np.concatenate([[0], mask[:, j], [0]]).astype(int)))
        runs += [(j, i0, i1) for i0, i1 in zip(ends[::2], ends[1::2])]
    return np.array(runs, dtype=int).reshape(-1, 3)


def test_rest_slices_match_the_array_reference(fixtures_dir, monkeypatch):
    # every caging call's grids, runs and obstacles, against the numpy
    # kernel the bit masks replaced, cell for cell
    checked = {"grids": 0, "runs": 0, "obstacles": 0}
    arange, runs, build = grasp._arange, grasp._polygon_runs, grasp._cspace_obstacle

    def checked_arange(start, stop, step):
        values = arange(start, stop, step)
        assert values == np.arange(start, stop, step).tolist()
        checked["grids"] += 1
        return values

    def checked_runs(polygon, xs, ys):
        got = runs(polygon, xs, ys)
        expected = reference_polygon_runs(np.array(polygon), np.array(xs), np.array(ys))
        assert got == list(map(tuple, expected.tolist()))
        checked["runs"] += 1
        return got

    def checked_build(fingers, footprint, centre, grid):
        blocked = build(fingers, footprint, centre, grid)
        shape = (grid.nx, grid.ny)
        expected = reference_cspace_obstacle(_mask_runs(unpack_bits(fingers[1], shape)),
                                             np.array(footprint), centre, shape)
        assert np.array_equal(unpack_bits(blocked, shape), expected)
        checked["obstacles"] += 1
        return blocked

    monkeypatch.setattr(grasp, "_arange", checked_arange)
    monkeypatch.setattr(grasp, "_polygon_runs", checked_runs)
    monkeypatch.setattr(grasp, "_cspace_obstacle", checked_build)
    slices = _classify_fixtures(fixtures_dir, monkeypatch)
    assert sum(slices.values()) == 29   # the rest slice decides every caging call
    assert checked == {"grids": 58, "runs": 87, "obstacles": 29}

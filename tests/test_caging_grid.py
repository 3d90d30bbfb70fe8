"""Caging verdicts of the fixture objects at CLI defaults, against the grid.

The rasterized search (Rimon & Blake, IJRR 1999) should give the same
verdict on a grid twice as fine, and a contact at rest should not read as
an escape through a narrow gap."""

import warnings

from multigrip import grasp
from multigrip.config import default_config
from multigrip.modes import build_mode_table
from multigrip.objects import load_object_file

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

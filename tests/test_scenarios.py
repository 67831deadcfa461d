import tracemalloc

import numpy as np
import pytest

from erasurekit import (
    assisted_fidelity,
    eraser_curve,
    joint_distribution,
    mutual_information,
    optimize_erasure,
    optimizer,
    preset,
    probes,
    random_ensemble,
    rotation_measurement,
    scenario_curve,
    scenarios,
    teleport_curve,
)
from erasurekit.errors import ParamOutOfRange, UnknownScenario
from erasurekit.scenarios import ERASER_MEMBERS

MIXED = np.eye(2, dtype=complex) / 2


def _hex_rows(rows):
    return [tuple(value.hex() for value in row) for row in rows]


def _eraser_point_by_point(points, seed):
    # the sweep as one measurement, one assisted fidelity and one joint
    # distribution per grid point
    channel = preset("eraser_cnot")
    ens = random_ensemble(MIXED, ERASER_MEMBERS, np.random.default_rng([seed, 0]))
    rows = []
    for theta in np.linspace(0.0, np.pi / 2, points):
        meas = rotation_measurement(theta)
        f_ea = assisted_fidelity(channel, MIXED, meas)
        info = mutual_information(joint_distribution(channel, ens, meas))
        rows.append((float(theta), f_ea, info))
    return rows


class TestEraserCurve:
    def test_matches_closed_form(self):
        rows = eraser_curve(points=33, seed=0)
        assert len(rows) == 33
        for theta, f_ea, _ in rows:
            assert f_ea == pytest.approx((1 + abs(np.sin(2 * theta))) / 2, abs=1e-10)

    def test_endpoints(self):
        rows = eraser_curve(points=33, seed=0)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
        mid = rows[16]
        assert mid[0] == pytest.approx(np.pi / 4, abs=1e-12)
        assert mid[1] == pytest.approx(1.0, abs=1e-12)
        assert mid[2] <= 1e-10

    def test_which_path_point_carries_information(self):
        rows = eraser_curve(points=5, seed=3)
        assert rows[0][2] > 1e-3  # theta = 0 reads out the path

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("points", [2, 33, 1001])
    def test_stacked_sweep_is_the_point_by_point_sweep_bit_for_bit(self, points, seed):
        rows = eraser_curve(points, seed)
        assert all(type(value) is float for row in rows for value in row)
        assert _hex_rows(rows) == _hex_rows(_eraser_point_by_point(points, seed))

    def test_one_joint_distribution_call_for_the_whole_sweep(self, monkeypatch):
        shapes = []

        def spy(members, refined):
            shapes.append(refined.shape)
            return probes._joint(members, refined)

        monkeypatch.setattr(scenarios, "_joint", spy)
        assert len(eraser_curve(1001)) == 1001
        assert shapes == [(1001, 2, 2, 2)]

    def test_the_grid_cap_counts_the_arrays_the_sweep_holds(self):
        points = 20_000
        tracemalloc.start()
        try:
            eraser_curve(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 30 complex entries of 16 B per grid point, and a fixed share for the
        # channel, the ensemble and the state
        assert peak <= 30 * 16 * points + 2**16


class TestTeleportCurve:
    def test_matches_closed_form(self):
        rows = teleport_curve(points=21, seed=0, restarts=2)
        assert len(rows) == 21
        for lam0, f_canonical, f_optimized in rows:
            expected = (1 + 2 * np.sqrt(lam0 * (1 - lam0))) / 2
            assert f_canonical == pytest.approx(expected, abs=1e-10)
            assert f_optimized >= f_canonical - 1e-9

    def test_maximally_entangled_resource(self):
        rows = teleport_curve(points=3, seed=0, restarts=2)
        assert rows[1][0] == pytest.approx(0.5)
        assert rows[1][1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "points, restarts, group", [(21, 8, None), (101, 2, None), (21, 3, 2 * 16)]
    )
    def test_canonical_column_is_the_assisted_fidelity_at_the_identity(
        self, points, restarts, group, monkeypatch
    ):
        # the column is read from restart 0's first trace row; a group of 2
        # teleport ascents (16 entries each) splits every grid point's restarts
        if group is not None:
            monkeypatch.setattr(optimizer, "GROUP_ENTRIES", group)
        rows = teleport_curve(points=points, seed=1, restarts=restarts)
        expected = [
            assisted_fidelity(preset("partial_teleportation", lam0=float(lam0)), MIXED)
            for lam0 in np.linspace(0.0, 1.0, points)
        ]
        assert [row[1].hex() for row in rows] == [value.hex() for value in expected]


def _one_search_per_point(points, seed, restarts):
    rho = np.eye(2, dtype=complex) / 2
    return [
        optimize_erasure(
            preset("partial_teleportation", lam0=float(lam0)), rho, restarts=restarts, seed=seed
        ).best_value
        for lam0 in np.linspace(0.0, 1.0, points)
    ]


class TestTeleportLockstep:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("restarts", [1, 3, 8, 32])
    def test_rows_are_the_separate_searches_bit_for_bit(self, restarts, seed):
        rows = teleport_curve(points=21, seed=seed, restarts=restarts)
        expected = _one_search_per_point(21, seed, restarts)
        assert [row[2].hex() for row in rows] == [value.hex() for value in expected]

    @pytest.mark.parametrize("ascents", [1, 3, 8])
    def test_groups_that_split_the_grid_give_the_same_rows(self, ascents, monkeypatch):
        # a teleport ascent stacks m * max(K, d^2) = 16 complex entries, so a
        # group of 3 or 8 ascents splits the 8 restarts of one grid point,
        # and a group of 1 runs every ascent alone
        restarts, entries = 8, 16
        expected = _one_search_per_point(7, 2, restarts)
        sizes, real_svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            sizes.append(np.asarray(a).size)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(optimizer, "GROUP_ENTRIES", ascents * entries)
        rows = teleport_curve(points=7, seed=2, restarts=restarts)
        assert [row[2].hex() for row in rows] == [value.hex() for value in expected]
        assert sizes and max(sizes) <= ascents * entries

    def test_problems_share_a_group_and_its_starts(self, monkeypatch):
        # 3 restarts on 7 grid points: a group of 8 ascents holds 2 whole
        # points, so each group draws its starts, one Haar start among them, once
        draws, real_starts = [], optimizer._starts

        def recording_starts(restarts, m, kk, seed):
            draws.append(list(restarts))
            return real_starts(restarts, m, kk, seed)

        monkeypatch.setattr(optimizer, "_starts", recording_starts)
        monkeypatch.setattr(optimizer, "GROUP_ENTRIES", 8 * 16)
        rows = teleport_curve(points=7, seed=4, restarts=3)
        assert draws == [[0, 1, 2]] * 4
        expected = _one_search_per_point(7, 4, 3)
        assert [row[2].hex() for row in rows] == [value.hex() for value in expected]

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one(self, restarts):
        with pytest.raises(ParamOutOfRange):
            teleport_curve(points=3, restarts=restarts)


class TestDispatch:
    def test_names(self):
        columns, rows = scenario_curve("eraser", 5, 0)
        assert columns[0] == "theta" and len(rows) == 5
        columns, rows = scenario_curve("teleport", 3, 0, restarts=2)
        assert columns[0] == "lambda0" and len(rows) == 3

    def test_unknown(self):
        with pytest.raises(UnknownScenario):
            scenario_curve("interference", 5, 0)

    def test_teleport_grid_is_capped_by_what_the_sweep_holds(self, monkeypatch):
        # every grid point holds a 4 x 2 x 2 Kraus stack before the search, so
        # 2^20 + 1 points exceed the 2^24-entry cap though the grid alone does not
        def refuse(*args, **kwargs):
            raise AssertionError("built a grid point's channel before the size check")

        monkeypatch.setattr(scenarios, "preset", refuse)
        with pytest.raises(ParamOutOfRange, match="16777232 complex entries"):
            teleport_curve(2**20 + 1)

    def test_eraser_grid_is_capped_by_what_the_sweep_holds(self, monkeypatch):
        # every grid point counts 30 complex entries, the sweep's array peak, so
        # 559,240 points pass the 2^24-entry cap and one more point does not
        def refuse(*args, **kwargs):
            raise AssertionError("built the eraser channel after the size check")

        monkeypatch.setattr(scenarios, "preset", refuse)
        with pytest.raises(AssertionError, match="after the size check"):
            eraser_curve(559_240)
        with pytest.raises(ParamOutOfRange, match="16777230 complex entries"):
            eraser_curve(559_241)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ParamOutOfRange):
            eraser_curve(points=1)

    @pytest.mark.parametrize("name", ["eraser", "teleport"])
    def test_zero_points_is_not_the_default_grid(self, name):
        with pytest.raises(ParamOutOfRange):
            scenario_curve(name, 0)

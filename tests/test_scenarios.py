import numpy as np
import pytest

from erasurekit import eraser_curve, scenario_curve, teleport_curve
from erasurekit.errors import ParamOutOfRange, UnknownScenario


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


class TestDispatch:
    def test_names(self):
        columns, rows = scenario_curve("eraser", 5, 0)
        assert columns[0] == "theta" and len(rows) == 5
        columns, rows = scenario_curve("teleport", 3, 0, restarts=2)
        assert columns[0] == "lambda0" and len(rows) == 3

    def test_unknown(self):
        with pytest.raises(UnknownScenario):
            scenario_curve("interference", 5, 0)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ParamOutOfRange):
            eraser_curve(points=1)

    @pytest.mark.parametrize("name", ["eraser", "teleport"])
    def test_zero_points_is_not_the_default_grid(self, name):
        with pytest.raises(ParamOutOfRange):
            scenario_curve(name, 0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexp import (
    GsdeSpec,
    Kind,
    McConfig,
    Scenario,
    TestFunction,
    VolatilityBand,
    catalog,
    make_drift,
    make_scenario_lattice,
)


class TestVolatilityBand:
    def test_valid(self):
        b = VolatilityBand(0.5, 1.0)
        assert b.v_lo == 0.25 and b.v_hi == 1.0

    @pytest.mark.parametrize(
        "lo,hi",
        [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (0.5, math.inf), (math.inf, math.inf),
         (math.nan, 1.0), (0.5, math.nan),
         # squares outside the float range: v_lo = 1e-400 rounded to 0, and
         # v_hi = 1e400 raised OverflowError
         (1e-200, 1e-200), (1.0, 1e200), (1e-200, 1.0)],
    )
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            VolatilityBand(lo, hi)

    def test_squares_at_the_edge_of_the_float_range(self):
        # the smallest sigma_lo and largest sigma_hi are near 2.2e-162 and 1.3e154
        b = VolatilityBand(1e-160, 1e154)
        assert b.v_lo > 0.0 and math.isfinite(b.v_hi)


class TestScenario:
    def test_qv_constant_unit(self):
        sc = Scenario(VolatilityBand(1.0, 1.0), (0.0, 1.0), (1.0,))
        assert float(sc.qv(1.0)) == 1.0  # v == 1, t=1
        assert float(sc.qv(0.0)) == 0.0

    def test_qv_two_piece_hand_integration(self):
        # v = 0.25 on [0, 0.5), 1 on [0.5, 1]: qv(1) = 0.125 + 0.5 = 0.625
        sc = Scenario(VolatilityBand(0.5, 1.0), (0.0, 0.5, 1.0), (0.25, 1.0))
        assert float(sc.qv(1.0)) == pytest.approx(0.625, abs=1e-15)
        assert float(sc.qv(0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_qv_additive_over_adjacent_intervals(self):
        sc = Scenario(VolatilityBand(0.5, 1.0), (0.0, 0.3, 1.0), (0.5, 0.9))
        ts = np.linspace(0.0, 1.0, 17)
        for s, t_mid, t in zip(ts, ts[1:], ts[2:]):
            left = float(sc.qv(t_mid)) - float(sc.qv(s))
            right = float(sc.qv(t)) - float(sc.qv(t_mid))
            total = float(sc.qv(t)) - float(sc.qv(s))
            assert left + right == pytest.approx(total, abs=1e-14)

    def test_qv_rejects_outside_horizon(self):
        sc = Scenario(VolatilityBand(1.0, 1.0), (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            sc.qv(1.5)
        with pytest.raises(ValueError):
            sc.qv(-0.1)

    def test_value_outside_band_rejected(self):
        with pytest.raises(ValueError):
            Scenario(VolatilityBand(0.5, 1.0), (0.0, 1.0), (2.0,))

    @pytest.mark.parametrize(
        "breakpoints, values, message",
        [((0.5, 1.0), (1.0,), "breakpoints must start at 0 and contain the horizon"),
         ((0.0,), (), "breakpoints must start at 0 and contain the horizon"),
         ((0.0, 1.0), (1.0, 1.0), "need exactly one value per interval"),
         ((0.0, 0.5, 0.5), (1.0, 1.0), "breakpoints must be strictly increasing"),
         ((0.0, math.nan), (1.0,), "breakpoints must be strictly increasing"),
         ((0.0, math.nan, 1.0), (1.0, 1.0), "breakpoints must be strictly increasing"),
         ((0.0, math.inf), (1.0,), "horizon must be finite and positive, got inf"),
         ((0.0, 1.0), (math.nan,), "scenario level outside the governing band")],
        ids=["late-start", "no-horizon", "values-count", "repeated", "nan-horizon",
             "nan-breakpoint", "inf-horizon", "nan-level"],
    )
    def test_invalid_rejected(self, breakpoints, values, message):
        # a NaN breakpoint or level failed no comparison: (0, nan) ran at
        # whatever horizon pbar_mc asked for
        with pytest.raises(ValueError, match=message):
            Scenario(VolatilityBand(0.5, 1.0), breakpoints, values)

    def test_step_levels(self):
        sc = Scenario(VolatilityBand(0.5, 1.0), (0.0, 0.5, 1.0), (0.25, 1.0))
        lv = sc.step_levels(4)
        assert list(lv) == [0.25, 0.25, 1.0, 1.0]

    @given(
        values=st.lists(st.floats(0.25, 1.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_qv_band_sandwich(self, values, data):
        # Exercise the quadratic-variation band property on random scenarios
        n = len(values)
        bp = tuple(np.linspace(0.0, 1.0, n + 1))
        sc = Scenario(VolatilityBand(0.5, 1.0), bp, tuple(values))
        s = data.draw(st.floats(0.0, 1.0))
        t = data.draw(st.floats(s, 1.0))
        inc = float(sc.qv(t)) - float(sc.qv(s))
        assert 0.25 * (t - s) - 1e-12 <= inc <= 1.0 * (t - s) + 1e-12


class TestScenarioLattice:
    def test_degenerate_band_single_scenario(self):
        scs = make_scenario_lattice(VolatilityBand(1.0, 1.0), 1.0, 3, 5)
        assert len(scs) == 1
        assert scs[0].values == (1.0, 1.0, 1.0)

    def test_two_levels_two_pieces(self):
        scs = make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 2, 2)
        assert len(scs) == 4
        seen = {sc.values for sc in scs}
        assert seen == {(0.25, 0.25), (0.25, 1.0), (1.0, 0.25), (1.0, 1.0)}

    def test_three_levels_one_piece(self):
        scs = make_scenario_lattice(VolatilityBand(0.5, 1.0), 2.0, 1, 3)
        assert sorted(sc.values[0] for sc in scs) == [0.25, 0.625, 1.0]
        for sc in scs:
            assert 0.25 * 2.0 - 1e-12 <= float(sc.qv(2.0)) <= 1.0 * 2.0 + 1e-12

    def test_extremes_always_present(self):
        scs = make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 2, 3)
        values = {sc.values for sc in scs}
        assert (0.25, 0.25) in values and (1.0, 1.0) in values

    @pytest.mark.parametrize("levels", [0, 1])
    def test_fewer_than_two_levels_rejected(self, levels):
        # one level kept only the v_lo scenario of a non-degenerate band
        with pytest.raises(ValueError, match="levels >= 2"):
            make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 2, levels)

    def test_cap(self):
        with pytest.raises(ValueError):
            make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 10, 5)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf])
    def test_horizon_rule(self, horizon):
        # the solver's rule; an infinite horizon met a numpy RuntimeWarning
        # and a message about breakpoints
        with pytest.raises(ValueError, match=f"finite and positive, got {horizon}"):
            make_scenario_lattice(VolatilityBand(0.5, 1.0), horizon, 2, 3)


class TestGsdeSpec:
    def test_lipschitz_spot_check_rejects_understated_constant(self):
        with pytest.raises(ValueError):
            GsdeSpec(lambda x: -3.0 * x, 1.0, Kind.QV_DRIVEN)

    @pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
    def test_lipschitz_k_must_be_finite_and_nonnegative(self, k):
        # a NaN K passed, and a certificate read a NaN exponent
        message = f"lipschitz_k must be finite and nonnegative, got {k}"
        with pytest.raises(ValueError, match=message):
            GsdeSpec(np.zeros_like, k, Kind.QV_DRIVEN)

    def test_drift_catalog(self):
        assert make_drift("zero").lipschitz_k == 0.0
        assert make_drift("ou").lipschitz_k == 1.0
        assert make_drift("const:0.7").b(np.zeros(3)).tolist() == [0.7] * 3
        th = make_drift("tanh:2")
        assert th.b(np.array([0.0]))[0] == 0.0
        with pytest.raises(ValueError):
            make_drift("cubic")

    @pytest.mark.parametrize("drift_id", ["tanh:nan", "tanh:inf", "const:nan", "const:-inf"])
    def test_non_finite_parameter_rejected(self, drift_id):
        with pytest.raises(ValueError, match=f"drift '{drift_id}' needs a finite parameter"):
            make_drift(drift_id)

    @pytest.mark.parametrize(
        "drift",
        [lambda x: np.full_like(x, np.nan), lambda x: np.where(np.abs(x) > 3, np.nan, -x),
         lambda x: np.where(x > 0, np.inf, 0.0)],
        ids=["nan", "nan-beyond-3", "inf"],
    )
    def test_non_finite_drift_rejected(self, drift):
        # NaN passed the Lipschitz comparison, which is False for NaN
        with pytest.raises(ValueError, match="drift is not finite at x = "):
            GsdeSpec(drift, 1.0, Kind.QV_DRIVEN)

    def test_broadcasting(self):
        spec = make_drift("const:1.5")
        out = spec.b(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        # a scalar drift is broadcast on the Lipschitz check grid as well
        scalar = GsdeSpec(lambda x: 0.5, 0.0, Kind.TIME_DRIVEN)
        assert scalar.b(np.zeros(3)).tolist() == [0.5] * 3


class TestTestFunction:
    def test_catalog_membership_and_bounds(self):
        cat = catalog()
        assert set(cat) == {"one", "sigmoid", "cauchy", "bump", "sqclip"}
        xs = np.linspace(-50.0, 50.0, 1001)
        for f in cat.values():
            vals = f(xs)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= f.bound + 1e-12)

    def test_power_shift_plus_scale(self):
        f = catalog()["sigmoid"]
        xs = np.linspace(-3.0, 3.0, 7)
        assert np.allclose(f.power(2.0)(xs), f(xs) ** 2)
        assert np.allclose(f.shifted(0.5)(xs), f(xs + 0.5))
        g = catalog()["cauchy"]
        assert np.allclose(f.plus(g)(xs), f(xs) + g(xs))
        assert np.allclose(f.scaled(2.5)(xs), 2.5 * f(xs))

    def test_power_requires_positivity(self):
        neg = TestFunction("neg", lambda x: -np.ones_like(x), positivity=False)
        with pytest.raises(ValueError):
            neg.power(2.0)

    def test_power_bound(self):
        assert catalog()["sqclip"].power(2.0).bound == 625.0
        assert catalog()["sigmoid"].power(300.0).bound == 1.0
        with pytest.raises(ValueError, match=r"the bound 25\^300 of sqclip\^300 overflows"):
            catalog()["sqclip"].power(300.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            catalog()["sigmoid"].scaled(-1.0)


class TestMcConfig:
    def test_positive_steps(self):
        for good in (1, 3, 100, 256):
            McConfig(100, good, 1)
        for bad in (0, -4):
            with pytest.raises(ValueError, match=f"n_steps must be at least 1, got {bad}"):
                McConfig(100, bad, 1)

    def test_positive_paths(self):
        # one path has no standard error: _se read 0 for it
        McConfig(2, 256, 1)
        for bad in (0, 1):
            with pytest.raises(ValueError, match=f"n_paths must be at least 2, got {bad}"):
                McConfig(bad, 256, 1)

    def test_nonnegative_seed(self):
        McConfig(100, 256, 0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            McConfig(100, 256, -1)


class TestPackage:
    def test_all_is_the_module_lists(self):
        import gexp
        from gexp import axioms, core, coupling, gheat, harnack, kernels, simulate

        modules = (core, gheat, simulate, harnack, coupling, kernels, axioms)
        names = [name for mod in modules for name in mod.__all__]
        assert gexp.__all__ == ["__version__", *names]
        assert len(set(names)) == len(names)
        for mod in modules:
            for name in mod.__all__:
                assert getattr(gexp, name) is getattr(mod, name)

    def test_dir_covers_all(self):
        import gexp

        assert set(gexp.__all__) <= set(dir(gexp))

    def test_star_import_binds_every_name(self):
        import gexp

        namespace = {}
        exec("from gexp import *", namespace)
        assert all(name in namespace for name in gexp.__all__)
        assert namespace["harnack_grid"] is gexp.harnack.harnack_grid

    def test_unknown_name_raises(self):
        import gexp

        with pytest.raises(AttributeError, match="no_such_name"):
            gexp.no_such_name

    def test_root_reads_names_through(self, monkeypatch):
        """The root never stores a name it looked up, so a rebound module
        attribute shows through it and its undo does too."""
        import gexp
        from gexp import harnack

        original = harnack.harnack_grid
        assert gexp.harnack_grid is original

        def patched(*args, **kwargs):
            raise AssertionError("never called")

        monkeypatch.setattr(harnack, "harnack_grid", patched)
        assert gexp.harnack_grid is patched
        monkeypatch.undo()
        assert gexp.harnack_grid is original

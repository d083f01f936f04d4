import math
import sys

import numpy as np
import pytest

from gexp import (
    McConfig,
    Scenario,
    VolatilityBand,
    catalog,
    eta_merge_defect,
    eta_schedule,
    make_drift,
    make_scenario_lattice,
    mt_moment_check,
    novikov_pathwise_bound,
    run_coupling,
    run_coupling_suite,
)
from gexp.core import GsdeSpec, Kind
from gexp.simulate import _BLOCK_PATHS


def unit_scenario(horizon=1.0):
    return Scenario(VolatilityBand(1.0, 1.0), (0.0, horizon), (1.0,))


class TestEtaSchedule:
    def test_zero_when_points_coincide(self):
        eta = eta_schedule(unit_scenario(), 1.0, 0.7, 0.7, 1.0, 64)
        assert np.all(eta == 0.0)

    def test_unit_volatility_hand_integration(self):
        # v == 1: eta(t) = e^{-t} * 2 / (1 - e^{-2}) at step midpoints
        n = 64
        eta = eta_schedule(unit_scenario(), 1.0, 1.0, 0.0, 1.0, n)
        t_mid = (np.arange(n) + 0.5) / n
        expected = np.exp(-t_mid) * 2.0 / (1.0 - math.exp(-2.0))
        assert np.allclose(eta, expected, rtol=1e-12)

    def test_merge_defect_small_at_acceptance_steps(self):
        for sc in make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 2, 3):
            assert abs(eta_merge_defect(sc, 1.0, 1.0, 1.0, 4096)) < 1e-6

    def test_merge_defect_quadratic_in_steps(self):
        sc = unit_scenario()
        d1 = abs(eta_merge_defect(sc, 1.0, 1.0, 1.0, 256))
        d2 = abs(eta_merge_defect(sc, 1.0, 1.0, 1.0, 512))
        assert d2 < d1 / 3.0  # midpoint rule is second order

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            eta_schedule(unit_scenario(), 0.0, 1.0, 0.0, 1.0, 64)


class TestNovikovBound:
    def test_degenerate_band_reference_value(self):
        # exponent 2 K d^2 / (1 - e^{-2KT}) for the unit band
        val = novikov_pathwise_bound(1.0, VolatilityBand(1.0, 1.0), 1.0, 1.0)
        assert val == pytest.approx(math.exp(2.0 / (1.0 - math.exp(-2.0))), rel=1e-12)

    def test_discrete_integral_stays_under_bound(self):
        # the deterministic Novikov sum with midpoint eta may not overshoot
        for sc in make_scenario_lattice(VolatilityBand(0.5, 1.0), 1.0, 2, 3) + [
            unit_scenario()
        ]:
            n = 4096
            eta = eta_schedule(sc, 1.0, 1.0, 0.0, 1.0, n)
            dqv = np.diff(sc.qv(np.linspace(0.0, 1.0, n + 1)))
            total = float(np.sum(eta**2 * dqv))
            bound = novikov_pathwise_bound(1.0, sc.band, 1.0, 1.0)
            assert math.exp(total) <= bound * (1.0 + 1e-9), sc.label


class TestRunCoupling:
    def test_same_start_trivial(self):
        rep = run_coupling(
            make_drift("ou"), 0.5, 0.5, 1.0, unit_scenario(),
            McConfig(200, 64, 3), 2.0, catalog()["sigmoid"],
        )
        assert rep.coupling_gap == 0.0
        assert rep.m_mean == 1.0 and rep.m_std_error == 0.0
        assert rep.novikov_pathwise_max == 1.0
        assert rep.girsanov_identity_gap < 1e-12
        ok, info = mt_moment_check(rep)
        assert ok and rep.mt_moment == 1.0

    def test_small_k_limit_driftless_gap_closes(self):
        # b == 0 declared with a tiny Lipschitz constant: eta ~ d/T and the
        # gap ODE integrates to zero by the horizon
        spec = GsdeSpec(lambda x: np.zeros_like(x), 1e-6, Kind.QV_DRIVEN, "zero-eps")
        rep = run_coupling(
            spec, 1.0, 0.0, 1.0, unit_scenario(), McConfig(64, 4096, 5), 2.0,
            catalog()["sigmoid"],
        )
        eta = eta_schedule(unit_scenario(), 1e-6, 1.0, 0.0, 1.0, 8)
        assert np.allclose(eta, 1.0, atol=1e-5)
        assert rep.coupling_gap <= 1e-2

    def test_unit_scenario_full_diagnostics(self):
        rep = run_coupling(
            make_drift("ou"), 1.0, 0.0, 1.0, unit_scenario(),
            McConfig(5000, 1024, 7), 2.0, catalog()["sigmoid"],
        )
        assert rep.coupling_gap <= 1e-2
        assert rep.novikov_pathwise_max <= rep.novikov_bound * (1.0 + 1e-9)
        assert rep.girsanov_identity_gap <= 3.0 * rep.girsanov_std_error
        assert abs(rep.m_mean - 1.0) <= 3.0 * rep.m_std_error
        assert mt_moment_check(rep)[0]

    def test_mt_moment_bound_monotone_in_horizon_degenerate(self):
        reps = [
            run_coupling(
                make_drift("ou"), 1.0, 0.0, t, unit_scenario(t),
                McConfig(8, 64, 1), 2.0, catalog()["sigmoid"],
            ).mt_moment_bound
            for t in (0.5, 1.0, 2.0)
        ]
        assert reps[0] > reps[1] > reps[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_coupling(
                make_drift("ou"), 1.0, 0.0, 1.0, unit_scenario(),
                McConfig(8, 64, 1), 1.0, catalog()["sigmoid"],
            )
        spec = make_drift("zero")  # K = 0
        with pytest.raises(ValueError):
            run_coupling(
                spec, 1.0, 0.0, 1.0, unit_scenario(), McConfig(8, 64, 1), 2.0,
                catalog()["sigmoid"],
            )


class TestSuite:
    def test_batched_matches_per_scenario_reference(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        mc = McConfig(400, 256, 42)
        spec = make_drift("ou")
        suite = run_coupling_suite(spec, 1.0, 0.2, 1.0, scs, mc, 2.0, catalog()["sigmoid"])
        assert [r.scenario for r in suite] == [sc.label for sc in scs]
        for sc, got in zip(scs, suite):
            ref = run_coupling(spec, 1.0, 0.2, 1.0, sc, mc, 2.0, catalog()["sigmoid"])
            assert got.coupling_gap == pytest.approx(ref.coupling_gap, abs=1e-9)
            assert got.m_mean == pytest.approx(ref.m_mean, abs=1e-10)
            assert got.novikov_pathwise_max == pytest.approx(
                ref.novikov_pathwise_max, rel=1e-9
            )
            assert got.girsanov_identity_gap == pytest.approx(
                ref.girsanov_identity_gap, abs=1e-8
            )
            assert got.mt_moment == pytest.approx(ref.mt_moment, rel=1e-9)

    def test_reports_independent_of_workers(self, band_wide):
        # both sweeps span several path blocks, the last one partial, and
        # the two worker counts split the paths into different blocks
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        args = (
            make_drift("ou"), 1.0, 0.0, 1.0, scs, McConfig(2 * _BLOCK_PATHS + 123, 32, 7),
            2.0, catalog()["sigmoid"],
        )
        kw = {"girsanov_paths": 3 * _BLOCK_PATHS + 5}
        one = run_coupling_suite(*args, **kw, workers=1)
        two = run_coupling_suite(*args, **kw, workers=2)
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run_coupling_suite(*args, **kw, workers=5)
        finally:
            sys.setswitchinterval(interval)
        assert len(one) == len(scs)
        assert one == two == many

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_state_reported_for_every_worker_count(self, band_wide):
        # an unstable drift overflows before the first check (step 255)
        spec = GsdeSpec(lambda x: 20000.0 * x, 20000.0, Kind.QV_DRIVEN, "unstable")
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        mc = McConfig(2 * _BLOCK_PATHS, 1024, 9)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="non-finite state at step 255"):
                run_coupling_suite(
                    spec, 5.0, 0.0, 1.0, scs, mc, 2.0, catalog()["sigmoid"],
                    workers=workers,
                )

    def test_separate_girsanov_path_count(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        suite = run_coupling_suite(
            make_drift("ou"), 1.0, 0.0, 1.0, scs, McConfig(200, 128, 11), 2.0,
            catalog()["sigmoid"], girsanov_paths=400,
        )
        for rep in suite:
            assert rep.n_paths == 200
            assert rep.girsanov_identity_gap <= 4.0 * rep.girsanov_std_error

import itertools
import math
import sys

import numpy as np
import pytest

from gexp import (
    McConfig,
    Scenario,
    VolatilityBand,
    catalog,
    eta_schedule,
    make_drift,
    make_scenario_lattice,
    mt_moment_check,
    novikov_pathwise_bound,
    run_coupling_suite,
)
from gexp import coupling, simulate
from gexp.core import GsdeSpec, Kind
from gexp.simulate import _BLOCK_PATHS

from oracles import eta_merge_defect, run_coupling


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

    @pytest.mark.parametrize("horizon", [1e-16, 1e-17])
    def test_horizon_too_short_rejected(self, horizon):
        # 1 - e^{-2 slo^2 K T} rounds to 0: the exponent read 0 at 1e-16
        # and divided by 0 at 1e-17
        with pytest.raises(ValueError, match=f"the horizon {horizon:g} is too short"):
            novikov_pathwise_bound(1.0, VolatilityBand(0.5, 1.0), horizon, 1.0)
        # eta's denominator 1 - e^{-2K qv(T)} rounds to 0 too: eta_schedule
        # returned inf with a RuntimeWarning
        scenario = make_scenario_lattice(VolatilityBand(0.5, 1.0), horizon, 1, 2)[0]
        with pytest.raises(ValueError, match=f"the horizon {horizon:g} is too short"):
            eta_schedule(scenario, 1.0, 1.0, 0.0, horizon, 4)


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
        spec = GsdeSpec(lambda x: np.zeros_like(x), 1e-6, Kind.QV_DRIVEN)
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
        self._check_against_oracle(band_wide, 1.0, 0.2)

    def test_batched_matches_per_scenario_reference_x_below_y(self, band_wide):
        # s0 = sign(x - y) = -1: the one-number forcing and its merge test
        # gap >= -merge_tol
        self._check_against_oracle(band_wide, 0.2, 1.0)

    @staticmethod
    def _check_against_oracle(band_wide, x, y):
        # tanh:2 merges the paths of a row at different steps, so its rows
        # take the masked forcing; ou merges a whole row at one step
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        mc = McConfig(400, 256, 42)
        for drift in ("ou", "tanh:2"):
            spec = make_drift(drift)
            suite = run_coupling_suite(
                spec, x, y, 1.0, scs, mc, 2.0, catalog()["sigmoid"]
            )
            assert [r.scenario for r in suite] == [sc.label for sc in scs]
            for sc, got in zip(scs, suite):
                ref = run_coupling(spec, x, y, 1.0, sc, mc, 2.0, catalog()["sigmoid"])
                assert got.coupling_gap == pytest.approx(ref.coupling_gap, abs=1e-9)
                assert got.m_mean == pytest.approx(ref.m_mean, abs=1e-10)
                assert got.novikov_pathwise_max == pytest.approx(
                    ref.novikov_pathwise_max, rel=1e-9
                )
                assert got.girsanov_identity_gap == pytest.approx(
                    ref.girsanov_identity_gap, abs=1e-8
                )
                assert got.mt_moment == pytest.approx(ref.mt_moment, rel=1e-9)

    def test_time_driven_kind_rejected(self, band_wide):
        spec = GsdeSpec(lambda x: -x, 1.0, Kind.TIME_DRIVEN)
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        with pytest.raises(ValueError, match="targets the qv-driven equation"):
            run_coupling_suite(
                spec, 0.0, 1.0, 1.0, scs, McConfig(100, 16, 1), 2.0, catalog()["sigmoid"],
            )

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_p_at_most_one_rejected_before_the_sweep(self, monkeypatch, band_wide, p):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the p check")

        monkeypatch.setattr(coupling, "_batched_states", no_sweep)
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        with pytest.raises(ValueError, match="p must exceed 1"):
            run_coupling_suite(
                make_drift("ou"), 0.0, 1.0, 1.0, scs, McConfig(100, 16, 1), p,
                catalog()["sigmoid"],
            )

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
        # an unstable drift overflows before the first check (step 255); the
        # points are close enough for e^(Novikov exponent) to be a float
        spec = GsdeSpec(lambda x: 20000.0 * x, 20000.0, Kind.QV_DRIVEN)
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        mc = McConfig(2 * _BLOCK_PATHS, 1024, 9)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="non-finite state at step 255"):
                run_coupling_suite(
                    spec, 5.0, 4.99, 1.0, scs, mc, 2.0, catalog()["sigmoid"],
                    workers=workers,
                )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_state_at_the_horizon(self, band_wide, workers):
        # X overflows within 8 steps, before any periodic check
        spec = GsdeSpec(lambda x: np.full_like(x, 1e308), 1.0, Kind.QV_DRIVEN)
        scs = make_scenario_lattice(band_wide, 4.0, 1, 2)
        with pytest.raises(RuntimeError, match="non-finite state at step 8"):
            run_coupling_suite(
                spec, 0.0, 1.0, 4.0, scs, McConfig(100, 8, 3), 2.0,
                catalog()["sigmoid"], workers=workers,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("j", [1, 2, 4], ids=["gap", "log_m", "Xref"])
    def test_every_state_array_checked_at_the_horizon(
        self, band_wide, monkeypatch, workers, j
    ):
        # a NaN in the last step's gap, log M or Xref, with X finite, fails
        # the sweep instead of reaching the reports
        advance = coupling._advance_block

        def spoil(spec, state, tmp, Z, lo, i0, *rest):
            advance(spec, state, tmp, Z, lo, i0, *rest)
            if i0 + len(Z) == 8:
                state[j][:, 0] = np.nan

        monkeypatch.setattr(coupling, "_advance_block", spoil)
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        with pytest.raises(RuntimeError, match="non-finite state at step 8"):
            run_coupling_suite(
                make_drift("ou"), 0.0, 1.0, 1.0, scs, McConfig(100, 8, 3), 2.0,
                catalog()["sigmoid"], workers=workers,
            )

    def test_drift_may_return_its_argument(self, band_wide):
        # the kernel reads b(X) and b(Y) after writing its scratch arrays, so
        # a drift that hands back its input must give the same reports as one
        # that returns a new array
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        for x, y in ((1.0, 0.0), (0.0, 1.0)):
            reports = [
                run_coupling_suite(
                    GsdeSpec(b, 1.0, Kind.QV_DRIVEN), x, y, 1.0, scs,
                    McConfig(300, 32, 5), 2.0, catalog()["sigmoid"],
                )
                for b in (lambda x: x, lambda x: 1.0 * x)
            ]
            assert reports[0] == reports[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_girsanov_fields_equal_a_girsanov_path_suite(self, band_wide, workers):
        # with girsanov_paths above n_paths the Girsanov fields come from the
        # same sweep as a suite run at girsanov_paths paths
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        n, g = _BLOCK_PATHS + 7, 2 * _BLOCK_PATHS + 123
        args = (make_drift("ou"), 1.0, 0.0, 1.0, scs)
        rest = (2.0, catalog()["sigmoid"])
        split = run_coupling_suite(
            *args, McConfig(n, 32, 13), *rest, girsanov_paths=g, workers=workers
        )
        whole = run_coupling_suite(*args, McConfig(g, 32, 13), *rest, workers=workers)
        for a, b in zip(split, whole, strict=True):
            assert a.girsanov_identity_gap == b.girsanov_identity_gap
            assert a.girsanov_std_error == b.girsanov_std_error

    @pytest.mark.parametrize("n, g", [(300, 1000), (1000, 300), (500, 500)])
    def test_fields_read_leading_paths_of_one_sweep(self, band_wide, n, g):
        # one sweep of max(n, g) paths: the n-path fields are statistics of
        # its first n columns, the Girsanov fields of its first g columns
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        spec, payoff, p = make_drift("ou"), catalog()["sigmoid"], 2.0
        reports = run_coupling_suite(
            spec, 1.0, 0.0, 1.0, scs, McConfig(n, 64, 17), p, payoff,
            girsanov_paths=g,
        )
        X, Y, log_m, Xref, nov_int = coupling._batched_states(
            spec, 1.0, 0.0, 1.0, scs, max(n, g), 64, 17
        )
        for s, rep in enumerate(reports):
            M = np.exp(log_m[s, :n])
            mt_vals = np.exp(2.0 * log_m[s, :n])
            lhs = np.exp(log_m[s, :g]) * payoff(Y[s, :g])
            ref = payoff(Xref[s, :g])
            assert rep.n_paths == n
            assert rep.coupling_gap == float(np.max(np.abs(X[s, :n] - Y[s, :n])))
            assert rep.novikov_pathwise_max == float(np.exp(np.max(nov_int[s, :n])))
            assert rep.m_mean == float(np.mean(M))
            assert rep.m_std_error == simulate._se(M)
            assert rep.mt_moment == float(np.mean(mt_vals))
            assert rep.mt_moment_std_error == simulate._se(mt_vals)
            assert rep.girsanov_identity_gap == abs(
                float(np.mean(lhs)) - float(np.mean(ref))
            )
            assert rep.girsanov_std_error == math.hypot(
                simulate._se(lhs), simulate._se(ref)
            )

    def test_girsanov_path_count_validated(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        # one path has no standard error: every Girsanov check was gap <= 0
        for paths in (0, 1):
            with pytest.raises(ValueError, match=f"girsanov_paths must be at least 2, got {paths}"):
                run_coupling_suite(
                    make_drift("ou"), 1.0, 0.0, 1.0, scs, McConfig(200, 16, 1), 2.0,
                    catalog()["sigmoid"], girsanov_paths=paths,
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


class TestMergedRows:
    """The forcing update skips scenario rows whose paths have all merged,
    takes one forcing number per row, and on rows with some merged paths
    masks those paths out; none of this may change a bit of the state."""

    @pytest.mark.parametrize("drift", ["ou", "tanh:2"])
    def test_states_independent_of_step_batch(self, band_wide, monkeypatch, drift):
        # the rows are sorted once per batch of steps and leave the
        # one-number forcing at the step of their first merge, so each batch
        # length switches them at different points of a batch
        scs = make_scenario_lattice(band_wide, 1.0, 2, 3)
        advance = coupling._advance_block
        mixed = []

        for (x, y), workers in itertools.product([(1.0, 0.0), (0.0, 1.0)], [1, 2]):
            args = (make_drift(drift), x, y, 1.0, scs, 1000, 64, 3)
            live = []

            def spy(spec, state, *rest):
                unmerged = np.count_nonzero(state[1], axis=1)
                live.append(int((unmerged > 0).sum()))
                mixed.append(int(((unmerged > 0) & (unmerged < state[1].shape[1])).sum()))
                advance(spec, state, *rest)

            monkeypatch.setattr(coupling, "_advance_block", spy)
            states = []
            for batch in (1, 2, 4, 8):
                monkeypatch.setattr(simulate, "_STEP_BATCH", batch)
                states.append(
                    [a.tobytes() for a in coupling._batched_states(*args, workers=workers)]
                )
            # the rows merge at different steps, all of them before the horizon
            assert len(set(live)) > 3 and live[-1] == 0
            assert states[0] == states[1] == states[2] == states[3]
        if drift == "tanh:2":
            # some rows start a batch with part of their paths merged: their
            # first merge came before the batch and the masked forcing runs
            assert max(mixed) > 0

    @pytest.mark.parametrize("drift", ["ou", "tanh:2", "identity"])
    @pytest.mark.parametrize("x, y", [(1.0, 0.0), (0.0, 1.0)], ids=["x>y", "x<y"])
    def test_row_forcing_equals_path_forcing(self, band_wide, monkeypatch, drift, x, y):
        # with every live row sent to the masked forcing, as if one path of
        # each had merged, the states keep every bit
        spec = (
            GsdeSpec(lambda z: z, 1.0, Kind.QV_DRIVEN) if drift == "identity"
            else make_drift(drift)
        )
        scs = make_scenario_lattice(band_wide, 1.0, 2, 3)
        args = (spec, x, y, 1.0, scs, 1000, 64, 3)
        calls = {"unmasked": 0}
        force_rows = coupling._force_rows

        def counting(*a):
            calls["unmasked"] += not a[-1]
            return force_rows(*a)

        monkeypatch.setattr(coupling, "_force_rows", counting)
        fast = [a.tobytes() for a in coupling._batched_states(*args, workers=2)]
        assert calls["unmasked"] > 0

        class PerPathOnly:
            """numpy, with no row counted as wholly unmerged."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def count_nonzero(a, axis=None):
                return np.minimum(np.count_nonzero(a, axis=axis), a.shape[1] - 1)

        calls["unmasked"] = 0
        monkeypatch.setattr(coupling, "np", PerPathOnly())
        slow = [a.tobytes() for a in coupling._batched_states(*args, workers=2)]
        assert calls["unmasked"] == 0
        assert fast == slow

    @pytest.mark.parametrize("drift", ["ou", "tanh:2"])
    def test_merged_rows_never_forced(self, band_wide, monkeypatch, drift):
        # with ou every path of a row merges at one step, and the row then
        # took no-op masked forcing passes for the rest of its batch of steps
        force_rows = coupling._force_rows
        calls = {"all": 0, "merged": 0}

        def counting(spec, rows, *rest):
            calls["all"] += 1
            calls["merged"] += int(np.any(np.count_nonzero(rows[1], axis=1) == 0))
            return force_rows(spec, rows, *rest)

        monkeypatch.setattr(coupling, "_force_rows", counting)
        scs = make_scenario_lattice(band_wide, 1.0, 2, 3)
        for (x, y), workers in itertools.product([(1.0, 0.0), (0.0, 1.0)], [1, 2]):
            coupling._batched_states(
                make_drift(drift), x, y, 1.0, scs, 1000, 64, 3, workers=workers
            )
        assert calls["all"] > 0
        assert calls["merged"] == 0

    def test_equal_points_never_force(self, band_wide, monkeypatch):
        # x == y: every gap starts at +0.0, so no row ever takes a forcing
        # update, and the forced process is the reference process
        def never(*args):
            raise AssertionError("a forcing update ran")

        monkeypatch.setattr(coupling, "_force_rows", never)
        scs = make_scenario_lattice(band_wide, 1.0, 2, 3)
        for workers in (1, 2):
            X, Y, log_m, Xref, nov_int = coupling._batched_states(
                make_drift("tanh:2"), 0.5, 0.5, 1.0, scs, 1000, 64, 3, workers=workers
            )
            assert X.tobytes() == Y.tobytes() == Xref.tobytes()
            assert not log_m.any() and not nov_int.any()

    @pytest.mark.parametrize("girsanov_paths", [None, 500])
    def test_same_start_exact(self, band_wide, girsanov_paths):
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        reports = run_coupling_suite(
            make_drift("ou"), 0.5, 0.5, 1.0, scs, McConfig(300, 32, 5), 2.0,
            catalog()["sigmoid"], girsanov_paths=girsanov_paths,
        )
        for rep in reports:
            assert rep.m_mean == 1.0
            assert rep.novikov_pathwise_max == 1.0
            assert rep.coupling_gap == 0.0

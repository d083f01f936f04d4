import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from gexp import (
    Kind,
    McConfig,
    Scenario,
    TestFunction,
    VolatilityBand,
    catalog,
    make_drift,
    make_scenario_lattice,
    pbar_mc,
    pbar_pde,
    run_axioms,
)
from gexp.core import GsdeSpec
from gexp.simulate import _BLOCK_PATHS

from oracles import gnormal_digital, simulate_paths


def unit_scenario(v=1.0, horizon=1.0):
    band = VolatilityBand(math.sqrt(v), math.sqrt(v))
    return Scenario(band, (0.0, horizon), (v,))


class TestSimulatePaths:
    def test_driftless_martingale_mean(self):
        mc = McConfig(20_000, 64, 7)
        xt = simulate_paths(make_drift("zero"), 0.0, unit_scenario(), mc)
        se = np.std(xt, ddof=1) / math.sqrt(mc.n_paths)
        assert abs(np.mean(xt)) <= 4 * se

    def test_driftless_variance_ito_isometry(self):
        v0 = 0.49
        mc = McConfig(20_000, 64, 11)
        xt = simulate_paths(make_drift("zero"), 0.0, unit_scenario(v0), mc)
        var = np.var(xt, ddof=1)
        se = var * math.sqrt(2.0 / (mc.n_paths - 1))  # SE of a Gaussian variance
        assert abs(var - v0 * 1.0) <= 4 * se

    def test_constant_drift_mean(self):
        c, v0 = 0.8, 0.49
        mc = McConfig(20_000, 64, 13)
        xt = simulate_paths(make_drift(f"const:{c}"), 0.5, unit_scenario(v0), mc)
        se = np.std(xt, ddof=1) / math.sqrt(mc.n_paths)
        assert abs(np.mean(xt) - (0.5 + c * v0 * 1.0)) <= 4 * se

    def test_time_driven_constant_drift_mean(self):
        c, v0 = 0.8, 0.49
        spec = dataclasses.replace(make_drift(f"const:{c}"), kind=Kind.TIME_DRIVEN)
        mc = McConfig(20_000, 64, 17)
        xt = simulate_paths(spec, 0.0, unit_scenario(v0), mc)
        se = np.std(xt, ddof=1) / math.sqrt(mc.n_paths)
        assert abs(np.mean(xt) - c * 1.0) <= 4 * se

    def test_seed_reproducibility(self):
        mc = McConfig(100, 64, 23)
        a = simulate_paths(make_drift("ou"), 1.0, unit_scenario(), mc)
        b = simulate_paths(make_drift("ou"), 1.0, unit_scenario(), mc)
        assert np.array_equal(a, b)


class TestPbarMc:
    def test_constant_payoff_exact(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        est = pbar_mc(make_drift("ou"), catalog()["one"], 0.0, 1.0, scs, McConfig(500, 32, 3))
        assert est.value == 1.0
        assert est.argmax_std_error == 0.0

    def test_degenerate_band_matches_pde(self, band_classical):
        spec = make_drift("ou")
        scs = make_scenario_lattice(band_classical, 1.0, 2, 2)
        mc = McConfig(40_000, 256, 5)
        est = pbar_mc(spec, catalog()["sigmoid"], 1.0, 1.0, scs, mc)
        pde = pbar_pde(spec, catalog()["sigmoid"], 1.0, 1.0, band_classical)
        assert abs(est.value - pde) <= max(3 * est.argmax_std_error, 2e-3)

    def test_convex_payoff_argmax_is_upper_extreme(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        est = pbar_mc(
            make_drift("zero"), catalog()["sqclip"], 0.0, 1.0, scs, McConfig(20_000, 64, 9)
        )
        assert est.argmax_scenario == "v=1,1"
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_value_is_max_of_means(self, band_wide):
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        est = pbar_mc(make_drift("ou"), catalog()["cauchy"], 0.0, 1.0, scs, McConfig(2000, 32, 1))
        assert est.value == max(m for m, _ in est.per_scenario)
        assert est.value <= catalog()["cauchy"].bound

    def test_mc_below_pde_plus_budget(self, band_wide):
        # the lattice is a subset of the admissible controls
        spec = make_drift("ou")
        scs = make_scenario_lattice(band_wide, 1.0, 2, 3)
        mc = McConfig(20_000, 256, 29)
        for pid, f in catalog().items():
            est = pbar_mc(spec, f, 0.5, 1.0, scs, mc)
            pde = pbar_pde(spec, f, 0.5, 1.0, band_wide)
            budget = 3 * est.argmax_std_error + 2e-3 * max(1.0, abs(pde))
            assert est.value <= pde + budget, pid

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 3)], ids=["1x2", "2x3", "3x3"])
    def test_open_loop_misses_the_switching_oracle(self, band_wide, shape):
        # every open-loop control leaves X_T centred Gaussian at x0 = 0, so
        # each scenario reads P(X_T >= 0) = 1/2, while the worst case is the
        # feedback of tests/oracles.gnormal_digital: F(0) = 2/3 in this band
        spec = dataclasses.replace(make_drift("zero"), kind=Kind.TIME_DRIVEN)
        digital = TestFunction("digital", lambda x: (x >= 0.0).astype(float))
        scs = make_scenario_lattice(band_wide, 1.0, *shape)
        est = pbar_mc(spec, digital, 0.0, 1.0, scs, McConfig(20_000, 256, 7))
        for mean, se in est.per_scenario:
            assert abs(mean - 0.5) <= 3 * se
        assert abs(est.value - 0.5) <= 3 * est.argmax_std_error
        assert float(gnormal_digital(0.0, band_wide)) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_step_doubling_within_stat_noise(self, band_wide):
        spec = make_drift("ou")
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        a = pbar_mc(spec, catalog()["sigmoid"], 0.0, 1.0, scs, McConfig(20_000, 128, 31))
        b = pbar_mc(spec, catalog()["sigmoid"], 0.0, 1.0, scs, McConfig(20_000, 256, 31))
        for (ma, sa), (mb, sb) in zip(a.per_scenario, b.per_scenario):
            assert abs(ma - mb) <= 4 * math.hypot(sa, sb)

    def test_estimator_axioms_exact_with_crn(self, band_wide):
        spec = make_drift("ou")
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        mc = McConfig(4000, 64, 37)
        cat = catalog()

        def value(f):
            return pbar_mc(spec, f, 0.0, 1.0, scs, mc).value

        # monotone: shared draws make the per-scenario means ordered
        assert value(cat["sigmoid"]) <= value(cat["one"])
        # homogeneity exact to round-off
        lam = 2.5
        assert value(cat["sigmoid"].scaled(lam)) == pytest.approx(
            lam * value(cat["sigmoid"]), abs=1e-11
        )
        # subadditive: max of sums <= sum of maxes
        assert (
            value(cat["sigmoid"].plus(cat["bump"]))
            <= value(cat["sigmoid"]) + value(cat["bump"]) + 1e-11
        )

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ValueError):
            pbar_mc(make_drift("ou"), catalog()["one"], 0.0, 1.0, [], McConfig(10, 16, 1))

    def test_horizon_mismatch_rejected(self, band_wide):
        scs = make_scenario_lattice(band_wide, 2.0, 1, 2)
        with pytest.raises(ValueError):
            pbar_mc(make_drift("ou"), catalog()["one"], 0.0, 1.0, scs, McConfig(10, 16, 1))
        # abs(1 - nan) > 1e-12 is False: a NaN horizon ran, and raised RuntimeError
        with pytest.raises(ValueError, match="scenario horizon differs from the requested"):
            pbar_mc(make_drift("ou"), catalog()["one"], 0.0, math.nan, [unit_scenario()],
                    McConfig(10, 16, 1))


class TestScenarioSweep:
    """pbar_mc advances every scenario on one shared draw per step, in path
    blocks run by worker threads; the per-scenario oracle is simulate_paths."""

    @staticmethod
    def reference(spec, payoff, x0, scenarios, mc):
        per = []
        for sc in scenarios:
            vals = payoff(simulate_paths(spec, x0, sc, mc))
            per.append(
                (float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(mc.n_paths)))
            )
        return tuple(per)

    @pytest.mark.parametrize("kind", [Kind.QV_DRIVEN, Kind.TIME_DRIVEN])
    @pytest.mark.parametrize("drift", ["ou", "tanh:2"])
    @pytest.mark.parametrize("n_paths", [2 * _BLOCK_PATHS + 123, 3])
    def test_per_scenario_equals_simulate_paths(self, band_wide, kind, drift, n_paths):
        # several path blocks, the last one partial, split differently by
        # each worker count; and fewer paths than workers
        spec = dataclasses.replace(make_drift(drift), kind=kind)
        scs = make_scenario_lattice(band_wide, 1.0, 2, 2)
        mc = McConfig(n_paths, 16, 41)
        f = catalog()["sigmoid"]
        ref = self.reference(spec, f, 0.3, scs, mc)
        for workers in (1, 2):
            assert pbar_mc(spec, f, 0.3, 1.0, scs, mc, workers).per_scenario == ref
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = pbar_mc(spec, f, 0.3, 1.0, scs, mc, workers=5)
        finally:
            sys.setswitchinterval(interval)
        assert many.per_scenario == ref

    @pytest.mark.parametrize("kind", [Kind.QV_DRIVEN, Kind.TIME_DRIVEN])
    def test_steps_not_a_power_of_two(self, band_wide, kind):
        # 100 steps: a last batch of normals cut short of 256, and three-piece
        # scenarios whose breakpoints fall between grid nodes
        spec = dataclasses.replace(make_drift("ou"), kind=kind)
        scs = make_scenario_lattice(band_wide, 1.0, 3, 2)
        mc = McConfig(_BLOCK_PATHS + 77, 100, 5)
        f = catalog()["sigmoid"]
        ref = self.reference(spec, f, 0.3, scs, mc)
        for workers in (1, 2):
            assert pbar_mc(spec, f, 0.3, 1.0, scs, mc, workers).per_scenario == ref

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_non_finite_state_reported_for_every_worker_count(self, band_wide):
        # an unstable drift overflows before the first check (step 255)
        spec = GsdeSpec(lambda x: 20000.0 * x, 20000.0, Kind.QV_DRIVEN)
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        mc = McConfig(2 * _BLOCK_PATHS, 1024, 9)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="non-finite state at step 255"):
                pbar_mc(spec, catalog()["sigmoid"], 5.0, 1.0, scs, mc, workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, band_wide, workers):
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            pbar_mc(make_drift("ou"), catalog()["sigmoid"], 0.0, 1.0, scs,
                    McConfig(100, 16, 1), workers)

    def test_small_sweep_on_one_thread(self, band_wide, monkeypatch):
        # at most _BLOCK_PATHS paths are one block on one thread, whatever
        # the worker count; one path more is split across the workers
        from gexp import simulate

        threads = []

        class Spy(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                threads.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Spy)
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        for n in (_BLOCK_PATHS, _BLOCK_PATHS + 1):
            pbar_mc(make_drift("ou"), catalog()["sigmoid"], 0.0, 1.0, scs,
                    McConfig(n, 4, 1), workers=2)
        assert threads == [1, 2]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_paths", [1000, 20000], ids=["one-block", "multi-block"])
    def test_worker_exception_propagates(self, band_wide, workers, n_paths):
        # the drift fails on the sweep's (S, b) blocks, not on the 1-D
        # Lipschitz grid; each worker drains its queue after its failure, and
        # the sweep raises that exception and leaves no thread behind
        def drift(x):
            if np.ndim(x) == 2:
                raise KeyError("drift failed in the sweep")
            return -x

        spec = GsdeSpec(drift, 1.0, Kind.QV_DRIVEN)
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        threads = threading.active_count()
        with pytest.raises(KeyError, match="drift failed in the sweep"):
            pbar_mc(spec, catalog()["sigmoid"], 0.0, 1.0, scs, McConfig(n_paths, 64, 1), workers)
        assert threading.active_count() == threads

    def test_axioms_independent_of_workers(self, band_wide):
        mc = McConfig(2 * _BLOCK_PATHS + 123, 32, 43)
        results = [
            run_axioms(make_drift("ou"), band_wide, mc=mc, workers=w) for w in (1, 2)
        ]
        assert results[0]["all_pass"]
        assert results[0] == results[1]


class TestBlockContract:
    """simulate._sweep_blocks hands each advance kernel one block of b paths:
    its (S, b) views of the state and of the scratch, and its own (k, b)
    columns of the batch of normals."""

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("n", [3, _BLOCK_PATHS, 2 * _BLOCK_PATHS + 123])
    @pytest.mark.parametrize("entry", ["pbar_mc", "_batched_states"])
    def test_kernel_sees_only_its_block(self, band_wide, monkeypatch, entry, n, workers):
        from gexp import coupling, simulate

        m, seed = 6, 29
        scs = make_scenario_lattice(band_wide, 1.0, 1, 2)
        S = len(scs)
        module, name = (
            (simulate, "_advance_terminal") if entry == "pbar_mc"
            else (coupling, "_advance_block")
        )
        kernel = getattr(module, name)
        calls = []

        def spy(spec, views, tmp, Z, i0, *rest):
            b = Z.shape[1]
            assert Z.shape == (min(simulate._STEP_BATCH, m - i0), b)
            assert all(a.shape == (S, b) for a in (*views, *tmp))
            calls.append((i0, views[0].ctypes.data, Z.copy()))
            kernel(spec, views, tmp, Z, i0, *rest)

        monkeypatch.setattr(module, name, spy)
        if entry == "pbar_mc":
            pbar_mc(make_drift("ou"), catalog()["sigmoid"], 0.0, 1.0, scs,
                    McConfig(n, m, seed), workers)
        else:
            coupling._batched_states(
                make_drift("ou"), 1.0, 0.0, 1.0, scs, n, m, seed, workers=workers
            )
        rng = np.random.Generator(np.random.Philox(seed))
        batches = range(0, m, simulate._STEP_BATCH)
        assert sorted({i0 for i0, _, _ in calls}) == list(batches)
        for i0 in batches:
            # the blocks in the order of their state columns (float64, so 8
            # bytes each): each block's normals are the columns of its paths
            blocks = sorted((c for c in calls if c[0] == i0), key=lambda c: c[1])
            starts = [(addr - blocks[0][1]) // 8 for _, addr, _ in blocks]
            widths = [Z.shape[1] for _, _, Z in blocks]
            assert starts == [sum(widths[:j]) for j in range(len(blocks))]
            drawn = rng.standard_normal((min(simulate._STEP_BATCH, m - i0), n))
            assert np.array_equal(np.hstack([Z for _, _, Z in blocks]), drawn)

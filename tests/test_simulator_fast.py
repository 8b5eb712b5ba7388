"""The fast replay paths against the reference event loop.

Every FCFS and SSTF run goes through the columnar serve loop, which must
produce the same scheduling results as the reference event loop
(``fast_path=False``) byte for byte: same decisions, draws and float
operations as the ``service_time`` calls it inlines or makes, cache on
or off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.disk.columnar as columnar_module
import repro.disk.simulator as simulator_module
from repro.disk.faults import moderate_faults
from repro.disk.simulator import DiskSimulator
from repro.disk.timeline import BusyIdleTimeline
from repro.obs import Observer
from repro.synth.profiles import get_profile
from repro.synth.workload import ArrivalSpec, WorkloadProfile
from repro.tier import TierConfig
from repro.traces.millisecond import RequestTrace


@pytest.fixture(scope="module")
def heavy_trace(tiny_spec):
    # Heavy enough that queues build far past any NCQ window.
    return get_profile("database").with_rate(400.0).synthesize(
        8.0, tiny_spec.capacity_sectors, seed=99
    )


@pytest.fixture(scope="module")
def prop_trace(tiny_spec):
    # Small but bursty: enough contention to fill an NCQ window without
    # making 20 hypothesis examples x 2 replays expensive.
    return get_profile("database").with_rate(250.0).synthesize(
        2.0, tiny_spec.capacity_sectors, seed=41
    )


def both_paths(spec, trace, scheduler, queue_depth=None, seed=1):
    fast = DiskSimulator(
        spec, scheduler=scheduler, seed=seed, queue_depth=queue_depth
    ).run(trace)
    reference = DiskSimulator(
        spec, scheduler=scheduler, seed=seed, queue_depth=queue_depth,
        fast_path=False,
    ).run(trace)
    return fast, reference


class TestFastPathEquivalence:
    def test_fcfs_sequential_bit_identical(self, tiny_spec, heavy_trace):
        fast, reference = both_paths(tiny_spec, heavy_trace, "fcfs")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    def test_fcfs_vectorized_matches_event_loop(self, tiny_spec_nocache, heavy_trace):
        fast, reference = both_paths(tiny_spec_nocache, heavy_trace, "fcfs")
        np.testing.assert_array_equal(fast.service_times, reference.service_times)
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        assert np.all(fast.start_times >= heavy_trace.times)

    def test_sstf_sorted_bit_identical(self, tiny_spec, heavy_trace):
        fast, reference = both_paths(tiny_spec, heavy_trace, "sstf")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    def test_sstf_sorted_bit_identical_nocache(self, tiny_spec_nocache, heavy_trace):
        fast, reference = both_paths(tiny_spec_nocache, heavy_trace, "sstf")
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)

    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf", "scan"])
    @pytest.mark.parametrize("depth", [1, 4, 32])
    def test_windowed_scheduling_unchanged(
        self, tiny_spec, heavy_trace, scheduler, depth
    ):
        # Regression for the per-decision sort of an already-sorted NCQ
        # queue: the O(queue_depth) slice must schedule identically.
        fast, reference = both_paths(
            tiny_spec, heavy_trace, scheduler, queue_depth=depth
        )
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.service_times, reference.service_times)


class CountingScheduler:
    """Wraps a scheduler, recording the queue size of every decision."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seen_sizes = []

    def pick(self, queue, head_cylinder):
        self.seen_sizes.append(len(queue))
        return self.inner.pick(queue, head_cylinder)


def test_windowed_decisions_are_queue_depth_bounded(tiny_spec, heavy_trace):
    # The scheduler must never be shown more than queue_depth entries,
    # i.e. per-decision work is O(queue_depth), not O(pending).
    from repro.disk.scheduler import SstfScheduler

    depth = 4
    counting = CountingScheduler(SstfScheduler())
    DiskSimulator(tiny_spec, scheduler=counting, seed=1, queue_depth=depth).run(
        heavy_trace
    )
    assert len(counting.seen_sizes) == len(heavy_trace)
    assert max(counting.seen_sizes) <= depth
    # The trace is bursty enough that the window actually fills.
    assert max(counting.seen_sizes) == depth


class TestVectorizedFcfsProperty:
    """Property: FCFS on a cache-off drive equals the event loop across
    random workload shapes, rates, spans and seeds."""

    @given(
        model=st.sampled_from(["poisson", "bmodel", "onoff"]),
        rate=st.floats(min_value=5.0, max_value=800.0),
        span=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sim_seed=st.integers(min_value=0, max_value=2**31 - 1),
        queue_depth=st.sampled_from([None, 1, 7]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_event_loop(
        self, tiny_spec_nocache, model, rate, span, seed, sim_seed, queue_depth
    ):
        profile = WorkloadProfile(
            name="prop", rate=rate, arrival=ArrivalSpec(model), spatial="zipf"
        )
        trace = profile.synthesize(
            span=span, capacity_sectors=tiny_spec_nocache.capacity_sectors,
            seed=seed,
        )
        fast = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=sim_seed,
            queue_depth=queue_depth,
        ).run(trace)
        reference = DiskSimulator(
            tiny_spec_nocache, scheduler="fcfs", seed=sim_seed,
            queue_depth=queue_depth, fast_path=False,
        ).run(trace)
        np.testing.assert_array_equal(fast.start_times, reference.start_times)
        np.testing.assert_array_equal(fast.finish_times, reference.finish_times)
        # Scheduling invariants hold on the fast path directly.
        assert np.all(fast.start_times >= trace.times)
        if len(trace) > 1:
            order = np.argsort(fast.start_times, kind="stable")
            assert np.all(
                fast.start_times[order][1:]
                >= fast.finish_times[order][:-1] - 1e-9
            )


class TestEngineMatrixProperty:
    """Property: whatever engine the simulator selects for a
    configuration — columnar, sorted-scalar, vectorized, or the event
    loop itself — the replay matches the reference event loop across
    scheduler x cache x faults x seed."""

    @given(
        scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
        queue_depth=st.sampled_from([None, 4]),
        cached=st.booleans(),
        faulty=st.booleans(),
        sim_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_selected_engine_matches_reference(
        self, tiny_spec, tiny_spec_nocache, prop_trace,
        scheduler, queue_depth, cached, faulty, sim_seed,
    ):
        from repro.disk.faults import light_faults

        spec = tiny_spec if cached else tiny_spec_nocache
        faults = light_faults() if faulty else None
        fast = DiskSimulator(
            spec, scheduler=scheduler, seed=sim_seed,
            queue_depth=queue_depth, faults=faults,
        ).run(prop_trace)
        reference = DiskSimulator(
            spec, scheduler=scheduler, seed=sim_seed,
            queue_depth=queue_depth, faults=faults, fast_path=False,
        ).run(prop_trace)
        if scheduler == "fcfs" and not cached and not faulty:
            # The vectorized engine reassociates the start-time
            # recurrence; everything else is decision-for-decision exact.
            np.testing.assert_allclose(
                fast.start_times, reference.start_times, rtol=0, atol=1e-9
            )
            np.testing.assert_allclose(
                fast.service_times, reference.service_times, rtol=0, atol=1e-9
            )
        else:
            np.testing.assert_array_equal(fast.start_times, reference.start_times)
            np.testing.assert_array_equal(
                fast.service_times, reference.service_times
            )
        np.testing.assert_array_equal(fast.failed, reference.failed)
        assert len(fast.fault_events) == len(reference.fault_events)


class TestHookedEngineMatrixProperty:
    """Property: with a tier and a trace-level observer in the matrix too,
    the selected engine matches the reference event loop on timings,
    failures, fault events, tier hits and the ``sim``/``drive`` event
    streams across scheduler x queue depth x cache x faults x seed."""

    @given(
        scheduler=st.sampled_from(["fcfs", "sstf", "scan"]),
        queue_depth=st.sampled_from([None, 4]),
        cached=st.booleans(),
        faulty=st.booleans(),
        tier=st.sampled_from([None, "wb"]),
        obs=st.sampled_from([None, "trace"]),
        sim_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_selected_engine_matches_reference(
        self, tiny_spec, tiny_spec_nocache, prop_trace,
        scheduler, queue_depth, cached, faulty, tier, obs, sim_seed,
    ):
        spec = tiny_spec if cached else tiny_spec_nocache

        def replay(fast_path):
            observer = Observer(obs) if obs else None
            result = DiskSimulator(
                spec, scheduler=scheduler, seed=sim_seed,
                queue_depth=queue_depth,
                faults=moderate_faults() if faulty else None,
                tier=TierConfig(mode=tier) if tier else None,
                obs=observer, fast_path=fast_path,
            ).run(prop_trace)
            streams = {
                source: [
                    (e.kind, e.time, dict(e.data))
                    for e in (observer.events if observer else ())
                    if e.source == source
                ]
                for source in ("sim", "drive")
            }
            return result, streams

        fast, fast_streams = replay(True)
        reference, reference_streams = replay(False)
        if scheduler == "fcfs" and not cached and not faulty and tier is None:
            # The vectorized engine reassociates the start-time recurrence
            # and, having no per-access hook, records no seek events.
            np.testing.assert_allclose(
                fast.start_times, reference.start_times, rtol=0, atol=1e-9
            )
            np.testing.assert_array_equal(
                fast.service_times, reference.service_times
            )
        else:
            np.testing.assert_array_equal(fast.start_times, reference.start_times)
            np.testing.assert_array_equal(
                fast.service_times, reference.service_times
            )
            assert fast_streams == reference_streams
        np.testing.assert_array_equal(fast.failed, reference.failed)
        assert fast.fault_events == reference.fault_events
        if tier:
            np.testing.assert_array_equal(fast.tier_hits, reference.tier_hits)
        else:
            assert fast.tier_hits is None and reference.tier_hits is None


COLUMNAR_ENTRIES = (
    "run_fcfs_columnar", "run_sstf_columnar", "run_sstf_windowed_columnar",
)


@pytest.fixture
def columnar_calls(monkeypatch):
    """Names of the columnar entry points each run goes through, counted
    where the simulator looks them up."""
    calls = []
    for name in COLUMNAR_ENTRIES:
        original = getattr(simulator_module, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(simulator_module, name, counted)
    return calls


class TestColumnarRouting:
    """FCFS and SSTF runs replay through exactly one columnar entry point,
    whatever hooks the device carries; only SCAN and ``fast_path=False``
    bypass them. Cache-off FCFS goes through the same serve loop as
    every other run."""

    HOOKS = {
        "bare": {},
        "faults": {"faults": moderate_faults()},
        "tier": {"tier": TierConfig(mode="wb")},
        "trace-obs": {"obs": "trace"},
    }

    @staticmethod
    def simulator(spec, scheduler, queue_depth=None, fast_path=True, **hooks):
        if hooks.get("obs"):
            hooks["obs"] = Observer(hooks["obs"])
        return DiskSimulator(
            spec, scheduler=scheduler, seed=1, queue_depth=queue_depth,
            fast_path=fast_path, **hooks,
        )

    @pytest.mark.parametrize("hook", sorted(HOOKS))
    @pytest.mark.parametrize(
        "scheduler,queue_depth,entry",
        [
            ("fcfs", None, "run_fcfs_columnar"),
            ("fcfs", 4, "run_fcfs_columnar"),
            ("sstf", None, "run_sstf_columnar"),
            ("sstf", 4, "run_sstf_windowed_columnar"),
        ],
    )
    def test_fcfs_and_sstf_go_through_one_entry(
        self, tiny_spec, prop_trace, columnar_calls,
        hook, scheduler, queue_depth, entry,
    ):
        self.simulator(
            tiny_spec, scheduler, queue_depth, **self.HOOKS[hook]
        ).run(prop_trace)
        assert columnar_calls == [entry]

    @pytest.mark.parametrize("hook", sorted(HOOKS))
    @pytest.mark.parametrize("queue_depth", [None, 4])
    def test_scan_and_reference_runs_bypass_columnar(
        self, tiny_spec, prop_trace, columnar_calls, hook, queue_depth,
    ):
        hooks = self.HOOKS[hook]
        self.simulator(tiny_spec, "scan", queue_depth, **hooks).run(prop_trace)
        for scheduler in ("fcfs", "sstf"):
            self.simulator(
                tiny_spec, scheduler, queue_depth, fast_path=False, **hooks
            ).run(prop_trace)
        assert columnar_calls == []

    @pytest.mark.parametrize("obs", [None, "trace"])
    def test_bare_cache_off_fcfs_stays_vectorized(
        self, tiny_spec_nocache, prop_trace, columnar_calls, obs, monkeypatch,
    ):
        loop_calls = []
        serve_loop = columnar_module._replay

        def counted_loop(*args):
            loop_calls.append(args[-1])
            return serve_loop(*args)

        monkeypatch.setattr(columnar_module, "_replay", counted_loop)
        fast = self.simulator(tiny_spec_nocache, "fcfs", obs=obs).run(prop_trace)
        assert columnar_calls == ["run_fcfs_columnar"]
        assert loop_calls == [None]  # the serve loop, in arrival order
        reference = self.simulator(
            tiny_spec_nocache, "fcfs", fast_path=False, obs=obs
        ).run(prop_trace)
        assert fast.start_times.tobytes() == reference.start_times.tobytes()
        assert fast.service_times.tobytes() == reference.service_times.tobytes()


class TestZeroRequestPipeline:
    """synthesize -> run -> timeline must tolerate n = 0 end to end."""

    def bmodel_profile(self):
        # A rate low enough that a Poisson draw of the request count can
        # (and for seed 0 does) come out as zero.
        return WorkloadProfile(
            name="quiet", rate=0.001, arrival=ArrivalSpec("bmodel")
        )

    def test_bmodel_can_draw_zero_requests(self, tiny_spec):
        profile = self.bmodel_profile()
        trace = profile.synthesize(
            span=5.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        assert len(trace) == 0
        assert trace.span == 5.0

    @pytest.mark.parametrize("scheduler", ["fcfs", "sstf", "scan"])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_empty_trace_simulates_cleanly(
        self, tiny_spec, tiny_spec_nocache, scheduler, fast_path
    ):
        # Every engine handles n = 0 itself: cache off, an NCQ window,
        # and the hooked serve step under faults or a tier.
        profile = self.bmodel_profile()
        trace = profile.synthesize(
            span=5.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        cases = [
            (tiny_spec, {}),
            (tiny_spec_nocache, {}),
            (tiny_spec, {"queue_depth": 4}),
            (tiny_spec, {"faults": moderate_faults()}),
            (tiny_spec, {"tier": TierConfig(mode="wb")}),
        ]
        for spec, options in cases:
            result = DiskSimulator(
                spec, scheduler=scheduler, fast_path=fast_path, **options
            ).run(trace)
            assert result.utilization == 0.0
            assert result.timeline.span == 5.0
            assert result.timeline.n_busy_periods == 0
            assert result.timeline.idle_periods().sum() == pytest.approx(5.0)
            assert result.n_failed == 0
            if "tier" in options:
                assert len(result.tier_hits) == 0

    def test_empty_trace_timeline_direct(self):
        timeline = BusyIdleTimeline([], span=4.0)
        assert timeline.utilization == 0.0
        assert timeline.total_busy == 0.0

    @pytest.mark.parametrize(
        "model", ["poisson", "bmodel", "onoff", "mmpp", "superposed", "fgn"]
    )
    def test_every_arrival_model_synthesizes_at_low_rate(self, tiny_spec, model):
        profile = WorkloadProfile(
            name="quiet", rate=0.001, arrival=ArrivalSpec(model)
        )
        trace = profile.synthesize(
            span=2.0, capacity_sectors=tiny_spec.capacity_sectors, seed=0
        )
        result = DiskSimulator(tiny_spec).run(trace)
        assert len(result.trace) == len(trace)

    def test_empty_trace_remap_path(self, tiny_spec):
        result = DiskSimulator(tiny_spec, remap_lbas=True).run(
            RequestTrace.empty(span=1.0)
        )
        assert result.utilization == 0.0

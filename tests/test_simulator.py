"""Scheduling simulator tests (paper §4.4)."""

import gc
import hashlib
import pickle

import pytest

from repro.bench import PAPER_BENCHMARKS, get_spec, load_benchmark
from repro.core import profile_program, run_layout, single_core_layout
from repro.obs import prof
from repro.runtime.profiler import ProfileData
from repro.schedule.coregroup import task_is_replicable
from repro.schedule.critpath import compute_critical_path, suggest_moves
from repro.schedule.layout import Layout
from repro.schedule import simulator
from repro.schedule.simulator import (
    ExitChooser,
    SimSession,
    _layout_links,
    simulate,
)

from test_search import SMALL_ARGS


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


class TestExitChooser:
    @staticmethod
    def profile_with(task, sequence):
        profile = ProfileData()
        for exit_id in sequence:
            profile.record_invocation(task, exit_id, 10)
        return profile

    def test_single_exit(self):
        profile = self.profile_with("t", [1, 1, 1])
        chooser = ExitChooser(profile)
        assert chooser.choose("t", None) == 1

    def test_sequence_replayed_exactly(self):
        sequence = [2, 2, 2, 1, 2, 2, 3]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        assert [chooser.choose("t", None) for _ in sequence] == sequence

    def test_terminal_exit_at_period_boundary(self):
        # The keyword/merge pattern: 7 continues then one finish.
        sequence = [2] * 7 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(8)]
        assert picks == sequence

    def test_beyond_sequence_falls_back_proportionally(self):
        sequence = [2] * 9 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(30)]
        # After the recorded sequence, the chooser keeps the 9:1 mix.
        assert picks[:10] == sequence
        tail = picks[10:]
        assert tail.count(1) in (1, 2, 3)
        assert tail.count(2) > tail.count(1)

    def test_per_object_hint_tracks_objects_independently(self):
        sequence = [2, 1] * 5
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile, hints={"t": "per_object"})
        first_obj = [chooser.choose("t", 100) for _ in range(2)]
        second_obj = [chooser.choose("t", 200) for _ in range(2)]
        assert first_obj == second_obj


class TestPolicies:
    def test_unknown_exit_policy_is_refused(self, tracking_context):
        compiled, profile = tracking_context
        layout = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        with pytest.raises(ValueError, match="'sequnce'"):
            simulate(compiled, layout, profile, exit_policy="sequnce")
        with pytest.raises(ValueError, match="'sequnce'"):
            ExitChooser(profile, policy="sequnce")

    def test_unknown_hint_policy_is_refused(self, tracking_context):
        compiled, profile = tracking_context
        with pytest.raises(ValueError, match="'per-object' for task 'mergeTracks'"):
            SimSession(compiled, profile, hints={"mergeTracks": "per-object"})


class TestEstimates:
    def test_single_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = single_core_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.05

    def test_multi_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = quad_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.15

    def test_invocation_counts_match_profile(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.invocations == {
            "startup": 1,
            "processText": 6,
            "mergeIntermediateResult": 6,
        }

    def test_simulation_terminates_and_is_finished(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.finished
        assert 0 < result.utilization <= 1

    def test_deterministic(self, keyword_compiled, keyword_profile):
        layout = quad_layout(keyword_compiled)
        first = simulate(keyword_compiled, layout, keyword_profile)
        second = simulate(keyword_compiled, layout, keyword_profile)
        assert first.total_cycles == second.total_cycles


class TestTrace:
    def test_trace_events_well_formed(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.trace
        for event in result.trace:
            assert event.end > event.start
            assert event.data_ready <= event.start
            assert 0 <= event.core < 4

    def test_no_core_overlap(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        for core in range(4):
            events = result.events_on_core(core)
            for before, after in zip(events, events[1:]):
                assert before.end <= after.start

    def test_data_edges_reference_earlier_events(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        by_id = {e.event_id: e for e in result.trace}
        for event in result.trace:
            for producer_id in event.producers:
                if producer_id is not None:
                    assert by_id[producer_id].end <= event.start

    def test_total_is_last_end(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.total_cycles == max(e.end for e in result.trace)


class TestStaleHandling:
    def test_max_events_marks_unfinished(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
            max_events=3,
        )
        assert not result.finished


class TestTagPairing:
    def test_each_drawing_meets_its_own_image(self, tagged_compiled):
        # Two compress cores let Images reach finishsave out of their
        # Drawings' order, so pairing must look past the queue heads.
        profile = profile_program(tagged_compiled, ["12"])
        layout = Layout.make(
            2,
            {"startup": [0], "startsave": [0, 1], "compress": [0, 1],
             "finishsave": [0]},
        )
        result = simulate(tagged_compiled, layout, profile)
        trace = result.trace
        saves = [e for e in trace if e.task == "finishsave"]
        assert result.finished and len(saves) == 12
        for event in saves:
            # The startsave that moved the Drawing allocated the Image
            # that the compress feeding this invocation compressed.
            saved, compressed = event.producers
            assert trace.task[saved] == "startsave"
            assert trace.task[compressed] == "compress"
            assert trace[compressed].producers == [saved]


def trace_data(result):
    """A SimResult's complete observable content, as comparable data."""
    return (
        result.total_cycles,
        result.finished,
        repr(result.utilization),
        sorted(result.core_busy.items()),
        sorted(result.invocations.items()),
        [
            (e.event_id, e.task, e.core, e.start, e.end, e.exit_id,
             e.data_ready, tuple(e.producers))
            for e in result.trace
        ],
    )


@pytest.fixture(scope="module")
def tracking_context():
    compiled = load_benchmark("Tracking")
    profile = profile_program(compiled, SMALL_ARGS["Tracking"])
    return compiled, profile


class TestLinkCosts:
    def test_one_table_per_network_shape(self):
        # Fresh sessions and engines reuse the process's table for a shape.
        mesh = Layout.make(16, {"t": [0]})
        assert _layout_links(mesh) is _layout_links(Layout.make(16, {"t": [9]}))
        ring = Layout.make(16, {"t": [0]}, topology="ring")
        assert _layout_links(ring) is not _layout_links(mesh)

    def test_large_machine_prices_messages_like_the_shared_table(
        self, tracking_context, monkeypatch
    ):
        # Past _SHARED_LINK_CORES an engine prices only the cores in use.
        compiled, profile = tracking_context
        info = compiled.info
        spread = [0, 19, 150, 299]
        layout = Layout.make(300, {
            task: (spread if task != "startup" and task_is_replicable(info, task)
                   else [0])
            for task in info.tasks
        })
        sparse = simulate(compiled, layout, profile)
        monkeypatch.setattr(simulator, "_SHARED_LINK_CORES", 300)
        assert trace_data(simulate(compiled, layout, profile)) == trace_data(sparse)


class TestSessionApi:
    def test_facade_with_session_matches_sessionless(self, tracking_context):
        compiled, profile = tracking_context
        session = SimSession(compiled, profile)
        layout = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        with_session = session.simulate(layout)
        without = simulate(compiled, layout, profile)
        assert trace_data(with_session) == trace_data(without)

    def test_all_public_symbols_import(self):
        import repro
        import repro.schedule
        import repro.search
        import repro.serve

        for module in (repro, repro.schedule, repro.search, repro.serve):
            for name in module.__all__:
                assert not name.startswith("_"), (module.__name__, name)
                assert hasattr(module, name), (module.__name__, name)
        # The session API is part of the top-level surface.
        for name in ("simulate", "SimSession", "SimResult"):
            assert name in repro.__all__
            assert name in repro.schedule.__all__


# -- golden traces ---------------------------------------------------------------

#: Per paper program, at its benchmark inputs, on all_cores_layout(16): the
#: sha256 of repr(trace_data(result)) and the profiler's exact
#: sim.events_processed. Any change to event order, wake-up batching or
#: event counting moves these.
GOLDEN = {
    "Tracking": (
        "ee5170f1c2bd0a456c07819a544d948100b183005288de09467344648f6c3792", 3283
    ),
    "KMeans": (
        "166d7efd6097c99b22b4624f0622abfb7eb5768887e7c67c611aa17194e34c36", 4912
    ),
    "MonteCarlo": (
        "9dc3d396e05f0731e3bab4aa117854206235410e65b9afed3559b39c8aa7d901", 2512
    ),
    "FilterBank": (
        "d49a0323526877fe2096097f429ff0eca56d4deb4337ac2a9da0969dde217c41", 1154
    ),
    "Fractal": (
        "ad25f9cb2aa3847cf783dae1ffca774374981d07932f92ea9e849e3b4e42a805", 3877
    ),
    "Series": (
        "180d54569991eb7a895734b9e2be7a4665848b158fee43d69ef029b09953dbbb", 3877
    ),
}


#: Per paper program, on the same layout: the sha256 of repr() of its
#: critical path (event index, bound and delay per step, then the total)
#: and of the suggest_moves output derived from that path.
GOLDEN_CRITPATH = {
    "Tracking": (
        "2f39c79f49616b89a528bd47faec3d1d75098c98043ea493f90b27aa938abf14",
        "a01076a7191e369920d55363b5b2c80de264d814cf3928f935ff5d3cbfe8adbd",
    ),
    "KMeans": (
        "c7fd5ab570f01ca9228552cee78903aec2ef4cf7b7c92a720d6f0d2c35616a55",
        "7576a8fe0878a0bd9c940cb2bb023fc77b65b65533efe6abb79c863d83b28a29",
    ),
    "MonteCarlo": (
        "688e5c18f600ce36b1fdb3098709bc7be459a397e5da69ac7b6886e540e97908",
        "d6c6e69bf7ce41f4cbd8de5bfb781a27229ac1ec20ec580915e75b0b1f628377",
    ),
    "FilterBank": (
        "347fb98488b9819674a05b9e95dda2e653dd5f8a3cbe874c3c0deb9fbde1c602",
        "32604b67b58a822e567bfee81c64163147ada7615c995036d0f8b55aeac8a47c",
    ),
    "Fractal": (
        "fa8eb264d538434c219d76f66f9107f501e7b871142287f3e80b0bf04051431b",
        "771202491d786289449e8c8bdb22af109bca00979bc814d370865f503384afc0",
    ),
    "Series": (
        "38c7d689ef07c152ec61ed7483557d616c1caad99eabca603f270cfe9fdd6006",
        "cf7933f0d113341f5d9ac45f93ef5efbba0266121bd1b7f68fd40796f58fe2d3",
    ),
}


#: The inputs the six GOLDEN digests leave at their defaults, on the same
#: layouts: the torus and ring interconnects (all three topologies give
#: different traces on every program), uneven core speeds, and the
#: "counts" exit policy (only KMeans differs from "sequence" there).
GOLDEN_TOPOLOGY = {
    ("Tracking", "torus"): (
        "c7bf5d26ae7fbc048ddbcd923b30d29b819d8d7b102392129eb87e7043991af6", 3317
    ),
    ("Tracking", "ring"): (
        "ef1787d060875b9af97dd514ddbcd4132315bbf48e0861848a4c44b3f9d02a77", 3283
    ),
    ("KMeans", "torus"): (
        "55b38d2b347fc721b80a9833d24aa50384cc7b76902d913951a5ca32057b8a1b", 4920
    ),
    ("KMeans", "ring"): (
        "7c3fede196cf161698e3cac367f22d3788fae3ff683912ec69456e0fd9626528", 4882
    ),
    ("MonteCarlo", "torus"): (
        "1e92ef46e000be3797d9185ff6ed42458c1ac999c4641c500b10e22c12107ea9", 2512
    ),
    ("MonteCarlo", "ring"): (
        "c387d498b61c50c12e6040a3b458db06e5361e01d2a03c906f0ba85e548bd65b", 2475
    ),
    ("FilterBank", "torus"): (
        "ce9a78be5291464cbba4dd6ad1b6667165c7c378a2824499f54e6657fb89e9fb", 1162
    ),
    ("FilterBank", "ring"): (
        "64872cd65bb5adf5fc214f6de9f4299d422eb40bd3f53eddf31a4eb095aec663", 1124
    ),
    ("Fractal", "torus"): (
        "9bd6e730192c79d3113ce889ec6ed5dc7854a64eeb3412a6885cf4f82b8dfa9f", 3881
    ),
    ("Fractal", "ring"): (
        "a7a8bcd5826e7ab7ea9fe1760e3a9543d092083535a24390ea67195565209075", 3838
    ),
    ("Series", "torus"): (
        "7f0a4fc1e5a287159ee2c5fc5aadc0b11a4a93ff81d6433ab9e288159c244489", 3881
    ),
    ("Series", "ring"): (
        "b1df2699cbbe362ec747b0a12f73634f07076117c1d16d4c6f750f572ded3f48", 3838
    ),
}

#: Core c runs at SPEEDS[c % 4] times the baseline.
SPEEDS = (0.5, 1.0, 1.5, 2.0)
GOLDEN_SPEEDS = {
    "Tracking": (
        "643351283082c025a880014c6d745169548c3a30440052189186af09962dd808", 1894
    ),
    "KMeans": (
        "8788ad5ce983947613a818881503cad4191d2fe491a1e9c0e5506c1eff74e2d5", 3952
    ),
    "MonteCarlo": (
        "53f9e1436ed305b6c348ad9243436b13d2b823ae6dd8f42c16eafd84cca46593", 1859
    ),
    "FilterBank": (
        "b454b11af0440ecc56d2efe57abf041bd3cbf87af9553337ca639d10edd73971", 867
    ),
    "Fractal": (
        "22e31df3e913f52f59c4282a7365ec39bac93afca41bbacee7e6aad23e46d9b2", 2840
    ),
    "Series": (
        "39c1fea8c43d453deb7ca2e51ff2ee18dbb84aef6ac63f3661ad3fd488820fd6", 2853
    ),
}

#: Tracking on all_cores_layout(32) at SPEEDS: a core on some wake-up's
#: list finishes its queued work and gets more before the wake-up runs,
#: and must still start there.
GOLDEN_REJOINED = (
    "86f378fbac93cd033f9752619697a205827364004a203e7ecd688c06696b23e4", 2130
)

#: Tracking on an 11-core ring: a core gets queued work only after some
#: wake-up was scheduled, is free when it runs, and must not start there.
JOINED_LATE_LAYOUT = (11, {
    "startup": [1],
    "blurStrip": [1, 2, 4, 6, 8],
    "gradientStrip": [2, 3, 4, 5, 6, 8],
    "scoreStrip": [0, 1, 2, 3, 4, 5, 7, 9, 10],
    "collectFeatures": [3],
    "trackFeatures": list(range(11)),
    "mergeTracks": [4],
})
GOLDEN_JOINED_LATE = (
    "a04a9fe8c43d5cb96b5d9f68379b3dd8f13f717ca2f7c9d8c964a32ffb0abf57", 1585
)

GOLDEN_COUNTS_POLICY = {
    "KMeans": (
        "4b12c66adf1d4908ec2c7ba1d8ee21a02f6e43c65ad46af5ba4edb20320b6322", 1217
    ),
}

#: Tracking with the per-object exit hint on both of its multi-exit tasks,
#: on the same layout: the only digest that reaches the hinted exit path.
PER_OBJECT_HINTS = {"collectFeatures": "per_object", "mergeTracks": "per_object"}
GOLDEN_PER_OBJECT = (
    "4e05514cf6f6580922294036b8e8e49b0a1ffe0c5de288a59ef2067f2d7e7d3e", 3154
)

#: Per program, on all_cores_layout(16): the sha256 of repr() of
#: (finished, total_cycles, len(trace), sim.events_processed) for every
#: max_events from 1 to 300, whose cuts fall inside wake-ups that visit
#: several cores and on the first event of a new time.
GOLDEN_BUDGET_SWEEP = {
    "KMeans": "63ba84134279cbc55e0ae704d35e3f9245d333165459007abb40b55f89bcff55",
    "Series": "99790b011f662145e1831b7abd1a4b3b3c0c21a098d9d64b2ad74ca5a1e8e37f",
}

#: Contested-object layouts (tests/conftest.py CONTESTED_SOURCE): peek
#: and take on different cores, so each Item's second invocation is stale.
CONTESTED_LAYOUTS = {
    "two": (2, {"startup": [0], "peek": [0], "take": [1], "tally": [1]}),
    "split": (4, {"startup": [0], "peek": [1], "take": [2], "tally": [3]}),
}
GOLDEN_CONTESTED = {
    "split": (
        "b37b377b50eb8409f2725b902d280eb2a78af35d616506ba80a849ca509b71ab", 52
    ),
    "two": (
        "cd4f2780d9fccef2c27d55d297e782e18ed95977fd94a1326407c8c19236a2dd", 48
    ),
}


def sha256_repr(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def golden_run(compiled, layout, profile, **options):
    """The sha256 of a simulation's trace_data and its exact
    sim.events_processed; the simulation must finish."""
    with prof.profiled() as profiler:
        result = simulate(compiled, layout, profile, **options)
    assert result.finished
    events = profiler.snapshot()["counters"]["sim.events_processed"]
    return sha256_repr(trace_data(result)), events


def budget_sweep(compiled, layout, profile, budgets, **options):
    """The sha256 of every budget's (finished, total_cycles, len(trace),
    sim.events_processed)."""
    outcomes = []
    for max_events in budgets:
        with prof.profiled() as profiler:
            result = simulate(
                compiled, layout, profile, max_events=max_events, **options
            )
        outcomes.append((
            result.finished, result.total_cycles, len(result.trace),
            profiler.snapshot()["counters"]["sim.events_processed"],
        ))
    return sha256_repr(outcomes)


def tracked_reachable(root):
    """How many GC-tracked objects ``root`` reaches, not following into
    classes (an instance refers to its class, and a class to its module)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def all_cores_layout(compiled, num_cores, topology="mesh"):
    """Every replicable task but startup on every core; the rest on core 0."""
    info = compiled.info
    return Layout.make(
        num_cores,
        {
            task: (
                range(num_cores)
                if task != "startup" and task_is_replicable(info, task)
                else [0]
            )
            for task in info.tasks
        },
        topology=topology,
    )


@pytest.fixture(scope="module")
def paper_context():
    contexts = {}

    def get(name):
        if name not in contexts:
            spec = get_spec(name)
            compiled = load_benchmark(name)
            profile = profile_program(compiled, list(spec.args))
            contexts[name] = (compiled, profile, spec.hints)
        return contexts[name]

    return get


class TestGolden:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_trace_digest_and_event_count(self, name, paper_context):
        compiled, profile, hints = paper_context(name)
        layout = all_cores_layout(compiled, 16)
        assert golden_run(compiled, layout, profile, hints=hints) == GOLDEN[name]

    @pytest.mark.parametrize("topology", ["torus", "ring"])
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_topology_digest(self, name, topology, paper_context):
        compiled, profile, hints = paper_context(name)
        layout = all_cores_layout(compiled, 16, topology)
        assert golden_run(compiled, layout, profile, hints=hints) == (
            GOLDEN_TOPOLOGY[name, topology]
        )

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_core_speeds_digest(self, name, paper_context):
        compiled, profile, hints = paper_context(name)
        speeds = {core: SPEEDS[core % 4] for core in range(16)}
        assert golden_run(
            compiled, all_cores_layout(compiled, 16), profile, hints=hints,
            core_speeds=speeds,
        ) == GOLDEN_SPEEDS[name]

    def test_wakeup_starts_a_listed_core_that_rejoined(self, paper_context):
        compiled, profile, hints = paper_context("Tracking")
        speeds = {core: SPEEDS[core % 4] for core in range(32)}
        assert golden_run(
            compiled, all_cores_layout(compiled, 32), profile, hints=hints,
            core_speeds=speeds,
        ) == GOLDEN_REJOINED

    def test_wakeup_skips_a_core_that_joined_late(self, paper_context):
        compiled, profile, hints = paper_context("Tracking")
        layout = Layout.make(*JOINED_LATE_LAYOUT, topology="ring")
        assert golden_run(
            compiled, layout, profile, hints=hints
        ) == GOLDEN_JOINED_LATE

    def test_counts_exit_policy_digest(self, paper_context):
        compiled, profile, hints = paper_context("KMeans")
        assert golden_run(
            compiled, all_cores_layout(compiled, 16), profile, hints=hints,
            exit_policy="counts",
        ) == GOLDEN_COUNTS_POLICY["KMeans"]

    def test_per_object_hints_digest(self, paper_context):
        compiled, profile, _ = paper_context("Tracking")
        assert golden_run(
            compiled, all_cores_layout(compiled, 16), profile,
            hints=PER_OBJECT_HINTS,
        ) == GOLDEN_PER_OBJECT

    @pytest.mark.parametrize("name", sorted(GOLDEN_BUDGET_SWEEP))
    def test_budget_sweep_digest(self, name, paper_context):
        # Each budget either ends the run between two events or partway
        # through a wake-up; total_cycles must count only events the
        # budget let start.
        compiled, profile, hints = paper_context(name)
        assert budget_sweep(
            compiled, all_cores_layout(compiled, 16), profile,
            range(1, 301), hints=hints,
        ) == GOLDEN_BUDGET_SWEEP[name]

    @pytest.mark.parametrize("name", sorted(CONTESTED_LAYOUTS))
    def test_stale_object_is_rerouted(self, name, contested_context):
        # Each Item reaches peek and take; the loser's invocation is stale
        # at dispatch, so its Item is routed again (a second tally
        # delivery) and the Tally paired with a stale Item goes back to its
        # set. Skipping either step moves the digest.
        compiled, profile = contested_context
        layout = Layout.make(*CONTESTED_LAYOUTS[name])
        assert golden_run(compiled, layout, profile) == GOLDEN_CONTESTED[name]

    def test_budget_ends_inside_a_multicore_wakeup(self, paper_context):
        # Event 164 is the 8th of the 10 cores one KMeans wake-up visits;
        # the 9th would start the 26th invocation.
        compiled, profile, hints = paper_context("KMeans")
        result = simulate(
            compiled, all_cores_layout(compiled, 16), profile, hints=hints,
            max_events=164,
        )
        assert (result.finished, result.total_cycles, len(result.trace)) == (
            False, 119588, 25,
        )

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_pickled_trace_keeps_digest(self, name, paper_context):
        compiled, profile, hints = paper_context(name)
        result = simulate(
            compiled, all_cores_layout(compiled, 16), profile, hints=hints
        )
        copy = pickle.loads(pickle.dumps(result))
        assert sha256_repr(trace_data(copy)) == GOLDEN[name][0]

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_critical_path_and_moves_digest(self, name, paper_context):
        compiled, profile, hints = paper_context(name)
        layout = all_cores_layout(compiled, 16)
        result = simulate(compiled, layout, profile, hints=hints)
        path = compute_critical_path(result)
        steps = [(s.event.event_id, s.bound, s.delay) for s in path.steps]
        moves = [
            (m.kind, m.task, m.from_core, m.to_core, m.reason)
            for m in suggest_moves(result, layout, path)
        ]
        assert (
            sha256_repr((steps, path.total)), sha256_repr(moves)
        ) == GOLDEN_CRITPATH[name]

    def test_trace_objects_do_not_grow_with_invocations(self, paper_context):
        # The trace is a fixed set of columns: 25 invocations and a full
        # run reach the same number of GC-tracked objects.
        compiled, profile, hints = paper_context("KMeans")
        layout = all_cores_layout(compiled, 16)
        short = simulate(compiled, layout, profile, hints=hints, max_events=164)
        full = simulate(compiled, layout, profile, hints=hints)
        assert len(short.trace) == 25 < len(full.trace)
        assert tracked_reachable(short.trace) == tracked_reachable(full.trace)

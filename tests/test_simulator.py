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
            for producer_id, _ in event.inputs:
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
        allocated = {
            e.param_objects[0]: e.produced
            for e in result.trace
            if e.task == "startsave"
        }
        saves = [e for e in result.trace if e.task == "finishsave"]
        assert result.finished and len(saves) == 12
        for event in saves:
            drawing, image = event.param_objects
            assert image in allocated[drawing]


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
             e.data_ready, tuple(e.param_objects), tuple(e.inputs),
             tuple(e.produced))
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
        "a3925ac3f3785eedf6748b699d89976a419b1ff3d12cda3a332be7b42a4d8b21", 3283
    ),
    "KMeans": (
        "588ad1d427a29c541d13d28c486607f6d9409d19c391bb4393d8b6b4312f1c16", 4912
    ),
    "MonteCarlo": (
        "2f1b722496583aa7c6795a453def50735833fc8e3051294010c5be2275a358e2", 2512
    ),
    "FilterBank": (
        "9965ca6566b7a869740e9ce44425420bdfc75953b76445a68f767cadca0f68b4", 1154
    ),
    "Fractal": (
        "44b1c1f4a04cf17b6cd0f0b511d2f15b133a299c99fe258f26701886e0342f01", 3877
    ),
    "Series": (
        "e15971e850e0235e5298477996f34da52bcd3cc809d50f003034beb80f013b9d", 3877
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
        "80847c94f29fa5211f8e6346fa124d574aad640e4729c9b9b01b8b7c0c20cf15", 3317
    ),
    ("Tracking", "ring"): (
        "941f9e491ff5d172c084526d39bd1ff4c36932d4eedbb2ed6ac7d61108accfee", 3283
    ),
    ("KMeans", "torus"): (
        "79f3dcf29a7f0dad3c0f1ba73364d5ebed0575fc30445255c4f9694b3cc8a773", 4920
    ),
    ("KMeans", "ring"): (
        "44b20dbb6c660fef2482aead8fa9b756ea161a9e5cd957bc7b1c6dcb22dada96", 4882
    ),
    ("MonteCarlo", "torus"): (
        "8587e8204a4465dc13e98c1b406a865891271d525e72792fa8db4a706cc9bf5d", 2512
    ),
    ("MonteCarlo", "ring"): (
        "2c43cf9cb790e3b42e86193a112411f2754df4d5837a93b2e2b51c48c73b1f28", 2475
    ),
    ("FilterBank", "torus"): (
        "d3556974cc7f4f2a268d4fb6605d27bb452519d57643cd03297abf297004ce42", 1162
    ),
    ("FilterBank", "ring"): (
        "f21569d5618160babb995ed067b658ec6bb1c4deccda8b04ded19b2cf213038f", 1124
    ),
    ("Fractal", "torus"): (
        "4b2e489c15b455273329851fc02013e5b2d187aa04c408fc5004e745e3ec78ed", 3881
    ),
    ("Fractal", "ring"): (
        "c1e9824bcd608047181724decf89f6e68654666f3af5523ba9af6dcc883425f6", 3838
    ),
    ("Series", "torus"): (
        "bca38f6d4f491c3ed068a570f5a241a921b013cd7f2a47f292d0349b0fe720d4", 3881
    ),
    ("Series", "ring"): (
        "05dadce8192132083497dd9e4d62d8a1435e193a5bd229a0e1bad4af42086bd8", 3838
    ),
}

#: Core c runs at SPEEDS[c % 4] times the baseline.
SPEEDS = (0.5, 1.0, 1.5, 2.0)
GOLDEN_SPEEDS = {
    "Tracking": (
        "7d4c368197afef071425b304a7088d5fa6865ffd0d79bcb970f008ce2322c990", 1894
    ),
    "KMeans": (
        "58f0db8443ddf325691314b2be1c5ca0db5a30d26ed4e41b6fce80fba63a6df9", 3952
    ),
    "MonteCarlo": (
        "df72d2f6212789877910cfe533d3e0a82ec353e3dc1fbfc330fa65ea6370c58a", 1859
    ),
    "FilterBank": (
        "7d7dddf676e93389e66d181d61a57aff105558ff9b34b6956b16526c1870bd20", 867
    ),
    "Fractal": (
        "cd6b792bf47cb5d2cba0bfda7033a499a6eacf13810de1e50ffac7ac47943619", 2840
    ),
    "Series": (
        "996598e87366bd72ab52cf26a59d7b2d5e3eeb1f50880f3befdc13dc63b85ff5", 2853
    ),
}

GOLDEN_COUNTS_POLICY = {
    "KMeans": (
        "2f3a268019af7ff2e1b94a87c3c31921b0a336769bce81590860810a9130d2e5", 1217
    ),
}

#: Contested-object layouts (tests/conftest.py CONTESTED_SOURCE): peek
#: and take on different cores, so each Item's second invocation is stale.
CONTESTED_LAYOUTS = {
    "two": (2, {"startup": [0], "peek": [0], "take": [1], "tally": [1]}),
    "split": (4, {"startup": [0], "peek": [1], "take": [2], "tally": [3]}),
}
GOLDEN_CONTESTED = {
    "split": (
        "69efd8aef0618e105b95668577e8cd38e91a2eccdb0570069095a626732eb370", 52
    ),
    "two": (
        "5582ab554f5830d5f483044aae1f89d91f1a6ebe38620aef6ca2adfdfaed7cb2", 48
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

    def test_counts_exit_policy_digest(self, paper_context):
        compiled, profile, hints = paper_context("KMeans")
        assert golden_run(
            compiled, all_cores_layout(compiled, 16), profile, hints=hints,
            exit_policy="counts",
        ) == GOLDEN_COUNTS_POLICY["KMeans"]

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

"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
import string
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.analysis.astate import AState, eval_flag_expr
from repro.bench import PAPER_BENCHMARKS, get_spec, load_benchmark
from repro.core import profile_program
from repro.lang import ast
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import format_expr, format_program
from repro.lang.tokens import TokenKind
from repro.ir.ops import int_div, int_rem
from repro.runtime.profiler import ProfileData
from repro.schedule.coregroup import task_is_replicable
from repro.schedule.critpath import _core_activity, _spare_cores
from repro.schedule.layout import Layout, mesh_hops
from repro.schedule.simulator import SimResult, SimTrace, TraceEvent, simulate

# ---------------------------------------------------------------------------
# Lexer robustness
# ---------------------------------------------------------------------------

printable_text = st.text(
    alphabet=string.ascii_letters + string.digits + string.punctuation + " \t\n",
    max_size=80,
)


@given(printable_text)
@settings(max_examples=200)
def test_lexer_terminates_on_arbitrary_text(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert tokens[-1].kind is TokenKind.EOF
    # Tokens are non-overlapping and in order.
    positions = [
        (t.location.line, t.location.column) for t in tokens[:-1]
    ]
    assert positions == sorted(positions)


identifiers = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True).filter(
    lambda s: s not in {
        "class", "task", "flag", "tag", "taskexit", "new", "in", "with",
        "and", "or", "add", "clear", "if", "else", "while", "for", "return",
        "break", "continue", "true", "false", "null", "int", "float",
        "double", "boolean", "void", "this", "static",
    }
)


@given(identifiers)
def test_identifiers_round_trip_through_lexer(name):
    tokens = tokenize(name)
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == name


# ---------------------------------------------------------------------------
# Expression printer round-trip
# ---------------------------------------------------------------------------


def int_exprs():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=1000).map(lambda v: ast.IntLit(value=v)),
        identifiers.map(lambda n: ast.VarRef(name=n)),
    )

    def extend(children):
        binary = st.tuples(
            st.sampled_from(["+", "-", "*", "/", "%"]), children, children
        ).map(lambda t: ast.Binary(op=t[0], left=t[1], right=t[2]))
        unary = children.map(lambda e: ast.Unary(op="-", operand=e))
        return st.one_of(binary, unary)

    return st.recursive(leaves, extend, max_leaves=12)


@given(int_exprs())
@settings(max_examples=150)
def test_expression_print_parse_round_trip(expr):
    source = (
        "task t(StartupObject s in initialstate) { int x = %s; }"
        % format_expr(expr)
    )
    program = parse_program(source)
    reparsed = program.tasks[0].body.statements[0].init
    assert format_expr(reparsed) == format_expr(expr)


@given(st.lists(identifiers, min_size=1, max_size=4, unique=True))
def test_class_print_parse_fixpoint(flag_names):
    source = "class C { %s }" % " ".join(f"flag {f};" for f in flag_names)
    once = format_program(parse_program(source))
    twice = format_program(parse_program(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Java integer semantics
# ---------------------------------------------------------------------------

nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda v: v != 0)
anyint = st.integers(min_value=-10**6, max_value=10**6)


@given(anyint, nonzero)
def test_int_division_identity(a, b):
    # Java invariant: a == (a / b) * b + (a % b)
    assert int_div(a, b) * b + int_rem(a, b) == a


@given(anyint, nonzero)
def test_int_division_truncates_toward_zero(a, b):
    quotient = int_div(a, b)
    exact = abs(a) // abs(b)
    assert abs(quotient) == exact


@given(anyint, nonzero)
def test_remainder_sign(a, b):
    remainder = int_rem(a, b)
    assert remainder == 0 or (remainder > 0) == (a > 0)
    assert abs(remainder) < abs(b)


# ---------------------------------------------------------------------------
# Abstract states
# ---------------------------------------------------------------------------

flag_sets = st.sets(st.sampled_from("abcdef"), max_size=5)


@given(flag_sets, flag_sets)
def test_astate_with_flags_idempotent(base, updates):
    state = AState.make(base)
    update_map = {f: True for f in updates}
    once = state.with_flags(update_map)
    twice = once.with_flags(update_map)
    assert once == twice


@given(flag_sets, st.sampled_from("abcdef"))
def test_astate_set_then_clear_is_removal(flags, flag):
    state = AState.make(flags)
    result = state.with_flags({flag: True}).with_flags({flag: False})
    assert flag not in result.flags
    assert result.flags == state.flags - {flag}


@given(flag_sets)
def test_flag_expr_evaluation_matches_python(flags):
    state = AState.make(flags)
    expr = ast.FlagOr(
        ast.FlagAnd(ast.FlagRef("a"), ast.FlagNot(ast.FlagRef("b"))),
        ast.FlagRef("c"),
    )
    expected = ("a" in flags and "b" not in flags) or ("c" in flags)
    assert eval_flag_expr(expr, state) == expected


@given(st.integers(0, 5), st.lists(st.integers(-1, 1), max_size=8))
def test_tag_counts_stay_one_limited(initial, deltas):
    state = AState.make([], {"t": initial})
    for delta in deltas:
        state = state.with_tag_delta("t", delta)
        assert 0 <= state.tag_count("t") <= 2


# ---------------------------------------------------------------------------
# Layouts and mesh
# ---------------------------------------------------------------------------


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_mesh_hops_triangle_inequality(a, b, c):
    assert mesh_hops(a, c, 8) <= mesh_hops(a, b, 8) + mesh_hops(b, c, 8)


@given(
    st.dictionaries(
        st.sampled_from(["t1", "t2", "t3"]),
        st.sets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    st.randoms(use_true_random=False),
)
def test_canonical_key_invariant_under_core_permutation(mapping, rng):
    layout = Layout.make(8, mapping)
    permutation = list(range(8))
    rng.shuffle(permutation)
    renamed = Layout.make(
        8, {t: [permutation[c] for c in cores] for t, cores in mapping.items()}
    )
    assert layout.canonical_key() == renamed.canonical_key()


def _reference_canonical_key(layout):
    """``Layout.canonical_key`` without relying on ``make`` ordering
    ``instances`` by task name: it sorts each core's tasks itself."""
    per_core = {}
    for task, cores in layout.instances:
        for core in cores:
            per_core.setdefault(core, []).append(task)
    return tuple(sorted(tuple(sorted(tasks)) for tasks in per_core.values()))


@given(
    st.integers(1, 16),
    st.dictionaries(
        st.text(alphabet="abAB_0", min_size=1, max_size=4),
        st.sets(st.integers(0, 15), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=200)
def test_canonical_key_matches_the_sorting_reference(num_cores, mapping):
    layout = Layout.make(
        num_cores,
        {
            task: [core % num_cores for core in cores]
            for task, cores in mapping.items()
        },
    )
    assert layout.canonical_key() == _reference_canonical_key(layout)


# ---------------------------------------------------------------------------
# Simulated traces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _paper_context(name):
    spec = get_spec(name)
    compiled = load_benchmark(name)
    return compiled, profile_program(compiled, list(spec.args)), spec.hints


@given(
    st.sampled_from(PAPER_BENCHMARKS),
    st.integers(2, 8),
    st.sampled_from(["mesh", "torus", "ring"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_data_edges_end_before_the_consumer_data_is_ready(
    name, num_cores, topology, rng
):
    # An object leaves its producer at the producer's end and arrives no
    # earlier, so every input's producer ended by the consumer's
    # data_ready, on any layout and network.
    compiled, profile, hints = _paper_context(name)
    info = compiled.info
    mapping = {}
    for task in sorted(info.tasks):
        if task != "startup" and task_is_replicable(info, task):
            mapping[task] = rng.sample(range(num_cores), rng.randint(1, num_cores))
        else:
            mapping[task] = [rng.randrange(num_cores)]
    layout = Layout.make(num_cores, mapping, topology=topology)
    trace = simulate(compiled, layout, profile, hints=hints).trace
    low = 0
    for consumer, high in enumerate(trace.param_end):
        for producer in trace.producer[low:high]:
            if producer >= 0:
                assert trace.end[producer] <= trace.data_ready[consumer]
        low = high


@given(
    # per core, each busy interval as (idle gap before it, duration)
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8
        ),
        max_size=6,
    ),
    st.integers(-3, 120),
    st.integers(-3, 120),
)
@settings(max_examples=300, deadline=None)
def test_spare_cores_by_bisection_match_the_full_scan(per_core, start, end):
    # A core's intervals are disjoint and in start order, as a core
    # dispatches only when it is free; the window may be empty.
    intervals = {}
    for core, spans in enumerate(per_core):
        clock = 0
        for gap, duration in spans:
            clock += gap
            intervals.setdefault(core, []).append((clock, clock + duration))
            clock += duration
    events = sorted(
        (s, e, core) for core, spans in intervals.items() for s, e in spans
    )
    trace = SimTrace.from_events(
        TraceEvent(event_id=i, task="t", core=core, start=s, end=e,
                   exit_id=1, data_ready=s, producers=[])
        for i, (s, e, core) in enumerate(events)
    )
    result = SimResult(
        total_cycles=max((e for _, e, _ in events), default=0),
        finished=True, trace=trace, core_busy={}, invocations={},
        utilization=0.0,
    )
    num_cores = len(per_core) + 2  # two cores never busy
    reference = [
        core
        for core in range(num_cores)
        if not any(s < end and start < e for s, e in intervals.get(core, ()))
    ]
    activity, _ = _core_activity(result)
    assert list(_spare_cores(activity, num_cores, start, end)) == reference


# ---------------------------------------------------------------------------
# Profile statistics
# ---------------------------------------------------------------------------

profile_events = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.integers(0, 3),
        st.integers(1, 10_000),
        st.dictionaries(st.integers(0, 4), st.integers(1, 5), max_size=2),
    ),
    max_size=30,
)


@given(profile_events)
def test_exit_probabilities_sum_to_one(events):
    profile = ProfileData()
    for task, exit_id, cycles, allocs in events:
        profile.record_invocation(task, exit_id, cycles, allocs)
    for task in profile.task_names():
        total = sum(
            profile.exit_probability(task, e) for e in profile.exit_ids(task)
        )
        assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Optimizer differential testing: optimized programs behave identically
# ---------------------------------------------------------------------------


def _literal_int_exprs():
    leaves = st.integers(min_value=-50, max_value=50).map(
        lambda v: ast.IntLit(value=v)
    )

    def extend(children):
        return st.tuples(
            st.sampled_from(["+", "-", "*", "/", "%"]), children, children
        ).map(lambda t: ast.Binary(op=t[0], left=t[1], right=t[2]))

    return st.recursive(leaves, extend, max_leaves=10)


@given(_literal_int_exprs())
@settings(max_examples=120, deadline=None)
def test_optimizer_preserves_expression_semantics(expr):
    from repro.core import compile_program, run_sequential
    from repro.lang.errors import RuntimeBambooError

    text = format_expr(expr)
    source = (
        "class SeqMain { SeqMain() { } void run(String[] args) "
        "{ int x = %s; System.printInt(x); } } "
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }" % text
    )
    plain = compile_program(source)
    fast = compile_program(source, optimize=True)

    def outcome(compiled):
        try:
            result = run_sequential(compiled, ["0"])
            return ("ok", result.stdout)
        except RuntimeBambooError:
            return ("fault", None)

    plain_outcome = outcome(plain)
    fast_outcome = outcome(fast)
    assert plain_outcome == fast_outcome

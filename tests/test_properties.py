"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
import string

from hypothesis import given, settings, strategies as st

from repro.analysis.astate import AState, eval_flag_expr
from repro.lang import ast
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import format_expr, format_program
from repro.lang.tokens import TokenKind
from repro.ir.ops import int_div, int_rem
from repro.runtime.profiler import ProfileData
from repro.schedule.layout import Layout, mesh_hops

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
    result = state.with_flag(flag, True).with_flag(flag, False)
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


# ---------------------------------------------------------------------------
# Profile serialization
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
def test_profile_serialization_round_trip(events):
    profile = ProfileData()
    for task, exit_id, cycles, allocs in events:
        profile.record_invocation(task, exit_id, cycles, allocs)
    restored = ProfileData.from_dict(profile.to_dict())
    assert restored.to_dict() == profile.to_dict()
    for task, _, _, _ in events:
        assert restored.invocations(task) == profile.invocations(task)
        assert restored.exit_sequence(task) == profile.exit_sequence(task)


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

"""Abstract state and guard evaluation tests."""

from repro.analysis.astate import (
    AState,
    eval_flag_expr,
    guard_matches,
    runtime_guard_matches,
    state_of_object,
)
from repro.lang import ast
from repro.runtime.objects import BObject, TagInstance


def flag_param(guard, tag_guards=()):
    return ast.TaskParam(
        param_type=ast.TypeNode("X"),
        name="x",
        guard=guard,
        tag_guards=list(tag_guards),
    )


class TestAState:
    def test_make_normalizes_tags(self):
        state = AState.make(["a"], {"t": 5, "u": 0})
        assert state.tag_count("t") == 2  # 1-limited: "at least 2"
        assert state.tag_count("u") == 0
        assert state.tags == (("t", 2),)

    def test_equality_and_hash(self):
        a = AState.make(["x", "y"])
        b = AState.make(["y", "x"])
        assert a == b
        assert hash(a) == hash(b)

    def test_with_flags_batch(self):
        state = AState.make(["a", "b"])
        updated = state.with_flags({"a": False, "c": True})
        assert updated.flags == frozenset({"b", "c"})

    def test_with_tag_delta_saturates(self):
        state = AState.make([], {"t": 1})
        assert state.with_tag_delta("t", 1).tag_count("t") == 2
        assert state.with_tag_delta("t", 1).with_tag_delta("t", 1).tag_count("t") == 2
        assert state.with_tag_delta("t", -1).tag_count("t") == 0
        assert state.with_tag_delta("t", -5).tag_count("t") == 0

    def test_label_deterministic(self):
        assert AState.make(["b", "a"]).label() == "{a,b}"
        assert AState.make([]).label() == "{}"

    def test_ordering_defined(self):
        states = sorted([AState.make(["b"]), AState.make(["a"])])
        assert states[0].flags == frozenset({"a"})


class TestFlagExprEval:
    def test_ref_and_const(self):
        state = AState.make(["ready"])
        assert eval_flag_expr(ast.FlagRef("ready"), state)
        assert not eval_flag_expr(ast.FlagRef("done"), state)
        assert eval_flag_expr(ast.FlagConst(True), state)
        assert not eval_flag_expr(ast.FlagConst(False), state)

    def test_not_and_or(self):
        state = AState.make(["a"])
        expr = ast.FlagOr(
            ast.FlagAnd(ast.FlagRef("a"), ast.FlagNot(ast.FlagRef("b"))),
            ast.FlagRef("c"),
        )
        assert eval_flag_expr(expr, state)
        assert not eval_flag_expr(expr, AState.make(["b"]))

    def test_guard_with_tags(self):
        param = flag_param(
            ast.FlagRef("ready"), [ast.TagGuard(tag_type="grp", binding="g")]
        )
        assert not guard_matches(param, AState.make(["ready"]))
        assert guard_matches(param, AState.make(["ready"], {"grp": 1}))


class TestRuntimeStates:
    def test_state_of_object(self):
        obj = BObject(obj_id=1, class_name="X", fields=[])
        obj.set_flag("a", True)
        tag = TagInstance(tag_id=0, tag_type="grp")
        obj.bind_tag(tag)
        state = state_of_object(obj)
        assert state.flags == frozenset({"a"})
        assert state.tag_count("grp") == 1

    def test_runtime_guard_matches(self):
        obj = BObject(obj_id=1, class_name="X", fields=[])
        obj.set_flag("ready", True)
        assert runtime_guard_matches(flag_param(ast.FlagRef("ready")), obj)
        obj.set_flag("ready", False)
        assert not runtime_guard_matches(flag_param(ast.FlagRef("ready")), obj)

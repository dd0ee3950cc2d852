"""Abstract syntax tree for the Bamboo language.

The AST mirrors the grammar in Figure 5 of the paper plus the Java-like
imperative subset used inside task and method bodies. All nodes carry a
:class:`~repro.lang.errors.SourceLocation` for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import SourceLocation, UNKNOWN_LOCATION


# ---------------------------------------------------------------------------
# Types (syntactic). Semantic types live in repro.sema.types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeNode:
    """A syntactic type: a base name plus array dimensions.

    ``name`` is one of ``int``, ``float``, ``boolean``, ``String``, ``void``
    or a class name; ``dims`` counts trailing ``[]`` pairs.
    """

    name: str
    dims: int = 0

    def __str__(self) -> str:
        return self.name + "[]" * self.dims


# ---------------------------------------------------------------------------
# Flag and tag expressions (task parameter guards)
# ---------------------------------------------------------------------------


class FlagExpr:
    """Base class for boolean expressions over a parameter object's flags."""


@dataclass(frozen=True)
class FlagRef(FlagExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FlagConst(FlagExpr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class FlagNot(FlagExpr):
    operand: FlagExpr

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class FlagAnd(FlagExpr):
    left: FlagExpr
    right: FlagExpr

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class FlagOr(FlagExpr):
    left: FlagExpr
    right: FlagExpr

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class TagGuard:
    """One ``tagtype tagname`` constraint in a ``with`` clause.

    Parameters sharing the same ``binding`` name must carry the *same* tag
    instance of type ``tag_type``.
    """

    tag_type: str
    binding: str

    def __str__(self) -> str:
        return f"{self.tag_type} {self.binding}"


# ---------------------------------------------------------------------------
# Flag / tag actions (taskexit and allocation-site initializers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlagAction:
    """``flagname := bool`` — sets a flag on a parameter or new object."""

    flag: str
    value: bool

    def __str__(self) -> str:
        return f"{self.flag} := {'true' if self.value else 'false'}"


@dataclass(frozen=True)
class TagAction:
    """``add t`` / ``clear t`` — binds or unbinds a tag variable's instance."""

    op: str  # "add" or "clear"
    tag_var: str

    def __str__(self) -> str:
        return f"{self.op} {self.tag_var}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class StringLit(Expr):
    value: str


@dataclass
class NullLit(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class ThisRef(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    receiver: Expr
    field_name: str


@dataclass
class ArrayIndex(Expr):
    array: Expr
    index: Expr


@dataclass
class ArrayLength(Expr):
    array: Expr


@dataclass
class MethodCall(Expr):
    """``receiver.name(args)``; ``receiver is None`` means a call on ``this``
    or a builtin/static call (resolved during semantic analysis)."""

    receiver: Optional[Expr]
    name: str
    args: List[Expr]
    #: Optional explicit class qualifier for static-style builtin calls,
    #: e.g. ``Math.sqrt`` parses with qualifier "Math".
    qualifier: Optional[str] = None


@dataclass
class NewObject(Expr):
    """``new C(args){flag := true, add t}`` — allocation with initial
    abstract state and tag bindings."""

    class_name: str
    args: List[Expr]
    flag_inits: List[FlagAction] = field(default_factory=list)
    tag_inits: List[TagAction] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    elem_type: TypeNode
    dims: List[Expr]  # one expression per allocated dimension
    extra_dims: int = 0  # trailing [] with no size


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Cast(Expr):
    target: TypeNode
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)


@dataclass
class Block(Stmt):
    statements: List[Stmt]


@dataclass
class VarDeclStmt(Stmt):
    var_type: TypeNode
    name: str
    init: Optional[Expr]


@dataclass
class TagDeclStmt(Stmt):
    """``tag t = new tag(tagtype);``"""

    name: str
    tag_type: str


@dataclass
class AssignStmt(Stmt):
    """``target = value`` where target is a VarRef, FieldAccess or
    ArrayIndex."""

    target: Expr
    value: Expr


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt]


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    update: Optional[Stmt]
    body: Stmt


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr]


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class TaskExitStmt(Stmt):
    """``taskexit(p: f := true, add t; q: g := false);``

    ``actions`` maps parameter name to the ordered list of flag/tag actions
    applied to that parameter when the task exits through this statement.
    """

    actions: List[Tuple[str, List[object]]]  # (param name, [FlagAction|TagAction])


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    param_type: TypeNode
    name: str
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class TaskParam:
    """A guarded task parameter: ``Type name in flagexp [with tagexp]``."""

    param_type: TypeNode
    name: str
    guard: FlagExpr
    tag_guards: List[TagGuard] = field(default_factory=list)
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class FieldDecl:
    field_type: TypeNode
    name: str
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class MethodDecl:
    return_type: TypeNode
    name: str
    params: List[Param]
    body: Block
    is_static: bool = False
    is_constructor: bool = False
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class ClassDecl:
    name: str
    flags: List[str]
    fields: List[FieldDecl]
    methods: List[MethodDecl]
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class TaskDecl:
    name: str
    params: List[TaskParam]
    body: Block
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class Program:
    """A complete Bamboo compilation unit."""

    classes: List[ClassDecl]
    tasks: List[TaskDecl]

    def find_class(self, name: str) -> Optional[ClassDecl]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def find_task(self, name: str) -> Optional[TaskDecl]:
        for task in self.tasks:
            if task.name == name:
                return task
        return None


# ---------------------------------------------------------------------------
# Generic traversal helper
# ---------------------------------------------------------------------------


def child_exprs(expr: Expr) -> List[Expr]:
    """Returns the direct sub-expressions of ``expr`` (for generic walks)."""
    if isinstance(expr, FieldAccess):
        return [expr.receiver]
    if isinstance(expr, ArrayIndex):
        return [expr.array, expr.index]
    if isinstance(expr, ArrayLength):
        return [expr.array]
    if isinstance(expr, MethodCall):
        base = [expr.receiver] if expr.receiver is not None else []
        return base + list(expr.args)
    if isinstance(expr, NewObject):
        return list(expr.args)
    if isinstance(expr, NewArray):
        return list(expr.dims)
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Cast):
        return [expr.operand]
    return []


def walk_expr(expr: Expr):
    """Yields ``expr`` and all sub-expressions, pre-order."""
    yield expr
    for child in child_exprs(expr):
        yield from walk_expr(child)


def child_stmts(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, Block):
        return list(stmt.statements)
    if isinstance(stmt, IfStmt):
        out = [stmt.then_branch]
        if stmt.else_branch is not None:
            out.append(stmt.else_branch)
        return out
    if isinstance(stmt, WhileStmt):
        return [stmt.body]
    if isinstance(stmt, ForStmt):
        out = []
        if stmt.init is not None:
            out.append(stmt.init)
        if stmt.update is not None:
            out.append(stmt.update)
        out.append(stmt.body)
        return out
    return []


def walk_stmts(stmt: Stmt):
    """Yields ``stmt`` and all nested statements, pre-order."""
    yield stmt
    for child in child_stmts(stmt):
        yield from walk_stmts(child)


def stmt_exprs(stmt: Stmt) -> List[Expr]:
    """Returns the expressions directly contained in ``stmt``."""
    if isinstance(stmt, VarDeclStmt):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, AssignStmt):
        return [stmt.target, stmt.value]
    if isinstance(stmt, IfStmt):
        return [stmt.cond]
    if isinstance(stmt, WhileStmt):
        return [stmt.cond]
    if isinstance(stmt, ForStmt):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, ReturnStmt):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    return []

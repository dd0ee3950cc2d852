"""Symbol tables for Bamboo programs.

:class:`ProgramInfo` is the semantic index built from a parsed program: class
descriptors (fields, methods, flags), task descriptors, and the implicit
``StartupObject`` class. It is consumed by the type checker, the IR builder,
and every static analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..lang import ast
from ..lang.errors import SemanticError
from . import builtins, types as ty


@dataclass
class FieldInfo:
    name: str
    type: ty.Type
    index: int  # stable slot index within the class


@dataclass
class MethodInfo:
    class_name: str
    decl: ast.MethodDecl
    param_types: List[ty.Type]
    return_type: ty.Type

    @property
    def qualified_name(self) -> str:
        if self.decl.is_constructor:
            return f"{self.class_name}.<init>"
        return f"{self.class_name}.{self.decl.name}"


@dataclass
class ClassInfo:
    name: str
    flags: List[str]
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    constructor: Optional[MethodInfo] = None
    decl: Optional[ast.ClassDecl] = None


@dataclass
class TaskInfo:
    decl: ast.TaskDecl
    param_classes: List[str]  # class name of each task parameter

    @property
    def name(self) -> str:
        return self.decl.name


class ProgramInfo:
    """Aggregated semantic information for one Bamboo program."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.classes: Dict[str, ClassInfo] = {}
        self.tasks: Dict[str, TaskInfo] = {}
        self._build(program)

    # -- construction -------------------------------------------------------

    def _build(self, program: ast.Program) -> None:
        declared = {cls.name for cls in program.classes}
        for name in declared:
            if name in builtins.NAMESPACES:
                cls = program.find_class(name)
                raise SemanticError(
                    f"class name '{name}' collides with a builtin namespace",
                    cls.location,
                )
        if builtins.STARTUP_CLASS not in declared:
            self._install_startup_class()
        class_names = frozenset(declared | {builtins.STARTUP_CLASS})

        for cls in program.classes:
            if cls.name in self.classes:
                raise SemanticError(f"duplicate class '{cls.name}'", cls.location)
            info = ClassInfo(name=cls.name, flags=list(cls.flags), decl=cls)
            seen_flags = set()
            for flag in cls.flags:
                if flag in seen_flags:
                    raise SemanticError(
                        f"duplicate flag '{flag}' in class '{cls.name}'", cls.location
                    )
                seen_flags.add(flag)
            for index, fld in enumerate(cls.fields):
                if fld.name in info.fields:
                    raise SemanticError(
                        f"duplicate field '{fld.name}' in class '{cls.name}'",
                        fld.location,
                    )
                info.fields[fld.name] = FieldInfo(
                    name=fld.name,
                    type=ty.resolve_type(fld.field_type, class_names, fld.location),
                    index=index,
                )
            for method in cls.methods:
                param_types = [
                    ty.resolve_type(p.param_type, class_names, p.location)
                    for p in method.params
                ]
                return_type = ty.resolve_type(
                    method.return_type, class_names, method.location
                )
                minfo = MethodInfo(
                    class_name=cls.name,
                    decl=method,
                    param_types=param_types,
                    return_type=return_type,
                )
                if method.is_constructor:
                    if info.constructor is not None:
                        raise SemanticError(
                            f"class '{cls.name}' has multiple constructors "
                            "(overloading is not supported)",
                            method.location,
                        )
                    info.constructor = minfo
                else:
                    if method.name in info.methods:
                        raise SemanticError(
                            f"duplicate method '{method.name}' in class "
                            f"'{cls.name}' (overloading is not supported)",
                            method.location,
                        )
                    info.methods[method.name] = minfo
            self.classes[cls.name] = info

        for task in program.tasks:
            if task.name in self.tasks:
                raise SemanticError(f"duplicate task '{task.name}'", task.location)
            if not task.params:
                raise SemanticError(
                    f"task '{task.name}' has no parameters: task invocation "
                    "is data-driven, so a parameterless task could never be "
                    "dispatched",
                    task.location,
                )
            param_classes: List[str] = []
            seen_params = set()
            for param in task.params:
                if param.name in seen_params:
                    raise SemanticError(
                        f"duplicate parameter '{param.name}' in task '{task.name}'",
                        param.location,
                    )
                seen_params.add(param.name)
                if param.param_type.dims != 0:
                    raise SemanticError(
                        "task parameters must be class-typed objects",
                        param.location,
                    )
                if param.param_type.name not in self.classes:
                    raise SemanticError(
                        f"task parameter type '{param.param_type.name}' is not "
                        "a declared class",
                        param.location,
                    )
                param_classes.append(param.param_type.name)
            self.tasks[task.name] = TaskInfo(decl=task, param_classes=param_classes)

    def _install_startup_class(self) -> None:
        """Adds the implicit StartupObject class to the program AST."""
        decl = ast.ClassDecl(
            name=builtins.STARTUP_CLASS,
            flags=[builtins.STARTUP_FLAG],
            fields=[
                ast.FieldDecl(
                    field_type=ast.TypeNode("String", 1),
                    name=builtins.STARTUP_ARGS_FIELD,
                )
            ],
            methods=[],
        )
        self.program.classes.insert(0, decl)

    # -- lookups -----------------------------------------------------------

    @property
    def class_names(self) -> frozenset:
        return frozenset(self.classes)

    def class_info(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise SemanticError(f"unknown class '{name}'") from None

    def task_info(self, name: str) -> TaskInfo:
        try:
            return self.tasks[name]
        except KeyError:
            raise SemanticError(f"unknown task '{name}'") from None

    def resolve(self, node: ast.TypeNode, location) -> ty.Type:
        return ty.resolve_type(node, self.class_names, location)


class Scope:
    """A lexical scope stack for local variables inside one body."""

    def __init__(self):
        self._stack: List[Dict[str, ty.Type]] = [{}]

    def push(self) -> None:
        self._stack.append({})

    def pop(self) -> None:
        self._stack.pop()

    def declare(self, name: str, var_type: ty.Type, location) -> None:
        if name in self._stack[-1]:
            raise SemanticError(f"duplicate variable '{name}'", location)
        self._stack[-1][name] = var_type

    def lookup(self, name: str) -> Optional[ty.Type]:
        for frame in reversed(self._stack):
            if name in frame:
                return frame[name]
        return None

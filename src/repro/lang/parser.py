"""Recursive-descent parser for the Bamboo language.

Implements the Java-like imperative subset plus the task grammar of Figure 5
in the paper: ``flag`` declarations, ``task`` declarations with ``in``
flag-expression guards and ``with`` tag guards, ``taskexit`` statements and
flag/tag initializers on ``new``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import CONTEXTUAL_KEYWORDS, Token, TokenKind

_PRIMITIVE_TYPE_KINDS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_FLOAT: "float",
    TokenKind.KW_BOOLEAN: "boolean",
    TokenKind.KW_STRING: "String",
    TokenKind.KW_VOID: "void",
}

_ASSIGN_OPS = {
    TokenKind.ASSIGN: None,
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: List[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, kind: TokenKind, offset: int = 0) -> bool:
        return self._peek(offset).kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        token = self._peek()
        if token.kind is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected}, found {token.spelling!r}", token.location
            )
        return self._advance()

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _at_name(self, offset: int = 0) -> bool:
        kind = self._peek(offset).kind
        return kind is TokenKind.IDENT or kind in CONTEXTUAL_KEYWORDS

    def _expect_name(self, what: str) -> str:
        """Accepts an identifier where a name is required. The contextual
        keywords (``in``/``with``/``and``/``or``/``add``/``clear``) are
        ordinary identifiers outside their grammar positions, so methods
        like ``add`` parse fine."""
        token = self._peek()
        if self._at_name():
            self._advance()
            return token.value
        raise ParseError(
            f"expected {what}, found {token.spelling!r}", token.location
        )

    def _loc(self) -> SourceLocation:
        return self._peek().location

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        classes: List[ast.ClassDecl] = []
        tasks: List[ast.TaskDecl] = []
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KW_CLASS):
                classes.append(self.parse_class())
            elif self._at(TokenKind.KW_TASK):
                tasks.append(self.parse_task())
            else:
                token = self._peek()
                raise ParseError(
                    f"expected 'class' or 'task' at top level, found "
                    f"{token.spelling!r}",
                    token.location,
                )
        return ast.Program(classes=classes, tasks=tasks)

    # -- class declarations --------------------------------------------------

    def parse_class(self) -> ast.ClassDecl:
        loc = self._expect(TokenKind.KW_CLASS).location
        name = self._expect_name("class name")
        self._expect(TokenKind.LBRACE)
        flags: List[str] = []
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.KW_FLAG):
                self._advance()
                flag_name = self._expect_name("flag name")
                self._expect(TokenKind.SEMI)
                flags.append(flag_name)
                continue
            is_static = self._match(TokenKind.KW_STATIC) is not None
            member_loc = self._loc()
            # Constructor: ClassName ( ... ) { ... }
            if (
                not is_static
                and self._at(TokenKind.IDENT)
                and self._peek().value == name
                and self._at(TokenKind.LPAREN, 1)
            ):
                self._advance()
                params = self.parse_params()
                body = self.parse_block()
                methods.append(
                    ast.MethodDecl(
                        return_type=ast.TypeNode("void"),
                        name=name,
                        params=params,
                        body=body,
                        is_constructor=True,
                        location=member_loc,
                    )
                )
                continue
            member_type = self.parse_type()
            member_name = self._expect_name("member name")
            if self._at(TokenKind.LPAREN):
                params = self.parse_params()
                body = self.parse_block()
                methods.append(
                    ast.MethodDecl(
                        return_type=member_type,
                        name=member_name,
                        params=params,
                        body=body,
                        is_static=is_static,
                        location=member_loc,
                    )
                )
            else:
                if is_static:
                    raise ParseError("static fields are not supported", member_loc)
                self._expect(TokenKind.SEMI)
                fields.append(
                    ast.FieldDecl(
                        field_type=member_type, name=member_name, location=member_loc
                    )
                )
        self._expect(TokenKind.RBRACE)
        return ast.ClassDecl(
            name=name, flags=flags, fields=fields, methods=methods, location=loc
        )

    def parse_params(self) -> List[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: List[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                loc = self._loc()
                param_type = self.parse_type()
                name = self._expect_name("parameter name")
                params.append(
                    ast.Param(param_type=param_type, name=name, location=loc)
                )
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return params

    # -- task declarations ----------------------------------------------------

    def parse_task(self) -> ast.TaskDecl:
        loc = self._expect(TokenKind.KW_TASK).location
        name = self._expect_name("task name")
        self._expect(TokenKind.LPAREN)
        params: List[ast.TaskParam] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                params.append(self.parse_task_param())
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        body = self.parse_block()
        return ast.TaskDecl(name=name, params=params, body=body, location=loc)

    def parse_task_param(self) -> ast.TaskParam:
        loc = self._loc()
        param_type = self.parse_type()
        name = self._expect_name("parameter name")
        self._expect(TokenKind.KW_IN, "'in'")
        guard = self.parse_flag_expr()
        tag_guards: List[ast.TagGuard] = []
        if self._match(TokenKind.KW_WITH):
            while True:
                tag_type = self._expect_name("tag type")
                binding = self._expect_name("tag binding name")
                tag_guards.append(ast.TagGuard(tag_type=tag_type, binding=binding))
                if not self._match(TokenKind.KW_AND):
                    break
        return ast.TaskParam(
            param_type=param_type,
            name=name,
            guard=guard,
            tag_guards=tag_guards,
            location=loc,
        )

    # -- flag expressions ------------------------------------------------------

    def parse_flag_expr(self) -> ast.FlagExpr:
        return self._parse_flag_or()

    def _parse_flag_or(self) -> ast.FlagExpr:
        left = self._parse_flag_and()
        while self._match(TokenKind.KW_OR):
            right = self._parse_flag_and()
            left = ast.FlagOr(left, right)
        return left

    def _parse_flag_and(self) -> ast.FlagExpr:
        left = self._parse_flag_unary()
        while self._match(TokenKind.KW_AND):
            right = self._parse_flag_unary()
            left = ast.FlagAnd(left, right)
        return left

    def _parse_flag_unary(self) -> ast.FlagExpr:
        if self._match(TokenKind.NOT):
            return ast.FlagNot(self._parse_flag_unary())
        if self._match(TokenKind.LPAREN):
            inner = self.parse_flag_expr()
            self._expect(TokenKind.RPAREN)
            return inner
        if self._match(TokenKind.KW_TRUE):
            return ast.FlagConst(True)
        if self._match(TokenKind.KW_FALSE):
            return ast.FlagConst(False)
        token = self._peek()
        if token.kind is TokenKind.IDENT or token.kind in (
            TokenKind.KW_ADD,
            TokenKind.KW_CLEAR,
            TokenKind.KW_IN,
            TokenKind.KW_WITH,
        ):
            self._advance()
            return ast.FlagRef(token.value)
        raise ParseError(
            f"expected a flag name, found {token.spelling!r}", token.location
        )

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> ast.TypeNode:
        token = self._peek()
        if token.kind in _PRIMITIVE_TYPE_KINDS:
            self._advance()
            name = _PRIMITIVE_TYPE_KINDS[token.kind]
        elif token.kind is TokenKind.IDENT:
            self._advance()
            name = token.value
        else:
            raise ParseError(f"expected a type, found {token.spelling!r}", token.location)
        dims = 0
        while self._at(TokenKind.LBRACKET) and self._at(TokenKind.RBRACKET, 1):
            self._advance()
            self._advance()
            dims += 1
        return ast.TypeNode(name, dims)

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        loc = self._expect(TokenKind.LBRACE).location
        statements: List[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            statements.append(self.parse_statement())
        self._expect(TokenKind.RBRACE)
        return ast.Block(statements=statements, location=loc)

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.LBRACE:
            return self.parse_block()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._at(TokenKind.SEMI):
                value = self.parse_expr()
            self._expect(TokenKind.SEMI)
            return ast.ReturnStmt(value=value, location=token.location)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.BreakStmt(location=token.location)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.ContinueStmt(location=token.location)
        if kind is TokenKind.KW_TASKEXIT:
            return self._parse_taskexit()
        if kind is TokenKind.KW_TAG:
            return self._parse_tag_decl()
        stmt = self._parse_simple_statement()
        self._expect(TokenKind.SEMI)
        return stmt

    def _parse_if(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_IF).location
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_branch = self.parse_statement()
        else_branch = None
        if self._match(TokenKind.KW_ELSE):
            else_branch = self.parse_statement()
        return ast.IfStmt(
            cond=cond, then_branch=then_branch, else_branch=else_branch, location=loc
        )

    def _parse_while(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_WHILE).location
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self.parse_statement()
        return ast.WhileStmt(cond=cond, body=body, location=loc)

    def _parse_for(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_FOR).location
        self._expect(TokenKind.LPAREN)
        init: Optional[ast.Stmt] = None
        if not self._at(TokenKind.SEMI):
            init = self._parse_simple_statement()
        self._expect(TokenKind.SEMI)
        cond: Optional[ast.Expr] = None
        if not self._at(TokenKind.SEMI):
            cond = self.parse_expr()
        self._expect(TokenKind.SEMI)
        update: Optional[ast.Stmt] = None
        if not self._at(TokenKind.RPAREN):
            update = self._parse_simple_statement()
        self._expect(TokenKind.RPAREN)
        body = self.parse_statement()
        return ast.ForStmt(init=init, cond=cond, update=update, body=body, location=loc)

    def _parse_tag_decl(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_TAG).location
        name = self._expect_name("tag variable name")
        self._expect(TokenKind.ASSIGN)
        self._expect(TokenKind.KW_NEW)
        self._expect(TokenKind.KW_TAG, "'tag'")
        self._expect(TokenKind.LPAREN)
        tag_type = self._expect_name("tag type")
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return ast.TagDeclStmt(name=name, tag_type=tag_type, location=loc)

    def _parse_taskexit(self) -> ast.Stmt:
        loc = self._expect(TokenKind.KW_TASKEXIT).location
        actions: List[Tuple[str, List[object]]] = []
        if self._match(TokenKind.LPAREN):
            if not self._at(TokenKind.RPAREN):
                while True:
                    param = self._expect_name("parameter name")
                    self._expect(TokenKind.COLON)
                    param_actions = [self._parse_flag_or_tag_action()]
                    while self._match(TokenKind.COMMA):
                        param_actions.append(self._parse_flag_or_tag_action())
                    actions.append((param, param_actions))
                    if not self._match(TokenKind.SEMI):
                        break
            self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMI)
        return ast.TaskExitStmt(actions=actions, location=loc)

    def _parse_flag_or_tag_action(self) -> object:
        # "add t" / "clear t" win over a flag literally named "add"/"clear"
        # when followed by a name (the grammar's resolution of Fig. 5).
        if self._at(TokenKind.KW_ADD) and self._at_name(1):
            self._advance()
            tag_var = self._expect_name("tag variable")
            return ast.TagAction(op="add", tag_var=tag_var)
        if self._at(TokenKind.KW_CLEAR) and self._at_name(1):
            self._advance()
            tag_var = self._expect_name("tag variable")
            return ast.TagAction(op="clear", tag_var=tag_var)
        flag = self._expect_name("flag name")
        self._expect(TokenKind.FLAG_ASSIGN, "':='")
        token = self._peek()
        if self._match(TokenKind.KW_TRUE):
            return ast.FlagAction(flag=flag, value=True)
        if self._match(TokenKind.KW_FALSE):
            return ast.FlagAction(flag=flag, value=False)
        raise ParseError("expected 'true' or 'false' after ':='", token.location)

    def _parse_simple_statement(self) -> ast.Stmt:
        """Parses a declaration, assignment, or expression statement (without
        the trailing semicolon, so it is reusable inside ``for`` headers)."""
        if self._looks_like_declaration():
            loc = self._loc()
            var_type = self.parse_type()
            name = self._expect_name("variable name")
            init = None
            if self._match(TokenKind.ASSIGN):
                init = self.parse_expr()
            return ast.VarDeclStmt(var_type=var_type, name=name, init=init, location=loc)
        loc = self._loc()
        expr = self.parse_expr()
        token = self._peek()
        if token.kind in _ASSIGN_OPS:
            op = _ASSIGN_OPS[token.kind]
            self._advance()
            value = self.parse_expr()
            if op is not None:
                value = ast.Binary(op=op, left=expr, right=value, location=token.location)
            return ast.AssignStmt(target=expr, value=value, location=loc)
        if token.kind is TokenKind.PLUSPLUS or token.kind is TokenKind.MINUSMINUS:
            self._advance()
            op = "+" if token.kind is TokenKind.PLUSPLUS else "-"
            one = ast.IntLit(value=1, location=token.location)
            value = ast.Binary(op=op, left=expr, right=one, location=token.location)
            return ast.AssignStmt(target=expr, value=value, location=loc)
        return ast.ExprStmt(expr=expr, location=loc)

    def _looks_like_declaration(self) -> bool:
        """Decides whether the upcoming tokens start a variable declaration.

        Handles the ambiguity between ``Foo[] x`` (a declaration) and
        ``foo[i] = v`` (an assignment): after the base type name, ``[`` must
        be immediately followed by ``]`` for this to be a declaration.
        """
        kind = self._peek().kind
        if kind in _PRIMITIVE_TYPE_KINDS and kind is not TokenKind.KW_VOID:
            return True
        if kind is TokenKind.KW_VOID:
            return False
        if kind is not TokenKind.IDENT:
            return False
        offset = 1
        while (
            self._at(TokenKind.LBRACKET, offset)
            and self._at(TokenKind.RBRACKET, offset + 1)
        ):
            offset += 2
        return self._at_name(offset)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.PIPEPIPE):
            loc = self._advance().location
            right = self._parse_and()
            left = ast.Binary(op="||", left=left, right=right, location=loc)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_equality()
        while self._at(TokenKind.AMPAMP):
            loc = self._advance().location
            right = self._parse_equality()
            left = ast.Binary(op="&&", left=left, right=right, location=loc)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self._at(TokenKind.EQ) or self._at(TokenKind.NE):
            token = self._advance()
            right = self._parse_relational()
            left = ast.Binary(
                op=token.kind.value, left=left, right=right, location=token.location
            )
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_additive()
        while self._peek().kind in (
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.LE,
            TokenKind.GE,
        ):
            token = self._advance()
            right = self._parse_additive()
            left = ast.Binary(
                op=token.kind.value, left=left, right=right, location=token.location
            )
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._at(TokenKind.PLUS) or self._at(TokenKind.MINUS):
            token = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(
                op=token.kind.value, left=left, right=right, location=token.location
            )
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in (
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ):
            token = self._advance()
            right = self._parse_unary()
            left = ast.Binary(
                op=token.kind.value, left=left, right=right, location=token.location
            )
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.MINUS:
            self._advance()
            return ast.Unary(op="-", operand=self._parse_unary(), location=token.location)
        if token.kind is TokenKind.NOT:
            self._advance()
            return ast.Unary(op="!", operand=self._parse_unary(), location=token.location)
        # Primitive cast: (int) x / (float) x
        if token.kind is TokenKind.LPAREN and self._peek(1).kind in (
            TokenKind.KW_INT,
            TokenKind.KW_FLOAT,
        ):
            if self._at(TokenKind.RPAREN, 2):
                self._advance()
                type_token = self._advance()
                self._advance()
                target = ast.TypeNode(_PRIMITIVE_TYPE_KINDS[type_token.kind])
                return ast.Cast(
                    target=target, operand=self._parse_unary(), location=token.location
                )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind is TokenKind.DOT:
                self._advance()
                name = self._expect_name("member name after '.'")
                if self._at(TokenKind.LPAREN):
                    args = self._parse_call_args()
                    expr = ast.MethodCall(
                        receiver=expr, name=name, args=args, location=token.location
                    )
                else:
                    expr = ast.FieldAccess(
                        receiver=expr, field_name=name, location=token.location
                    )
            elif token.kind is TokenKind.LBRACKET:
                self._advance()
                index = self.parse_expr()
                self._expect(TokenKind.RBRACKET)
                expr = ast.ArrayIndex(array=expr, index=index, location=token.location)
            else:
                return expr

    def _parse_call_args(self) -> List[ast.Expr]:
        self._expect(TokenKind.LPAREN)
        args: List[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                args.append(self.parse_expr())
                if not self._match(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(value=token.value, location=token.location)
        if kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(value=token.value, location=token.location)
        if kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLit(value=token.value, location=token.location)
        if kind is TokenKind.KW_TRUE:
            self._advance()
            return ast.BoolLit(value=True, location=token.location)
        if kind is TokenKind.KW_FALSE:
            self._advance()
            return ast.BoolLit(value=False, location=token.location)
        if kind is TokenKind.KW_NULL:
            self._advance()
            return ast.NullLit(location=token.location)
        if kind is TokenKind.KW_THIS:
            self._advance()
            return ast.ThisRef(location=token.location)
        if kind is TokenKind.KW_NEW:
            return self._parse_new()
        if kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        if (
            kind is TokenKind.IDENT
            or kind is TokenKind.KW_STRING
            or kind in CONTEXTUAL_KEYWORDS
        ):
            self._advance()
            name = token.value
            if self._at(TokenKind.LPAREN):
                args = self._parse_call_args()
                return ast.MethodCall(
                    receiver=None, name=name, args=args, location=token.location
                )
            return ast.VarRef(name=name, location=token.location)
        raise ParseError(f"unexpected token {token.spelling!r}", token.location)

    def _parse_new(self) -> ast.Expr:
        loc = self._expect(TokenKind.KW_NEW).location
        type_token = self._peek()
        if type_token.kind in _PRIMITIVE_TYPE_KINDS and type_token.kind is not TokenKind.KW_VOID:
            self._advance()
            elem_name = _PRIMITIVE_TYPE_KINDS[type_token.kind]
            return self._parse_new_array(elem_name, loc)
        class_name = self._expect_name("class name")
        if self._at(TokenKind.LBRACKET):
            return self._parse_new_array(class_name, loc)
        args = self._parse_call_args()
        flag_inits: List[ast.FlagAction] = []
        tag_inits: List[ast.TagAction] = []
        if self._match(TokenKind.LBRACE):
            if not self._at(TokenKind.RBRACE):
                while True:
                    action = self._parse_flag_or_tag_action()
                    if isinstance(action, ast.FlagAction):
                        flag_inits.append(action)
                    else:
                        tag_inits.append(action)
                    if not self._match(TokenKind.COMMA):
                        break
            self._expect(TokenKind.RBRACE)
        return ast.NewObject(
            class_name=class_name,
            args=args,
            flag_inits=flag_inits,
            tag_inits=tag_inits,
            location=loc,
        )

    def _parse_new_array(self, elem_name: str, loc: SourceLocation) -> ast.Expr:
        dims: List[ast.Expr] = []
        extra_dims = 0
        while self._at(TokenKind.LBRACKET):
            self._advance()
            if self._at(TokenKind.RBRACKET):
                self._advance()
                extra_dims += 1
            else:
                if extra_dims:
                    raise ParseError(
                        "cannot specify a dimension after an empty one", self._loc()
                    )
                dims.append(self.parse_expr())
                self._expect(TokenKind.RBRACKET)
        if not dims:
            raise ParseError("array allocation needs at least one sized dimension", loc)
        return ast.NewArray(
            elem_type=ast.TypeNode(elem_name),
            dims=dims,
            extra_dims=extra_dims,
            location=loc,
        )


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parses Bamboo source text into an AST."""
    return Parser(tokenize(source, filename), filename).parse_program()

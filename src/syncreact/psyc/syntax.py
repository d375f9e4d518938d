"""Concrete syntax of the small synchronous imperative language.

Statements: ``skip``, assignment ``x := e``, sequencing with ``;``
(right associative, trailing separator tolerated before a block end),
``if e then c else c``, ``while e do c done``, and ``tick(e, ...)``
with one argument per output component.  Expressions: ``tt``, ``ff``,
integer literals, dereference ``!x``, ``get`` with an optional
component index, decrement ``e - 1``, zero test ``e != 0``, and
conjunction ``&&``.
"""

from __future__ import annotations

import re

from ..core import Record, fold
from ..errors import PsySyntaxError

KEYWORDS = {
    "skip",
    "if",
    "then",
    "else",
    "while",
    "do",
    "done",
    "tick",
    "get",
    "tt",
    "ff",
}


class Term:
    """Base of the AST node classes: hash-consed, so equal terms are one object.

    ``Cls(*fields)`` returns the one node for ``(Cls, *fields)`` from a
    table of every term built so far; a miss makes and stores the node.
    Equal terms are therefore the same object, and terms compare and
    hash by identity (``object``'s ``==`` and ``hash``) in O(1), at any
    depth.  Fields are positional, one per name in the class's
    ``__slots__``, and nodes are never changed after construction.  A
    subclass must define no ``__init__``, ``__eq__`` or ``__hash__``,
    which would break that identity.  Source positions stay out of the
    key, so one node can stand for several places in a program.  The
    table lives as long as the process; a CLI command is one process.
    """

    __slots__ = ()  # each subclass's __slots__ names its fields

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _TERMS.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(
                    f"{cls.__name__} takes {len(cls.__slots__)} fields, not {len(fields)}"
                )
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                setattr(node, name, value)
            node = _TERMS.setdefault(key, node)  # one node even if two threads race
        return node


_TERMS: dict = {}  # (node class, *fields) -> the one node with them


class Skip(Term):
    __slots__ = ()


class VarRef(Term):
    __slots__ = ("name",)


class BoolLit(Term):
    __slots__ = ("value",)


class IntLit(Term):
    __slots__ = ("value",)


class Deref(Term):
    __slots__ = ("target",)


class Assign(Term):
    __slots__ = ("target", "value")


class Seq(Term):
    __slots__ = ("first", "second")


class If(Term):
    __slots__ = ("cond", "then_branch", "else_branch")


class While(Term):
    __slots__ = ("cond", "body")


class Tick(Term):
    __slots__ = ("args",)


class Get(Term):
    __slots__ = ("index",)


class Dec(Term):
    __slots__ = ("inner",)


class NotZero(Term):
    __slots__ = ("inner",)


class Conj(Term):
    __slots__ = ("left", "right")


Ast = Term


def _unparse_pieces(node: Ast) -> list:
    cls = node.__class__
    if cls is Skip:
        return ["skip"]
    if cls is VarRef:
        return [node.name]
    if cls is BoolLit:
        return ["tt" if node.value else "ff"]
    if cls is IntLit:
        return [str(node.value)]
    if cls is Deref:
        return ["!", node.target]
    if cls is Assign:
        return [node.target, " := ", node.value]
    if cls is Seq:
        return [node.first, "; ", node.second]
    if cls is If:
        return ["if ", node.cond, " then ", node.then_branch, " else ", node.else_branch]
    if cls is While:
        return ["while ", node.cond, " do ", node.body, " done"]
    if cls is Tick:
        out: list = ["tick("]
        for i, arg in enumerate(node.args):
            out += (", ", arg) if i else (arg,)
        return out + [")"]
    if cls is Get:
        return [f"get {node.index}" if node.index else "get"]
    if cls is Dec:
        return ["(", node.inner, " - 1)"]
    if cls is NotZero:
        return ["(", node.inner, " != 0)"]
    if cls is Conj:
        return ["(", node.left, " && ", node.right, ")"]
    raise TypeError(f"not an AST node: {node!r}")


def unparse(node: Ast) -> str:
    """Concrete text of a program, with no parentheses around statements.

    ``parse(unparse(t)) == t`` holds for every term ``t`` that ``parse``
    returns, where a ``;`` chain nests to the right and no ``;`` starts
    with a ``;`` or an ``if``.  Other terms print as a different
    program: ``Seq(If(c, a, d), x)`` prints ``if c then a else d; x``,
    which parses as ``If(c, a, Seq(d, x))``, and a left-nested ``;``
    (as in a built system's continuations) re-parses right-nested.
    Subterms are expanded in place on one stack, so no depth recurses.
    """
    text: list[str] = []
    todo: list = [node]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            text.append(item)
        else:
            todo += reversed(_unparse_pieces(item))
    return "".join(text)


class Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind, self.text, self.line, self.column = kind, text, line, column


_TOKEN_SPEC = [
    ("INT", r"\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OP", r":=|&&|!=|[;(),!\-]"),
    ("SKIPWS", r"[ \t]+"),
    ("COMMENT", r"#[^\n]*"),
    ("NEWLINE", r"\n"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC))


def tokenize(text: str) -> list[Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            col = pos - line_start + 1
            raise PsySyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        value = match.group()
        col = pos - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind not in ("SKIPWS", "COMMENT"):
            if kind == "OP" or value in KEYWORDS:
                kind = value  # an operator or keyword is its own kind
            tokens.append(Token(kind, value, line, col))
        pos = match.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


_SEQ_TERMINATORS = {"else", "done", "EOF"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise PsySyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise PsySyntaxError(message, tok.line, tok.column)

    # Each grammar rule is a generator for core.fold: it yields the rule
    # of each nested phrase and receives that phrase's AST, so nesting
    # depth costs no recursion.

    def program(self):
        prog = yield self.seq
        self.expect("EOF")
        return prog

    def seq(self):
        items = [(yield self.stmt)]
        while self.peek().kind == ";":
            self.advance()
            if self.peek().kind in _SEQ_TERMINATORS:
                break
            items.append((yield self.stmt))
        node = items[-1]
        for item in reversed(items[:-1]):
            node = Seq(item, node)
        return node

    def stmt(self):
        tok = self.peek()
        if tok.kind == "skip":
            self.advance()
            return Skip()
        if tok.kind == "tick":
            self.advance()
            self.expect("(")
            args = [(yield self.expr)]
            while self.peek().kind == ",":
                self.advance()
                args.append((yield self.expr))
            self.expect(")")
            return Tick(tuple(args))
        if tok.kind == "if":
            self.advance()
            cond = yield self.expr
            self.expect("then")
            then_branch = yield self.seq
            self.expect("else")
            else_branch = yield self.seq
            return If(cond, then_branch, else_branch)
        if tok.kind == "while":
            self.advance()
            cond = yield self.expr
            self.expect("do")
            body = yield self.seq
            self.expect("done")
            return While(cond, body)
        if tok.kind == "IDENT":
            name = self.advance().text
            self.expect(":=")
            return Assign(VarRef(name), (yield self.expr))
        self.fail(f"expected a statement, found {tok.text or 'end of input'!r}")

    def expr(self):
        """``expr := cmp ('&&' cmp)*``, left-nested."""
        node = yield self.cmp
        while self.peek().kind == "&&":
            self.advance()
            node = Conj(node, (yield self.cmp))
        return node

    def cmp(self):
        """``cmp := unary ('-' 1)* ['!=' 0]``."""
        node = yield self.unary
        while self.peek().kind == "-":
            self.literal("1", "decrement")
            node = Dec(node)
        if self.peek().kind == "!=":
            self.literal("0", "zero test")
            node = NotZero(node)
        return node

    def literal(self, digits: str, what: str) -> None:
        """Consume an operator and the one integer literal, ``digits``, it takes."""
        op = self.advance().text
        tok = self.expect("INT")
        if tok.text != digits:
            message = f"only the {what} `{op} {digits}` is supported"
            raise PsySyntaxError(message, tok.line, tok.column)

    def unary(self):
        """``unary := '!' unary | '(' expr ')' | atom``."""
        if self.peek().kind == "!":
            self.advance()
            return Deref((yield self.unary))
        if self.peek().kind == "(":
            self.advance()
            node = yield self.expr
            self.expect(")")
            return node
        return self.atom()

    def atom(self) -> Ast:
        tok = self.peek()
        if tok.kind == "tt":
            self.advance()
            return BoolLit(True)
        if tok.kind == "ff":
            self.advance()
            return BoolLit(False)
        if tok.kind == "INT":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "get":
            self.advance()
            if self.peek().kind == "INT":
                return Get(int(self.advance().text))
            return Get(0)
        if tok.kind == "IDENT":
            self.advance()
            return VarRef(tok.text)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(source: str) -> Ast:
    """Parse a program body; raises PsySyntaxError with line and column."""
    return fold(lambda rule: rule(), _Parser(tokenize(source)).program)

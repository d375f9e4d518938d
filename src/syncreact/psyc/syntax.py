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
from typing import Union

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
    """Base of the AST node classes: structural equality, hash fixed once.

    Each node computes its hash at construction from its class name, its
    own fields and the stored hashes of its children, so hashing a term
    is O(1) and interning a term costs only its new nodes.  Equality is
    structural and walks both terms with an explicit stack, so neither
    recurses down long ``;`` spines.  Nodes are never changed after
    construction.
    """

    __slots__ = ("_hash",)  # each subclass's __slots__ names its fields

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for name in a.__slots__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Term):
                    todo.append((x, y))
                elif isinstance(x, tuple):
                    if len(x) != len(y):
                        return False
                    todo.extend(zip(x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        """``Cls(field=value, ...)``, expanded on one stack (see :func:`_render`)."""
        return _render(self, _repr_pieces)


def _render(root: Term, pieces) -> str:
    """Text of ``root``: ``pieces(node)`` lists a node's literal strings and subterms.

    Subterms are expanded in place on one stack, so the cost is linear
    in the text and no nesting depth recurses.
    """
    text: list[str] = []
    todo: list = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            text.append(item)
        else:
            todo += reversed(pieces(item))
    return "".join(text)


def _repr_pieces(node: Term) -> list:
    out: list = [f"{node.__class__.__name__}("]
    for k, name in enumerate(node.__slots__):
        value = getattr(node, name)
        out.append(f"{', ' if k else ''}{name}=")
        out.append(value if isinstance(value, Term) else repr(value))
    return out + [")"]


class Skip(Term):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("Skip")


class VarRef(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("VarRef", name))


class BoolLit(Term):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value
        self._hash = hash(("BoolLit", value))


class IntLit(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value
        self._hash = hash(("IntLit", value))


class Deref(Term):
    __slots__ = ("target",)

    def __init__(self, target: "Ast"):
        self.target = target
        self._hash = hash(("Deref", target._hash))


class Assign(Term):
    __slots__ = ("target", "value")

    def __init__(self, target: "Ast", value: "Ast"):
        self.target = target
        self.value = value
        self._hash = hash(("Assign", target._hash, value._hash))


class Seq(Term):
    __slots__ = ("first", "second")

    def __init__(self, first: "Ast", second: "Ast"):
        self.first = first
        self.second = second
        self._hash = hash(("Seq", first._hash, second._hash))


class If(Term):
    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: "Ast", then_branch: "Ast", else_branch: "Ast"):
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch
        self._hash = hash(("If", cond._hash, then_branch._hash, else_branch._hash))


class While(Term):
    __slots__ = ("cond", "body")

    def __init__(self, cond: "Ast", body: "Ast"):
        self.cond = cond
        self.body = body
        self._hash = hash(("While", cond._hash, body._hash))


class Tick(Term):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args
        self._hash = hash(("Tick", *(a._hash for a in args)))


class Get(Term):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index
        self._hash = hash(("Get", index))


class Dec(Term):
    __slots__ = ("inner",)

    def __init__(self, inner: "Ast"):
        self.inner = inner
        self._hash = hash(("Dec", inner._hash))


class NotZero(Term):
    __slots__ = ("inner",)

    def __init__(self, inner: "Ast"):
        self.inner = inner
        self._hash = hash(("NotZero", inner._hash))


class Conj(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: "Ast", right: "Ast"):
        self.left = left
        self.right = right
        self._hash = hash(("Conj", left._hash, right._hash))


Ast = Union[
    Skip,
    VarRef,
    BoolLit,
    IntLit,
    Deref,
    Assign,
    Seq,
    If,
    While,
    Tick,
    Get,
    Dec,
    NotZero,
    Conj,
]


def is_value(node: Ast) -> bool:
    return isinstance(node, (BoolLit, IntLit))


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
    """
    return _render(node, _unparse_pieces)


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
        elif kind in ("SKIPWS", "COMMENT"):
            pass
        elif kind == "IDENT" and value in KEYWORDS:
            tokens.append(Token(value, value, line, col))
        elif kind == "OP":
            tokens.append(Token(value, value, line, col))
        else:
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
            self.advance()
            one = self.expect("INT")
            if one.text != "1":
                raise PsySyntaxError(
                    "only the decrement `- 1` is supported", one.line, one.column
                )
            node = Dec(node)
        if self.peek().kind == "!=":
            self.advance()
            zero = self.expect("INT")
            if zero.text != "0":
                raise PsySyntaxError(
                    "only the zero test `!= 0` is supported", zero.line, zero.column
                )
            node = NotZero(node)
        return node

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

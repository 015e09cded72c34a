"""Concrete syntax: lexer, recursive-descent parser, and expression printer.

Input files have the shape ``{pre} statements {post}``.  Assertions and
program expressions share one grammar.  Operator precedence, loosest to
tightest: ⇒ (right-assoc), ∨, ∧, relations (non-chaining), + -, * / %,
^, ¬.  All binary operators except ⇒ associate to the left.  ASCII
spellings (/\\ \\/ ~ => <= >= !=) and the unicode equivalents are both
accepted; keywords are case-insensitive; ``--`` starts a line comment.

Loops may carry two optional braced assertions::

    WHILE b DO { invariant } body { post }

The leading one (right after DO) is an invariant; the trailing one is a
loop postcondition, except at the very end of the program where a braced
assertion is the program's own postcondition.

Programs are sort-checked at parse time: program variables are naturals,
conditions and contracts must be boolean, assignment right-hand sides
natural.

Parentheses, negations, implications and compound statements may nest at
most ``MAX_NESTING`` levels deep; deeper input is a parse error rather
than an exhausted interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    BOOL,
    NAT,
    Assign,
    Block,
    Expr,
    If,
    Num,
    Op,
    Seq,
    Skip,
    SortError,
    Stmt,
    Triple,
    Var,
    While,
    sort_of,
    FALSE,
    TRUE,
    Case,
    Ctor,
    BOOL_BINOPS,
    REL_OPS,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # NUM IDENT KW OP LBRACE RBRACE LPAREN RPAREN SEMI COMMA ASSIGN EOF
    value: str
    line: int
    col: int


# A parenthesis level costs at most ten parser frames (`nested`, `_unary`,
# `_atom` and one `expression` per binary precedence level it holds), so
# the deepest input stays inside the interpreter's default recursion limit
# of 1000.
MAX_NESTING = 64

# Binding strength of each operator, loosest first: the parser climbs it
# and `pretty` parenthesises by it.
_PREC = {"⇒": 1, "∨": 2, "∧": 3}
_PREC.update({op: 4 for op in REL_OPS})
_PREC.update({"+": 5, "-": 5, "*": 6, "/": 6, "%": 6, "^": 7, "¬": 8})

KEYWORDS = {"SKIP", "IF", "THEN", "ELSE", "WHILE", "DO", "BEGIN", "END", "VAR", "TRUE", "FALSE"}

# Longest match first.
_SYMBOLS = [
    (":=", ("ASSIGN", ":=")),
    ("=>", ("OP", "⇒")),
    ("<=", ("OP", "≤")),
    (">=", ("OP", "≥")),
    ("!=", ("OP", "≠")),
    ("/\\", ("OP", "∧")),
    ("\\/", ("OP", "∨")),
    ("⇒", ("OP", "⇒")),
    ("≤", ("OP", "≤")),
    ("≥", ("OP", "≥")),
    ("≠", ("OP", "≠")),
    ("∧", ("OP", "∧")),
    ("∨", ("OP", "∨")),
    ("¬", ("OP", "¬")),
    ("~", ("OP", "¬")),
    ("+", ("OP", "+")),
    ("-", ("OP", "-")),
    ("*", ("OP", "*")),
    ("/", ("OP", "/")),
    ("%", ("OP", "%")),
    ("^", ("OP", "^")),
    ("<", ("OP", "<")),
    (">", ("OP", ">")),
    ("=", ("OP", "=")),
    ("{", ("LBRACE", "{")),
    ("}", ("RBRACE", "}")),
    ("(", ("LPAREN", "(")),
    (")", ("RPAREN", ")")),
    (";", ("SEMI", ";")),
    (",", ("COMMA", ",")),
]


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("NUM", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KW", word.upper(), line, col))
            elif word != word.lower():
                raise ParseError(f"identifiers are lowercase, got {word!r}", line, col)
            else:
                tokens.append(Token("IDENT", word, line, col))
            col += i - start
            continue
        for sym, (kind, value) in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(kind, value, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            cur = self.peek()
            expected = what or (value if value is not None else kind)
            got = cur.value or cur.kind
            raise ParseError(f"expected {expected}, got {got!r}", cur.line, cur.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def nested(self, parse):
        """Run `parse` one nesting level deeper, within MAX_NESTING."""
        if self.depth >= MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # -- expressions -------------------------------------------------------

    def expression(self, loosest: int = 1) -> Expr:
        """Precedence climbing over `_PREC`: an operand, then every binary
        operator that binds at least as tightly as `loosest`."""
        left = self._unary()
        while True:
            tok = self.peek()
            op = tok.value
            if tok.kind != "OP" or op == "¬" or _PREC[op] < loosest:
                return left
            self.advance()
            if op == "⇒":
                right = self.nested(self.expression)  # right-assoc
            else:
                right = self.expression(_PREC[op] + 1)
            nxt = self.peek()
            if op in REL_OPS and nxt.kind == "OP" and nxt.value in REL_OPS:
                raise ParseError("comparisons do not chain; parenthesise", nxt.line, nxt.col)
            left = Op(op, (left, right))

    def _unary(self) -> Expr:
        if self.accept("OP", "¬"):
            return Op("¬", (self.nested(self._unary),))
        return self._atom()

    def _atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Num(int(tok.value))
        if tok.kind == "IDENT":
            self.advance()
            return Var(tok.value)
        if tok.kind == "KW" and tok.value == "TRUE":
            self.advance()
            return TRUE
        if tok.kind == "KW" and tok.value == "FALSE":
            self.advance()
            return FALSE
        if self.accept("LPAREN"):
            e = self.nested(self.expression)
            self.expect("RPAREN")
            return e
        raise self.fail(f"expected an expression, got {tok.value or tok.kind!r}")

    def sorted_expression(self, want: str, what: str) -> Expr:
        tok = self.peek()
        e = self.expression()
        try:
            got = sort_of(e)
        except SortError as err:
            raise ParseError(f"{what}: {err}", tok.line, tok.col) from None
        if got != want:
            raise ParseError(f"{what} must be {want}-sorted, got {got}", tok.line, tok.col)
        return e

    def assertion(self, what: str) -> Expr:
        return self.sorted_expression(BOOL, what)

    # -- statements ----------------------------------------------------------

    def statements(self) -> Stmt:
        first = self.basic_statement()
        if self.accept("SEMI"):
            return Seq(first, self.statements())
        return first

    def basic_statement(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "KW":
            match tok.value:
                case "SKIP":
                    self.advance()
                    return Skip()
                case "IF":
                    self.advance()
                    cond = self.assertion("condition")
                    self.expect("KW", "THEN")
                    then_branch = self.nested(self.basic_statement)
                    if self.accept("KW", "ELSE"):
                        else_branch = self.nested(self.basic_statement)
                    else:
                        else_branch = Skip()
                    return If(cond, then_branch, else_branch)
                case "WHILE":
                    return self.while_statement(tok)
                case "BEGIN":
                    self.advance()
                    locals_: tuple[str, ...] = ()
                    if self.accept("KW", "VAR"):
                        names = [self.expect("IDENT", what="variable name").value]
                        while self.accept("COMMA"):
                            names.append(self.expect("IDENT", what="variable name").value)
                        self.expect("SEMI")
                        locals_ = tuple(names)
                    body = self.nested(self.statements)
                    self.expect("KW", "END")
                    if locals_:
                        return Block(locals_, body)
                    return body  # plain BEGIN..END is just grouping
        if tok.kind == "IDENT":
            self.advance()
            self.expect("ASSIGN")
            rhs = self.sorted_expression(NAT, "assignment right-hand side")
            return Assign(tok.value, rhs)
        raise self.fail(f"expected a statement, got {tok.value or tok.kind!r}")

    def while_statement(self, kw: Token) -> Stmt:
        self.advance()
        cond = self.assertion("loop condition")
        self.expect("KW", "DO")
        invariant = None
        if self.accept("LBRACE"):
            invariant = self.assertion("loop invariant")
            self.expect("RBRACE")
        body = self.nested(self.basic_statement)
        post = None
        # A trailing {q} is this loop's postcondition unless it is the last
        # thing in the file, in which case it is the program postcondition.
        if self.peek().kind == "LBRACE":
            save = self.pos
            self.advance()
            q = self.assertion("loop postcondition")
            self.expect("RBRACE")
            if self.peek().kind == "EOF":
                self.pos = save
            else:
                post = q
        return While(cond, body, invariant=invariant, post=post, line=kw.line)


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (no sort restriction)."""
    p = _Parser(tokenize(text))
    e = p.expression()
    p.expect("EOF", what="end of input")
    return e


def parse_program(text: str) -> Triple:
    """Parse a ``{pre} statements {post}`` file into a sort-checked Triple."""
    p = _Parser(tokenize(text))
    p.expect("LBRACE", what="'{' opening the precondition")
    pre = p.assertion("precondition")
    p.expect("RBRACE")
    program = p.statements()
    p.expect("LBRACE", what="'{' opening the postcondition")
    post = p.assertion("postcondition")
    p.expect("RBRACE")
    p.expect("EOF", what="end of input")
    return Triple(pre, program, post)


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty(e: Expr) -> str:
    """Render an expression with unicode operators and minimal parentheses.

    Arithmetic and relational operators print tight (``x+1``, ``x%2=1``);
    boolean connectives are spaced.
    """
    return _pretty_expr(e, 0, "")


def _pretty_expr(e: Expr, parent: int, side: str) -> str:
    match e:
        case Var(name):
            return name
        case Num(value):
            return str(value)
        case Ctor("True"):
            return "true"
        case Ctor("False"):
            return "false"
        case Op("¬", (a,)):
            return "¬" + _pretty_expr(a, _PREC["¬"], "right")
        case Op(op, (a, b)):
            prec = _PREC[op]
            assoc = "right" if op == "⇒" else ("" if op in REL_OPS else "left")
            body = (
                _pretty_expr(a, prec, "left")
                + (f" {op} " if op in BOOL_BINOPS else op)
                + _pretty_expr(b, prec, "right")
            )
            if prec < parent or (prec == parent and side != assoc):
                return f"({body})"
            return body
        case Case(cond, then, other):
            body = (
                f"if {_pretty_expr(cond, 0, '')} then "
                f"{_pretty_expr(then, 0, '')} else {_pretty_expr(other, 0, '')}"
            )
            return f"({body})" if parent > 0 else body
        case _:
            raise TypeError(f"not an Expr: {e!r}")

"""Text front-end for knowledge bases (`.rck` files).

Grammar (one declaration/statement per line; `#` starts a comment):

    decl  := "class" ID | "property" ID | "individual" ID
           | "sentence" ID "iff" propexpr "(" ID ")"
    stmt  := "stat" "%" "(" classexpr "," propexpr ")"
                 ("=" NUM | "in" "[" NUM "," NUM "]")
           | "member" ID "in" classexpr
           | "subset" classexpr "<" classexpr
           | "equiv" ID ID
    classexpr := ID ("&" ID)*
    propexpr  := unary ("&" unary)*;  unary := "!" unary | "(" propexpr ")" | ID

Numbers are ASCII decimals (``[0-9]``) in [0,1], parsed to exact rationals.
Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` other than the keywords; ``U`` names
the universal class, so no class can be declared with that name.

The DSL checks syntax and number ranges, and that a sentence label is declared
once.  Every other rule, and its message, belongs to :mod:`refclass.core`; the
parser calls it at the token it applies to.

`parse_kb` and `parse_query` split text where `str.splitlines` does, and the
tokenizer reads one line.  A KB line in a flat shape `render` writes, with
single spaces and no comment (``class a``, ``member i in a & b``,
``sentence S iff !p(i)``), goes straight to the builder calls the token parser
would make.  Every other line, and a flat line a check rejects, is tokenized
and parsed alone, so every diagnostic comes from the token parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    KEYWORDS,
    CanonicalClass,
    CanonicalProperty,
    Interval,
    KBBuilder,
    KBError,
    PropAnd,
    PropAtom,
    PropNot,
    canonicalize_property,
    _IDENTIFIER,
    _TOO_DEEP,
    _check_declared,
)

_ID = _IDENTIFIER.pattern

# Whitespace and comments match without a group, so their `lastgroup` is None.
_TOKEN_RE = re.compile(
    r"\s+|#.*"
    r"|(?P<num>[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)"
    rf"|(?P<id>{_ID})"
    r"|(?P<sym>[%()\[\],=<&!])"
    r"|(?P<bad>.)"
)

# The flat line shapes `render` writes, one space between tokens.
_FLAT_RE = re.compile(
    rf"(?P<decl>class|property|individual) (?P<name>{_ID})"
    rf"|member (?P<ind>{_ID}) in (?P<atoms>{_ID}(?: & {_ID})*)"
    rf"|sentence (?P<label>{_ID}) iff (?P<neg>!?)(?P<atom>{_ID})\((?P<of>{_ID})\)"
)


@dataclass
class DslError(KBError):
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseFailure(KBError):
    """Raised when a document contains one or more errors."""

    def __init__(self, errors: list[DslError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors))


class Token:
    __slots__ = ("kind", "text", "line", "column")  # kind: 'num' | 'id' | 'sym' | 'eol' | 'bad'

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind, self.text, self.line, self.column = kind, text, line, column


def _tokens(line: str, number: int) -> tuple[list[Token], Optional[Token]]:
    """Line `number`'s tokens, ending in an 'eol' token, and its first 'bad'
    token or None."""
    tokens, bad = [], None
    for m in _TOKEN_RE.finditer(line):
        if m.lastgroup == "bad":
            bad = bad or Token("bad", m[0], number, m.start() + 1)
        elif m.lastgroup:
            tokens.append(Token(m.lastgroup, m[0], number, m.start() + 1))
    tokens.append(Token("eol", "", number, len(line) + 1))
    return tokens, bad


class _Parser:
    """The grammar, applied to one line's tokens at a time.  One parser reads
    a whole document, so its lines share one memo of canonical properties."""

    def __init__(self, builder: KBBuilder):
        self.builder = builder
        self.canonical: dict = {}  # property tree -> its CanonicalProperty

    def run(self, tokens: list[Token], bad: Optional[Token], rule):
        """Apply a grammar rule to one line.  Nesting too deep for the stack,
        or a core error blamed on no token, is reported at the line."""
        if bad is not None:
            raise DslError(f"unexpected character {bad.text!r}", bad.line, bad.column)
        self.tokens, self.pos, self.cur = tokens, 0, tokens[0]
        try:
            return rule(self)
        except RecursionError:
            raise DslError(_TOO_DEEP, tokens[0].line, 1) from None
        except DslError:
            raise
        except KBError as e:
            raise DslError(str(e), tokens[0].line, 1) from e

    # -- token helpers --------------------------------------------------

    def error(self, message: str, tok: Optional[Token] = None) -> DslError:
        tok = tok or self.cur
        return DslError(message, tok.line, tok.column)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]
        return tok

    def accept(self, text: str) -> bool:
        """Take a symbol or keyword, whose text alone fixes the token's kind."""
        if self.cur.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.cur.text != text:
            raise self.error(f"expected {text!r}, found {self.cur.text or 'end of line'!r}")
        return self.advance()

    def expect_id(self, what: str = "identifier") -> Token:
        if self.cur.kind != "id" or self.cur.text in KEYWORDS:
            raise self.error(f"expected {what}, found {self.cur.text or 'end of line'!r}")
        return self.advance()

    def expect_eol(self) -> None:
        if self.cur.kind != "eol":
            raise self.error(f"unexpected trailing input {self.cur.text!r}")

    def expect_num(self) -> Fraction:
        if self.cur.kind != "num":
            raise self.error(f"expected number, found {self.cur.text or 'end of line'!r}")
        tok = self.advance()
        value = Fraction(tok.text)
        if not 0 <= value <= 1:
            raise self.error(f"number {tok.text} outside [0, 1]", tok)
        return value

    def at(self, tok: Token, call, *args):
        """Run a builder or core call; its KBError becomes a DslError at `tok`."""
        try:
            return call(*args)
        except KBError as e:
            raise self.error(str(e), tok) from e

    def declared_id(self, what: str, kind: str, names) -> str:
        tok = self.expect_id(what)
        self.at(tok, _check_declared, kind, tok.text, names)
        return tok.text

    # -- grammar --------------------------------------------------------

    def class_expr(self) -> CanonicalClass:
        atoms = {self.declared_id("class atom", "class", self.builder.class_atoms)}
        while self.accept("&"):
            atoms.add(self.declared_id("class atom", "class", self.builder.class_atoms))
        return CanonicalClass(tuple(sorted(atoms)))

    def prop_expr(self) -> CanonicalProperty:
        return self.canonical_of(self._prop_tree())

    def canonical_of(self, tree) -> CanonicalProperty:
        prop = self.canonical.get(tree)
        if prop is None:
            prop = self.canonical[tree] = canonicalize_property(tree)
        return prop

    def _prop_tree(self):
        expr = self._prop_unary()
        while self.accept("&"):
            expr = PropAnd(expr, self._prop_unary())
        return expr

    def _prop_unary(self):
        if self.accept("!"):
            return PropNot(self._prop_unary())
        if self.accept("("):
            inner = self._prop_tree()
            self.expect(")")
            return inner
        return PropAtom(self.declared_id("property atom", "property", self.builder.property_atoms))

    def sentence_form(self) -> tuple[CanonicalProperty, str]:
        """``propexpr "(" individual ")"``, in declarations and in queries."""
        prop = self.prop_expr()
        self.expect("(")
        ind = self.declared_id("individual", "individual", self.builder.individuals)
        self.expect(")")
        return prop, ind

    def interval_expr(self) -> Interval:
        if self.accept("="):
            value = self.expect_num()
            return Interval(value, value)
        if self.accept("in"):
            self.expect("[")
            start = self.cur
            lo = self.expect_num()
            self.expect(",")
            hi = self.expect_num()
            self.expect("]")
            return self.at(start, Interval, lo, hi)
        raise self.error(f"expected '=' or 'in', found {self.cur.text or 'end of line'!r}")

    # -- line dispatch ----------------------------------------------------

    def parse_line(self) -> None:
        if self.cur.kind == "eol":
            return
        head = self.cur
        if head.kind != "id":
            raise self.error(f"expected declaration or statement, found {head.text!r}")
        handler = self.DIRECTIVES.get(head.text)
        if handler is None:
            raise self.error(f"unknown directive {head.text!r}", head)
        self.advance()
        handler(self)
        self.expect_eol()

    def _decl_name(self) -> None:
        kind = self.tokens[0].text  # 'class' | 'property' | 'individual'
        tok = self.expect_id(f"{kind} name")
        self.at(tok, getattr(self.builder, f"declare_{kind}"), tok.text)

    def _decl_sentence(self) -> None:
        # Stricter than the builder, which accepts an identical re-declaration.
        label = self.expect_id("sentence label")
        if label.text in self.builder.sentence_forms:
            raise self.error(f"duplicate sentence declaration: {label.text}", label)
        self.expect("iff")
        self.builder.declare_sentence(label.text, *self.sentence_form())

    def _stmt_stat(self) -> None:
        self.expect("%")
        self.expect("(")
        cls = self.class_expr()
        self.expect(",")
        prop = self.prop_expr()
        self.expect(")")
        self.builder.assert_stat(cls, prop, self.interval_expr())

    def _stmt_member(self) -> None:
        ind = self.declared_id("individual", "individual", self.builder.individuals)
        self.expect("in")
        self.builder.assert_member(ind, self.class_expr())

    def _stmt_subset(self) -> None:
        sub = self.class_expr()
        self.expect("<")
        sup = self.class_expr()
        self.at(self.cur, self.builder.assert_subset, sub, sup)

    def _stmt_equiv(self) -> None:
        a = self.expect_id("sentence label")
        b = self.expect_id("sentence label")
        for tok in (a, b):
            self.at(tok, _check_declared, "sentence", tok.text, self.builder.sentence_forms)
        self.builder.assert_equiv(a.text, b.text)

    def flat(self, m: re.Match) -> bool:
        """Make the builder calls `parse_line` makes for a line `_FLAT_RE`
        matched.  False, with the builder unchanged, if a check rejects it."""
        b = self.builder
        try:
            if m["decl"]:
                getattr(b, f"declare_{m['decl']}")(m["name"])
            elif m["ind"]:
                atoms = tuple(sorted(set(m["atoms"].split(" & "))))
                b.assert_member(m["ind"], CanonicalClass(atoms))
            elif m["label"] in b.sentence_forms:
                return False
            else:
                tree = PropAtom(m["atom"])
                prop = self.canonical_of(PropNot(tree) if m["neg"] else tree)
                b.declare_sentence(m["label"], prop, m["of"])
        except KBError:
            return False
        return True

    def query(self) -> str:
        if (self.cur.kind == "id" and self.cur.text not in KEYWORDS
                and self.tokens[1].kind == "eol"):
            tok = self.advance()
            self.at(tok, _check_declared, "sentence", tok.text, self.builder.sentence_forms)
            return tok.text
        form = self.sentence_form()
        self.expect_eol()
        label = self.builder.query_sentences.get(form)
        if label is None:
            k = len(self.builder.query_sentences)
            while f"{QUERY_PREFIX}{k}" in self.builder.sentence_forms:
                k += 1
            label = f"{QUERY_PREFIX}{k}"
            self.builder.declare_sentence(label, *form)
            self.builder.query_sentences[form] = label
        return label

    DIRECTIVES = {
        "class": _decl_name, "property": _decl_name,
        "individual": _decl_name, "sentence": _decl_sentence,
        "stat": _stmt_stat, "member": _stmt_member,
        "subset": _stmt_subset, "equiv": _stmt_equiv,
    }


def parse_kb(text: str) -> KBBuilder:
    """Parse a document into a builder; raises ParseFailure with every
    line-level error found (parsing continues past bad lines)."""
    parser = _Parser(KBBuilder())
    errors: list[DslError] = []
    for number, line in enumerate(text.splitlines(), 1):
        m = _FLAT_RE.fullmatch(line)
        if m is not None and parser.flat(m):
            continue
        try:
            parser.run(*_tokens(line, number), _Parser.parse_line)
        except DslError as e:
            errors.append(e)
    if errors:
        raise ParseFailure(errors)
    return parser.builder


QUERY_PREFIX = "__q"


def parse_query(text: str, builder: KBBuilder) -> str:
    """Resolve a query to a sentence label.

    A bare identifier must name a declared sentence.  An inline form like
    ``heads(t14)`` declares (or reuses) an anonymous sentence for that
    canonical form.
    """
    tokens, bad = [], None
    for number, line in enumerate(text.strip().splitlines() or [""], 1):
        line_tokens, line_bad = _tokens(line, number)  # a line break acts as a space
        tokens, bad = tokens[:-1] + line_tokens, bad or line_bad
    return _Parser(builder).run(tokens, bad, _Parser.query)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_number(x: Fraction) -> str:
    """Exact decimal for a rational with a 2^a * 5^b denominator."""
    den = x.denominator
    k2 = k5 = 0
    while den % 2 == 0:
        den //= 2
        k2 += 1
    while den % 5 == 0:
        den //= 5
        k5 += 1
    if den != 1:
        raise ValueError(f"{x} has no finite decimal expansion")
    shift = max(k2, k5)
    digits = x.numerator * 10 ** shift // x.denominator
    if shift == 0:
        return str(digits)
    s = str(digits).rjust(shift + 1, "0")
    return f"{s[:-shift]}.{s[-shift:]}"


def _render_property(prop: CanonicalProperty, fallback_atom: Optional[str]) -> str:
    """Serialize a canonical property using only !, & and parentheses.

    True and false are written with `fallback_atom`, a declared property."""
    if not prop.atoms and fallback_atom is None:
        raise ValueError(f"{prop} cannot be written without a declared property")
    if prop.is_contradiction:
        return f"{fallback_atom} & !{fallback_atom}"
    if prop.is_tautology:
        return f"!({fallback_atom} & !{fallback_atom})"

    terms = prop.minterms()
    if len(terms) == 1:
        return terms[0]
    # f = m1 | m2 | ... = !(!m1 & !m2 & ...)
    inner = " & ".join(f"!({m})" for m in terms)
    return f"!({inner})"


def render(builder: KBBuilder) -> str:
    """Serialize in canonical order; parse(render(kb)) has identical closure.

    Raises ValueError for a number with no finite decimal expansion, and
    for a tautology or contradiction in a KB that declares no property."""
    lines: list[str] = []
    for kind, names in (("class", builder.class_atoms), ("property", builder.property_atoms),
                        ("individual", builder.individuals)):
        lines.extend(f"{kind} {name}" for name in sorted(names))
    fallback = min(builder.property_atoms, default=None)
    for f in builder.forms:
        prop = _render_property(f.prop, fallback)
        lines.append(f"sentence {f.sentence} iff {prop}({f.individual})")
    for s in builder.stats:
        cls = " & ".join(s.cls.atoms)
        prop = _render_property(s.prop, fallback)
        if s.interval.is_point:
            lines.append(f"stat %({cls}, {prop}) = {_render_number(s.interval.lo)}")
        else:
            lines.append(
                f"stat %({cls}, {prop}) in "
                f"[{_render_number(s.interval.lo)}, {_render_number(s.interval.hi)}]"
            )
    lines.extend(f"member {m.individual} in {' & '.join(m.cls.atoms)}" for m in builder.members)
    lines.extend(f"subset {' & '.join(s.sub.atoms)} < {' & '.join(s.sup.atoms)}"
                 for s in builder.subsets)
    lines.extend(f"equiv {e.s1} {e.s2}" for e in builder.equivs)
    return "\n".join(lines) + ("\n" if lines else "")

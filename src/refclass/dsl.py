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

Numbers are decimals in [0,1], parsed to exact rationals.  Identifiers are
``[A-Za-z_][A-Za-z0-9_]*``; keywords and the universal class name ``U`` are
reserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    UNIVERSAL_NAME,
    CanonicalClass,
    CanonicalProperty,
    ClassAnd,
    ClassAtom,
    Interval,
    KBBuilder,
    KBError,
    PropAnd,
    PropAtom,
    PropNot,
    canonicalize_class,
    canonicalize_property,
)

KEYWORDS = {
    "class", "property", "individual", "sentence", "iff",
    "stat", "member", "in", "subset", "equiv",
}

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#.*)"
    r"|(?P<num>\d+\.\d+|\.\d+|\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>%|\(|\)|\[|\]|,|=|<|&|!)"
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


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'id' | 'sym' | 'eol'
    text: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        tokens.append(Token(kind, m.group(), line_no, m.start() + 1))
    tokens.append(Token("eol", "", line_no, len(text) + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[Token], builder: KBBuilder):
        self.tokens = tokens
        self.pos = 0
        self.builder = builder

    # -- token helpers --------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Optional[Token] = None) -> DslError:
        tok = tok or self.cur
        return DslError(message, tok.line, tok.column)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        if self.cur.kind != "sym" or self.cur.text != sym:
            raise self.error(f"expected {sym!r}, found {self.cur.text or 'end of line'!r}")
        return self.advance()

    def expect_id(self, what: str = "identifier") -> Token:
        if self.cur.kind != "id" or self.cur.text in KEYWORDS:
            raise self.error(f"expected {what}, found {self.cur.text or 'end of line'!r}")
        return self.advance()

    def expect_keyword(self, kw: str) -> Token:
        if self.cur.kind != "id" or self.cur.text != kw:
            raise self.error(f"expected {kw!r}, found {self.cur.text or 'end of line'!r}")
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

    # -- grammar --------------------------------------------------------

    def class_expr(self) -> CanonicalClass:
        tok = self.expect_id("class atom")
        self._check_declared_class(tok)
        expr = ClassAtom(tok.text)
        while self.cur.kind == "sym" and self.cur.text == "&":
            self.advance()
            tok = self.expect_id("class atom")
            self._check_declared_class(tok)
            expr = ClassAnd(expr, ClassAtom(tok.text))
        return canonicalize_class(expr, self.builder.class_atoms)

    def _check_declared_class(self, tok: Token) -> None:
        if tok.text not in self.builder.class_atoms:
            raise self.error(f"undeclared class: {tok.text}", tok)

    def prop_expr(self) -> CanonicalProperty:
        expr = self._prop_unary()
        while self.cur.kind == "sym" and self.cur.text == "&":
            self.advance()
            expr = PropAnd(expr, self._prop_unary())
        return canonicalize_property(expr, self.builder.property_atoms)

    def _prop_unary(self):
        if self.cur.kind == "sym" and self.cur.text == "!":
            self.advance()
            return PropNot(self._prop_unary())
        if self.cur.kind == "sym" and self.cur.text == "(":
            self.advance()
            inner = self._prop_tree()
            self.expect_sym(")")
            return inner
        tok = self.expect_id("property atom")
        if tok.text not in self.builder.property_atoms:
            raise self.error(f"undeclared property: {tok.text}", tok)
        return PropAtom(tok.text)

    def _prop_tree(self):
        expr = self._prop_unary()
        while self.cur.kind == "sym" and self.cur.text == "&":
            self.advance()
            expr = PropAnd(expr, self._prop_unary())
        return expr

    def interval_expr(self) -> Interval:
        if self.cur.kind == "sym" and self.cur.text == "=":
            self.advance()
            value = self.expect_num()
            return Interval(value, value)
        if self.cur.kind == "id" and self.cur.text == "in":
            self.advance()
            self.expect_sym("[")
            start = self.cur
            lo = self.expect_num()
            self.expect_sym(",")
            hi = self.expect_num()
            self.expect_sym("]")
            if lo > hi:
                raise self.error(f"malformed interval [{lo}, {hi}]", start)
            return Interval(lo, hi)
        raise self.error(f"expected '=' or 'in', found {self.cur.text or 'end of line'!r}")

    # -- line dispatch ----------------------------------------------------

    def parse_line(self) -> None:
        if self.cur.kind == "eol":
            return
        head = self.cur
        if head.kind != "id":
            raise self.error(f"expected declaration or statement, found {head.text!r}")
        handler = {
            "class": self._decl_class,
            "property": self._decl_property,
            "individual": self._decl_individual,
            "sentence": self._decl_sentence,
            "stat": self._stmt_stat,
            "member": self._stmt_member,
            "subset": self._stmt_subset,
            "equiv": self._stmt_equiv,
        }.get(head.text)
        if handler is None:
            raise self.error(f"unknown directive {head.text!r}", head)
        self.advance()
        handler()
        self.expect_eol()

    def _decl_class(self) -> None:
        tok = self.expect_id("class name")
        if tok.text == UNIVERSAL_NAME:
            raise self.error(f"class name {UNIVERSAL_NAME!r} is reserved", tok)
        if tok.text in self.builder.class_atoms:
            raise self.error(f"duplicate class declaration: {tok.text}", tok)
        self.builder.declare_class(tok.text)

    def _decl_property(self) -> None:
        tok = self.expect_id("property name")
        if tok.text in self.builder.property_atoms:
            raise self.error(f"duplicate property declaration: {tok.text}", tok)
        self.builder.declare_property(tok.text)

    def _decl_individual(self) -> None:
        tok = self.expect_id("individual name")
        if tok.text in self.builder.individuals:
            raise self.error(f"duplicate individual declaration: {tok.text}", tok)
        self.builder.declare_individual(tok.text)

    def _decl_sentence(self) -> None:
        label = self.expect_id("sentence label")
        if label.text in self.builder.sentence_forms:
            raise self.error(f"duplicate sentence declaration: {label.text}", label)
        self.expect_keyword("iff")
        prop = self.prop_expr()
        self.expect_sym("(")
        ind = self.expect_id("individual")
        if ind.text not in self.builder.individuals:
            raise self.error(f"undeclared individual: {ind.text}", ind)
        self.expect_sym(")")
        self.builder.declare_sentence(label.text, prop, ind.text)

    def _stmt_stat(self) -> None:
        self.expect_sym("%")
        self.expect_sym("(")
        cls = self.class_expr()
        self.expect_sym(",")
        prop = self.prop_expr()
        self.expect_sym(")")
        interval = self.interval_expr()
        self.builder.assert_stat(cls, prop, interval)

    def _stmt_member(self) -> None:
        ind = self.expect_id("individual")
        if ind.text not in self.builder.individuals:
            raise self.error(f"undeclared individual: {ind.text}", ind)
        self.expect_keyword("in")
        cls = self.class_expr()
        self.builder.assert_member(ind.text, cls)

    def _stmt_subset(self) -> None:
        sub = self.class_expr()
        self.expect_sym("<")
        sup = self.class_expr()
        if sub == sup:
            raise self.error(f"subset statement with identical classes: {sub}")
        self.builder.assert_subset(sub, sup)

    def _stmt_equiv(self) -> None:
        a = self.expect_id("sentence label")
        b = self.expect_id("sentence label")
        for tok in (a, b):
            if tok.text not in self.builder.sentence_forms:
                raise self.error(f"undeclared sentence: {tok.text}", tok)
        self.builder.assert_equiv(a.text, b.text)


def parse_kb(text: str) -> KBBuilder:
    """Parse a document into a builder; raises ParseFailure with every
    line-level error found (parsing continues past bad lines)."""
    builder = KBBuilder()
    errors: list[DslError] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        try:
            tokens = _tokenize_line(line, line_no)
            _LineParser(tokens, builder).parse_line()
        except DslError as e:
            errors.append(e)
        except KBError as e:
            errors.append(DslError(str(e), line_no, 1))
    if errors:
        raise ParseFailure(errors)
    return builder


QUERY_PREFIX = "__q"


def parse_query(text: str, builder: KBBuilder) -> str:
    """Resolve a query to a sentence label.

    A bare identifier must name a declared sentence.  An inline form like
    ``heads(t14)`` declares (or reuses) an anonymous sentence for that
    canonical form.
    """
    tokens = _tokenize_line(text.strip(), 1)
    parser = _LineParser(tokens, builder)
    if (parser.cur.kind == "id" and parser.cur.text not in KEYWORDS
            and parser.tokens[1].kind == "eol"):
        label = parser.advance().text
        if label not in builder.sentence_forms:
            raise DslError(f"undeclared sentence: {label}", 1, tokens[0].column)
        return label
    prop = parser.prop_expr()
    parser.expect_sym("(")
    ind = parser.expect_id("individual")
    if ind.text not in builder.individuals:
        raise parser.error(f"undeclared individual: {ind.text}", ind)
    parser.expect_sym(")")
    parser.expect_eol()
    form = (prop, ind.text)
    label = builder.query_sentences.get(form)
    if label is None:
        k = len(builder.query_sentences)
        while f"{QUERY_PREFIX}{k}" in builder.sentence_forms:
            k += 1
        label = f"{QUERY_PREFIX}{k}"
        builder.declare_sentence(label, prop, ind.text)
        builder.query_sentences[form] = label
    return label


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


def _render_property(prop: CanonicalProperty, fallback_atom: str) -> str:
    """Serialize a canonical property using only !, & and parentheses."""
    if prop.is_contradiction:
        return f"{fallback_atom} & !{fallback_atom}"
    if prop.is_tautology:
        return f"!({fallback_atom} & !{fallback_atom})"

    def minterm(mask: int) -> str:
        return " & ".join(
            a if mask >> i & 1 else f"!{a}" for i, a in enumerate(prop.atoms)
        )

    rows = sorted(prop.rows)
    if len(rows) == 1:
        return minterm(rows[0])
    # f = m1 | m2 | ... = !(!m1 & !m2 & ...)
    inner = " & ".join(f"!({minterm(m)})" for m in rows)
    return f"!({inner})"


def render(builder: KBBuilder) -> str:
    """Serialize in canonical order; parse(render(kb)) has identical closure."""
    lines: list[str] = []
    for name in sorted(builder.class_atoms):
        lines.append(f"class {name}")
    for name in sorted(builder.property_atoms):
        lines.append(f"property {name}")
    for name in sorted(builder.individuals):
        lines.append(f"individual {name}")
    fallback = min(builder.property_atoms) if builder.property_atoms else "p"
    for label in sorted(builder.sentence_forms):
        prop, ind = builder.sentence_forms[label]
        lines.append(f"sentence {label} iff {_render_property(prop, fallback)}({ind})")
    for s in sorted(builder.stats,
                    key=lambda s: (s.cls.sort_key(), s.prop.sort_key(),
                                   s.interval.lo, s.interval.hi)):
        cls = " & ".join(s.cls.atoms)
        prop = _render_property(s.prop, fallback)
        if s.interval.is_point:
            lines.append(f"stat %({cls}, {prop}) = {_render_number(s.interval.lo)}")
        else:
            lines.append(
                f"stat %({cls}, {prop}) in "
                f"[{_render_number(s.interval.lo)}, {_render_number(s.interval.hi)}]"
            )
    for m in sorted(builder.members, key=lambda m: (m.individual, m.cls.sort_key())):
        lines.append(f"member {m.individual} in {' & '.join(m.cls.atoms)}")
    for s in sorted(builder.subsets, key=lambda s: (s.sub.sort_key(), s.sup.sort_key())):
        lines.append(f"subset {' & '.join(s.sub.atoms)} < {' & '.join(s.sup.atoms)}")
    for e in sorted(builder.equivs, key=lambda e: (e.s1, e.s2)):
        lines.append(f"equiv {e.s1} {e.s2}")
    return "\n".join(lines) + ("\n" if lines else "")

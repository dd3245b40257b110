"""DSL: parsing, diagnostics, queries, rendering, round-trips."""

import glob
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refclass as rc
from refclass import dsl
from conftest import (
    closure_signature,
    coin_builder,
    oracle_parse_kb,
    random_builder,
    random_profile_builder,
    random_subset_builder,
)
from refclass.dsl import KEYWORDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

# Every boundary str.splitlines splits at; "\r" then "\n" is one.
LINE_BREAKS = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
PADDING = ["", " ", "\t", "\x1f", "\xa0"]  # none, or whitespace that ends no line

COIN_TEXT = """\
# a fair coin
class tosses
property heads
individual t14
sentence S14 iff heads(t14)
stat %(tosses, heads) = 0.5
member t14 in tosses
"""


def cls(*atoms):
    return rc.CanonicalClass(tuple(sorted(atoms)))


def prop(name):
    return rc.canonicalize_property(rc.PropAtom(name))


class TestParseKb:
    def test_coin(self):
        b = rc.parse_kb(COIN_TEXT)
        assert closure_signature(b.close()) == closure_signature(coin_builder().close())

    def test_point_stat(self):
        b = rc.parse_kb("class tosses\nproperty heads\nstat %(tosses, heads) = 0.5\n")
        [s] = b.stats
        assert s.interval == rc.Interval.point(Fraction(1, 2))

    def test_interval_stat(self):
        b = rc.parse_kb("class r\nproperty p\nstat %(r, p) in [0.4, 0.6]\n")
        [s] = b.stats
        assert s.interval == rc.Interval(Fraction(2, 5), Fraction(3, 5))

    def test_intersection_class(self):
        b = rc.parse_kb(
            "class a\nclass b\nindividual i\nmember i in a & b\n"
        )
        [m] = b.members
        assert m.cls == cls("a", "b")

    def test_property_formula(self):
        b = rc.parse_kb(
            "class r\nproperty p\nproperty q\nstat %(r, !(p & !q)) in [0.1, 0.2]\n"
        )
        [s] = b.stats
        want = rc.canonicalize_property(
            rc.PropNot(rc.PropAnd(rc.PropAtom("p"), rc.PropNot(rc.PropAtom("q"))))
        )
        assert s.prop == want

    def test_undeclared_identifier_located(self):
        text = "class tosses\nindividual t14\nmember t14 in tosses & by_sam\n"
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb(text)
        [err] = exc.value.errors
        assert err.line == 3
        assert err.column == 24
        assert "by_sam" in err.message

    def test_errors_collected_across_lines(self):
        text = "class a\nclass a\nproperty p\nstat %(b, p) = 0.5\n"
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb(text)
        assert len(exc.value.errors) == 2
        assert [e.line for e in exc.value.errors] == [2, 4]

    def test_number_out_of_range(self):
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb("class r\nproperty p\nstat %(r, p) = 1.5\n")
        assert "outside" in exc.value.errors[0].message

    def test_malformed_interval(self):
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb("class r\nproperty p\nstat %(r, p) in [0.7, 0.2]\n")
        assert "malformed interval" in exc.value.errors[0].message

    def test_reserved_universal_name(self):
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb("class U\n")
        assert "reserved" in exc.value.errors[0].message

    def test_trailing_garbage(self):
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb("class a extra\n")
        assert "trailing" in exc.value.errors[0].message

    def test_equiv_requires_declared_sentences(self):
        text = (
            "property p\nindividual i\nsentence S1 iff p(i)\nequiv S1 S9\n"
        )
        with pytest.raises(rc.ParseFailure) as exc:
            rc.parse_kb(text)
        assert "S9" in exc.value.errors[0].message

    def test_subset_statement(self):
        b = rc.parse_kb("class a\nclass b\nsubset a < b\n")
        [s] = b.subsets
        assert (s.sub, s.sup) == (cls("a"), cls("b"))


class TestParseQuery:
    def test_declared_sentence(self):
        b = rc.parse_kb(COIN_TEXT)
        assert rc.parse_query("S14", b) == "S14"

    def test_inline_form(self):
        b = rc.parse_kb(COIN_TEXT)
        label = rc.parse_query("heads(t14)", b)
        assert b.sentence_forms[label] == (prop("heads"), "t14")
        # reuse on repeat
        assert rc.parse_query("heads(t14)", b) == label
        assert rc.parse_query("!!heads(t14)", b) == label
        # a declared label is skipped, and the answers agree
        b = rc.parse_kb(COIN_TEXT + "sentence __q0 iff heads(t14)\n")
        assert rc.parse_query("heads(t14)", b) == "__q1"
        ckb = b.close()
        assert rc.prob_interval(ckb, "__q1") == rc.prob_interval(ckb, "__q0")

    def test_contradiction_form(self):
        b = rc.parse_kb(COIN_TEXT)
        label = rc.parse_query("!heads & heads (t14)", b)
        assert b.sentence_forms[label] == (rc.CONTRADICTION, "t14")

    @pytest.mark.parametrize("gap", LINE_BREAKS + ["\x1f", "\xa0"])
    def test_line_break_separates_tokens(self, gap):
        """A line boundary of str.splitlines, or whitespace that ends no
        line, separates tokens; only a boundary starts line 2."""
        b = rc.parse_kb(COIN_TEXT)
        assert rc.parse_query(f"heads{gap}(t14)", b) == rc.parse_query("heads(t14)", b)
        with pytest.raises(rc.DslError) as exc:
            rc.parse_query(f"heads({gap} t99)", b)
        where = (2, 2) if gap in LINE_BREAKS else (1, 9)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "undeclared individual: t99", *where)

    def test_undeclared_sentence(self):
        b = rc.parse_kb(COIN_TEXT)
        with pytest.raises(rc.DslError):
            rc.parse_query("S99", b)

    def test_undeclared_individual(self):
        b = rc.parse_kb(COIN_TEXT)
        with pytest.raises(rc.DslError):
            rc.parse_query("heads(t99)", b)


class TestRender:
    def test_coin_golden(self):
        got = rc.render(coin_builder())
        assert got == (
            "class tosses\n"
            "property heads\n"
            "individual t14\n"
            "sentence S14 iff heads(t14)\n"
            "stat %(tosses, heads) = 0.5\n"
            "member t14 in tosses\n"
        )

    def test_intersection_sorted(self):
        b = rc.parse_kb("class b\nclass a\nindividual i\nmember i in b & a\n")
        assert "member i in a & b" in rc.render(b)

    def test_empty_kb(self):
        assert rc.render(rc.KBBuilder()) == ""

    def test_roundtrip_closure(self):
        texts = {"inline": (
            "class a\nclass b\nproperty p\nproperty q\nindividual i\n"
            "sentence S iff !(p & !q)(i)\n"
            "stat %(a & b, p) in [0.25, 0.75]\n"
            "stat %(a, !p) = 0.3\n"
            "member i in a\nmember i in b\n"
            "subset a < b\n"
        )}
        paths = glob.glob(os.path.join(ROOT, "kbs", "*.rck")) + glob.glob(
            os.path.join(FIXTURES, "*.rck"))
        assert len(paths) >= 6
        for path in sorted(paths):
            with open(path, encoding="utf-8") as fh:
                texts[os.path.relpath(path, ROOT)] = fh.read()
        for name, text in texts.items():
            b1 = rc.parse_kb(text)
            b2 = rc.parse_kb(rc.render(b1))
            assert closure_signature(b1.close()) == closure_signature(b2.close()), name

    def test_render_parse_render_fixpoint(self):
        text = COIN_TEXT
        once = rc.render(rc.parse_kb(text))
        assert rc.render(rc.parse_kb(once)) == once

    def test_tautology_rendering(self):
        b = rc.parse_kb("class r\nproperty p\nstat %(r, !(p & !p)) = 1\n")
        b2 = rc.parse_kb(rc.render(b))
        assert closure_signature(b.close()) == closure_signature(b2.close())

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=4),
                     st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                     st.sampled_from(sorted(KEYWORDS) + ["U"])))
    def test_accepted_names_survive_render(self, name):
        """A name the builder accepts, in every place it can take, parses back."""
        b = rc.KBBuilder()
        for declare in (b.declare_class, b.declare_property, b.declare_individual):
            try:
                declare(name)
            except rc.DeclarationError:
                pass
        if name in b.property_atoms and name in b.individuals:
            b.declare_sentence(name, prop(name), name)
        if name in b.class_atoms and name in b.property_atoms:
            b.assert_stat(cls(name), prop(name), rc.Interval.point(Fraction(1, 2)))
        if name in b.class_atoms and name in b.individuals:
            b.assert_member(name, cls(name))
        text = rc.render(b)
        assert rc.render(rc.parse_kb(text)) == text

    def test_nondecimal_rational_unrenderable(self):
        b = rc.KBBuilder()
        b.declare_class("r")
        b.declare_property("p")
        b.assert_stat(cls("r"), prop("p"), rc.Interval.point(Fraction(1, 3)))
        with pytest.raises(ValueError, match="decimal"):
            rc.render(b)

    @pytest.mark.parametrize("constant", [rc.TAUTOLOGY, rc.CONTRADICTION])
    def test_constant_without_property_unrenderable(self, constant):
        """True and false are written with a declared property; with none,
        no document would parse back."""
        b = rc.KBBuilder()
        b.declare_individual("i")
        b.declare_sentence("S", constant, "i")
        with pytest.raises(ValueError, match="without a declared property"):
            rc.render(b)


# ---------------------------------------------------------------------------
# One canonical statement order, whatever the assertion order
# ---------------------------------------------------------------------------

CANONICAL_KEYS = {
    "stats": lambda s: (s.cls.sort_key(), s.prop.sort_key(), s.interval.lo, s.interval.hi),
    "members": lambda m: (m.individual, m.cls.sort_key()),
    "subsets": lambda s: (s.sub.sort_key(), s.sup.sort_key()),
    "forms": lambda f: f.sentence,
    "equivs": lambda e: (e.s1, e.s2),
}


def _views(b):
    return {name: getattr(b, name) for name in CANONICAL_KEYS}


def _reasserted(b, order):
    """A fresh builder with b's declarations and statements, the statements
    asserted in the order `order` puts them in (sentence forms first, since
    an equivalence needs its sentences declared)."""
    out = rc.KBBuilder()
    for declare, names in ((out.declare_class, b.class_atoms),
                           (out.declare_property, b.property_atoms),
                           (out.declare_individual, b.individuals)):
        for name in order(sorted(names)):
            declare(name)
    forms = [rc.SentenceForm(label, p, ind) for label, (p, ind) in b.sentence_forms.items()]
    for s in order(forms) + order(b.stats + b.members + b.subsets + b.equivs):
        out.assert_statement(s)
    return out


def _rendered(b):
    try:
        return rc.render(b)
    except ValueError as e:  # a value with no finite decimal expansion
        return f"ValueError: {e}"


def test_builder_views_are_canonical_in_any_assertion_order():
    """The builder's views come out in one canonical order, the order of
    `ClosedKB.statements` and of `render`, however the statements were
    asserted."""
    rng = random.Random(141)
    orders = (lambda xs: xs[::-1], lambda xs: rng.sample(xs, len(xs)))
    closed = 0
    for make in (lambda r: random_builder(r, allow_equiv=True),
                 random_subset_builder, random_profile_builder):
        for _ in range(40):
            b = make(rng)
            if b is None:
                continue
            views = _views(b)
            for name, key in CANONICAL_KEYS.items():
                assert views[name] == sorted(views[name], key=key), name
            text = _rendered(b)
            for order in orders:
                again = _reasserted(b, order)
                assert _views(again) == views
                assert _rendered(again) == text
            try:
                statements = b.close().statements
            except rc.InconsistencyError:
                continue
            closed += 1
            start = 0
            for name in CANONICAL_KEYS:
                view = views[name]
                assert statements[start:start + len(view)] == tuple(view), name
                start += len(view)
            assert start == len(statements)
    assert closed >= 80


# ---------------------------------------------------------------------------
# Diagnostics pinned from the engine whose DSL repeated the builder's checks
# ---------------------------------------------------------------------------

with open(os.path.join(FIXTURES, "dsl_errors.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)


def _errors(text):
    with pytest.raises(rc.ParseFailure) as exc:
        rc.parse_kb(text)
    return [[e.message, e.line, e.column] for e in exc.value.errors]


@pytest.mark.parametrize("line", sorted(PINNED["lines"]))
def test_pinned_line_errors(line):
    """One bad line after a header that declares a, b, p, q, i and S."""
    assert _errors(PINNED["header"] + line + "\n") == PINNED["lines"][line]


@pytest.mark.parametrize("text", sorted(PINNED["documents"]))
def test_pinned_document_errors(text):
    assert _errors(text) == PINNED["documents"][text]


@pytest.mark.parametrize("query", sorted(PINNED["queries"]))
def test_pinned_query_errors(query):
    builder = rc.parse_kb(PINNED["header"])
    with pytest.raises(rc.DslError) as exc:
        rc.parse_query(query, builder)
    e = exc.value
    assert [e.message, e.line, e.column] == PINNED["queries"][query]


def test_numbers_are_ascii_decimals():
    head = "class a\nproperty p\n"
    assert _errors(head + "stat %(a, p) = \u0660.\u0665\n") == \
        [["unexpected character '\u0660'", 3, 16]]
    assert _errors(head + "stat %(a, p) = 0.5\u0661\n") == \
        [["unexpected character '\u0661'", 3, 19]]


# ---------------------------------------------------------------------------
# Nesting deeper than the interpreter's stack
# ---------------------------------------------------------------------------

DEEP = 5000
DEEP_PROPERTIES = {
    "negation": "!" * DEEP + "p",
    "parentheses": "(" * DEEP + "p" + ")" * DEEP,
    "conjunction": " & ".join(["p"] * DEEP),
}


@pytest.mark.parametrize("kind", sorted(DEEP_PROPERTIES))
def test_deep_nesting_reported_at_its_line(kind):
    text = (
        "class r\nproperty p\nindividual i\n"
        f"stat %(r, {DEEP_PROPERTIES[kind]}) = 0.5\n"
        "stat %(r, zz) = 0.5\n"
        f"sentence S iff {DEEP_PROPERTIES[kind]}(i)\n"
    )
    assert _errors(text) == [
        ["expression nested too deeply", 4, 1],
        ["undeclared property: zz", 5, 11],
        ["expression nested too deeply", 6, 1],
    ]


@pytest.mark.parametrize("kind", sorted(DEEP_PROPERTIES))
def test_deep_query_nesting_is_a_dsl_error(kind):
    builder = rc.parse_kb("property p\nindividual i\n")
    with pytest.raises(rc.DslError) as exc:
        rc.parse_query(f"{DEEP_PROPERTIES[kind]}(i)", builder)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "expression nested too deeply", 1, 1)


def test_long_class_intersection_parses():
    b = rc.parse_kb("class a\nindividual i\nmember i in " + " & ".join(["a"] * DEEP) + "\n")
    [m] = b.members
    assert m.cls == cls("a")


# ---------------------------------------------------------------------------
# Fuzzing: every input is accepted or reported, nothing else escapes
# ---------------------------------------------------------------------------

FUZZ_HEADER = "class a\nclass b\nproperty p\nproperty q\nindividual i\nsentence S iff p(i)\n"
FUZZ_TOKENS = sorted(KEYWORDS) + [
    "%", "(", ")", "[", "]", ",", "=", "<", "&", "!", "#", "$",
    "0", "1", "0.5", ".25", "1.5", "10",
    "U", "a", "b", "p", "q", "i", "S",  # declared in FUZZ_HEADER (U is reserved)
    "zz", "T", "j",  # undeclared
]


def token_soup(newlines=True):
    tokens = FUZZ_TOKENS + ["\n"] * newlines
    return st.lists(st.sampled_from(tokens), max_size=30).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), token_soup()))
def test_fuzz_parse_kb(text):
    for document in (text, FUZZ_HEADER + text):
        try:
            builder = rc.parse_kb(document)
        except rc.ParseFailure as e:
            assert e.errors and all(isinstance(err, rc.DslError) for err in e.errors)
        else:
            assert isinstance(builder, rc.KBBuilder)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), token_soup(newlines=False)))
def test_fuzz_parse_query(query):
    builder = rc.parse_kb(FUZZ_HEADER)
    try:
        label = rc.parse_query(query, builder)
    except rc.KBError:
        return
    assert label in builder.sentence_forms


# ---------------------------------------------------------------------------
# The parser against the per-line oracle
# ---------------------------------------------------------------------------

# Lines that parse after FUZZ_HEADER, however often they repeat.
GOOD_LINES = ["stat %(a & b, !(p & !q)) in [0.25, 0.5]", "stat %(a, !p) = .5",
              "member i in a & b", "subset a < b", "", "# note"]
# Adds comments and characters no token starts with to the fuzzing tokens.
LINE_PIECES = FUZZ_TOKENS + ["# note", "#!(", "@", "é", "٣"] + GOOD_LINES


def document(line):
    lines = st.lists(st.tuples(line, st.sampled_from(LINE_BREAKS)), max_size=12)
    return st.tuples(st.booleans(), lines, line).map(
        lambda t: FUZZ_HEADER * t[0] + "".join(a + b for a, b in t[1]) + t[2])


GOOD_LINE = st.tuples(st.sampled_from(PADDING), st.sampled_from(GOOD_LINES),
                      st.sampled_from(PADDING)).map("".join)
ANY_LINE = st.one_of(GOOD_LINE, st.tuples(
    st.sampled_from(PADDING), st.lists(st.sampled_from(LINE_PIECES), max_size=8)).map(
    lambda t: t[0].join(t[1])))


# The flat shapes `parse_kb` hands straight to the builder; each parses once
# after FUZZ_HEADER, in this order.
FLAT_LINES = ["class c", "individual j", "member i in b & a", "member j in c & a & c",
              "sentence T iff !q(i)", "sentence N iff p(j)", "property r"]
# Lines that look flat but must go to the token parser.  After FUZZ_HEADER
# alone it accepts those of the first group and rejects those of the second.
NEAR_MISSES = [
    "member i in b  & a", "member i in b\t& a", "member\ti in a", "\xa0class c",
    "class c\xa0", "individual j # note", "class c#", "member i in a&b",
    "sentence T iff ! q(i)", "sentence T iff !!q(i)", "sentence T iff (q)(i)",
    "sentence T iff !q (i)", "sentence T iff !q( i )",
] + [
    "class U", "member j in U", "class class", "individual iff", "member in in a",
    "member i in zz", "member i in p", "member zz in a", "sentence T iff zz(i)",
    "sentence T iff a(i)", "sentence T iff q(zz)", "sentence iff iff p(i)",
    "sentence S iff p(i)", "sentence S iff !q(i)", "property p", "individual i",
    "individual 1j", "class c1 c2", "member i in", "sentence T iff q()",
]
FLAT_LINE = st.tuples(st.sampled_from(PADDING[:3]), st.sampled_from(FLAT_LINES + NEAR_MISSES),
                      st.sampled_from(PADDING[:3])).map("".join)


@settings(max_examples=900, deadline=None)
@given(st.one_of(document(GOOD_LINE), document(ANY_LINE), document(FLAT_LINE)))
def test_one_pass_parse_matches_per_line_parse(text):
    want, want_errors = oracle_parse_kb(text)
    try:
        got = rc.parse_kb(text)
    except rc.ParseFailure as failure:
        assert [[e.message, e.line, e.column] for e in failure.errors] == \
            [[e.message, e.line, e.column] for e in want_errors]
    else:
        assert not want_errors
        assert rc.render(got) == rc.render(want)


def census_text(seed, individuals=1500):
    """A census-shaped document: mostly flat lines, in `render`'s spacing or
    not, some with a comment or another line break, among stats, subsets
    and equivalences."""
    rng = random.Random(seed)
    atoms = [f"a{k:02d}" for k in range(12)]
    lines = [f"class {a}" for a in atoms] + ["property p", "property q"]
    for a in atoms:
        lines.append(f"stat %({a}, p) = 0.{rng.randint(1, 9)}")
        lines.append(f"stat %({a} & {rng.choice(atoms)}, !q & p) in [0.1, 0.{rng.randint(1, 9)}]")
    for j in range(individuals):
        lines.append(f"individual i{j}")
        lines.append(f"sentence S{j} iff {rng.choice(['', '!'])}{rng.choice('pq')}(i{j})")
        lines.append(f"member i{j} in " + " & ".join(rng.choices(atoms, k=rng.randint(1, 3))))
        if j % 7 == 0:
            lines.append(f"equiv S{j} S{rng.randrange(j + 1)}")
    for _ in range(12):
        x, y, z = rng.sample(atoms, 3)
        lines.append(f"subset {x} & {y} < {z}")
    for k in rng.sample(range(len(lines)), len(lines) // 50):
        lines[k] = rng.choice(["", " ", "\t"]) + lines[k] + rng.choice([" # note", "\xa0", " "])
    return "".join(line + rng.choice(["\n"] * 20 + LINE_BREAKS) for line in lines)


@pytest.mark.parametrize("seed", [1, 2])
def test_census_document_matches_per_line_parse(seed):
    text = census_text(seed)
    assert len(text.splitlines()) > 4500
    want, want_errors = oracle_parse_kb(text)
    assert not want_errors
    got = rc.parse_kb(text)
    assert rc.render(got) == rc.render(want)
    assert got.close() == want.close()


@pytest.fixture
def token_lines(monkeypatch):
    """The line of every `dsl.Token` built while the fixture is in use."""
    lines = []

    class Token(dsl.Token):
        __slots__ = ()

        def __init__(self, kind, text, line, column):
            lines.append(line)
            super().__init__(kind, text, line, column)

    monkeypatch.setattr(dsl, "Token", Token)
    return lines


def test_flat_lines_build_no_tokens(token_lines):
    text = FUZZ_HEADER + "\n".join(FLAT_LINES) + "\n"
    got = rc.parse_kb(text)
    assert token_lines == []
    want, want_errors = oracle_parse_kb(text)
    assert not want_errors
    assert rc.render(got) == rc.render(want)


@pytest.mark.parametrize("line", ["stat %(a, p) = 0.5", "", "# note"] + NEAR_MISSES)
def test_other_lines_build_tokens_for_themselves_only(token_lines, line):
    try:
        rc.parse_kb(FUZZ_HEADER + line + "\nclass d\nmember i in d & a\n")
    except rc.ParseFailure:
        pass
    assert token_lines and set(token_lines) == {FUZZ_HEADER.count("\n") + 1}

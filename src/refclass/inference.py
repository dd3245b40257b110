"""Direct inference: candidate tables, the subset-excuse filter, resolution.

Point mode compares exact values over classes with point-valued statistics
and may return no probability at all.  Interval mode runs the same pipeline
over fused intervals (default [0,1]) and is total on formed sentences: the
universal class row is never deleted because [0,1] includes every interval.
Queries judge only the rows that can change the answer (see `_judged_form`),
once per membership profile; `explain` lists every known class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .core import (
    UNIT,
    UNIVERSAL,
    CanonicalClass,
    CanonicalProperty,
    ClosedKB,
    Interval,
    Profile,
    _classes_within,
    _endpoint_ranks,
)

# Undefined reasons
NO_SENTENCE_FORM = "no-sentence-form"
NO_MEMBERSHIP = "no-membership"
ALL_ROWS_DELETED = "all-rows-deleted"
CONFLICTING_EQUIVALENT_FORMS = "conflicting-equivalent-forms"

LIVE = "live"
DELETED = "deleted"


def differ(a: Interval, b: Interval) -> bool:
    """Two intervals differ iff neither includes the other.

    For point intervals this is plain inequality; [0,1] never differs
    from anything.
    """
    return not a.includes(b) and not b.includes(a)


@dataclass(frozen=True)
class TableRow:
    cls: CanonicalClass
    interval: Interval
    status: str = LIVE
    witness: Optional[CanonicalClass] = None

    def to_dict(self) -> dict:
        d = {
            "class": str(self.cls),
            "interval": [str(self.interval.lo), str(self.interval.hi)],
            "status": self.status,
        }
        if self.witness is not None:
            d["witness"] = str(self.witness)
        return d


@dataclass(frozen=True)
class ProbResult:
    defined: bool
    interval: Optional[Interval] = None
    selected: Optional[CanonicalClass] = None
    form: Optional[tuple[CanonicalProperty, str]] = None
    reason: Optional[str] = None

    @classmethod
    def of(cls, interval: Interval, selected: CanonicalClass,
           form: tuple[CanonicalProperty, str]) -> "ProbResult":
        return cls(True, interval, selected, form)

    @classmethod
    @cache  # one shared instance per reason
    def undefined(cls, reason: str) -> "ProbResult":
        return cls(False, reason=reason)

    def to_dict(self) -> dict:
        if self.defined:
            return {
                "status": "defined",
                "interval": [str(self.interval.lo), str(self.interval.hi)],
                "reference_class": str(self.selected),
            }
        return {"status": "undefined", "reason": self.reason}


def build_table(ckb: ClosedKB, individual: str, prop: CanonicalProperty) -> list[TableRow]:
    """One live row per known membership class, most specific first."""
    return [TableRow(c, ckb.effective_interval(c, prop)) for c in ckb.table_classes(individual)]


def _judge(ckb: ClosedKB, rows: list[tuple[TableRow, int, int]]) -> list[TableRow]:
    """The deletion loop over rows none of which is [0, 1], in table order,
    each with the ranks of its interval's endpoints.

    A row is deleted iff it differs from another row without being a known
    subclass of it; the first such row is its witness.  Two intervals differ
    iff neither includes the other, which the ranks decide exactly.
    """
    out: list[TableRow] = []
    for row, lo, hi in rows:
        for other, other_lo, other_hi in rows:
            if (lo > other_lo or other_hi > hi) and (other_lo > lo or hi > other_hi) \
                    and other.cls != row.cls and not ckb.subset_known(row.cls, other.cls):
                out.append(TableRow(row.cls, row.interval, DELETED, other.cls))
                break
        else:
            out.append(row)
    return out


def filter_rows(ckb: ClosedKB, rows: list[TableRow]) -> list[TableRow]:
    """Keep a row iff every differing competitor is a known superset of it.

    Deleted rows carry the first (in table order) unexcused competitor as
    witness.  A [0,1] row includes every interval, so it never differs:
    it is kept without comparisons and is never a witness.
    """
    out = list(rows)
    active = [k for k, row in enumerate(rows) if row.interval != UNIT]
    ranks = _endpoint_ranks([rows[k].interval for k in active])
    for k, row in zip(active, _judge(ckb, [(rows[k], *r) for k, r in zip(active, ranks)])):
        out[k] = row
    return out


def survivors(rows: list[TableRow]) -> list[TableRow]:
    return [r for r in rows if r.status == LIVE]


def resolve(rows: list[TableRow]) -> tuple[Interval, CanonicalClass]:
    """Pick the inclusion-minimal interval among surviving rows.

    Surviving intervals are pairwise nested, so the minimum is the row with
    the largest lower endpoint, then the smallest upper endpoint; ties on
    the interval go to the most specific class.
    """
    if not rows:
        raise ValueError("resolve requires at least one surviving row")
    lo = max(r.interval.lo for r in rows)
    best = min((r for r in rows if r.interval.lo == lo),
               key=lambda r: (r.interval.hi, r.cls.sort_key()))
    return best.interval, best.cls


# ---------------------------------------------------------------------------
# Per-form evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormTrace:
    prop: CanonicalProperty
    individual: str
    rows: tuple[TableRow, ...]
    result: ProbResult

    def to_dict(self) -> dict:
        return {
            "property": self.prop.describe(),
            "individual": self.individual,
            "rows": [r.to_dict() for r in self.rows],
            "result": self.result.to_dict(),
        }


@dataclass(frozen=True)
class Trace:
    sentence: str
    mode: str
    forms: tuple[FormTrace, ...]
    result: ProbResult

    def to_dict(self) -> dict:
        return {
            "sentence": self.sentence,
            "mode": self.mode,
            "forms": [f.to_dict() for f in self.forms],
            "result": self.result.to_dict(),
        }


def _judged_form(ckb: ClosedKB, prop: CanonicalProperty, profile: Profile,
                 point: bool) -> tuple:
    """The sparse table for `prop` of a membership profile, judged, and its
    answer: (interval, selected class), or why it is undefined.

    The dense table has a row per known class, but a [0, 1] row never
    differs, so it is never deleted, never a witness, and loses resolution
    to any live row narrower than [0, 1].  The top class (the union of the
    generators) is never deleted either, since every other known class is a
    proper atom-subset of it.  So only the classes with a stat narrower
    than [0, 1] (point-valued in point mode) are rows; when none of them
    survives, interval mode answers with the top class.  With a tautology
    or a contradiction every known class has the pinned value, and the
    table is the top class alone.
    """
    top = profile.top
    if not prop.atoms:  # a tautology or a contradiction
        row = TableRow(top, ckb.effective_interval(top, prop))
        return (row,), (row.interval, top)
    ranked = [(TableRow(cls, iv), lo, hi)
              for cls, iv, lo, hi in _classes_within(top.atoms, ckb.stat_index.get(prop) or {})
              if (not point or lo == hi) and profile.covers(cls.atoms)]
    if point and not ranked:
        return (), NO_MEMBERSHIP
    ranked.sort(key=lambda r: r[0].cls.sort_key())  # table order
    rows = tuple(_judge(ckb, ranked))
    live = survivors(rows)
    if live:
        return rows, resolve(live)
    return rows, ALL_ROWS_DELETED if point else (UNIT, top)


def _form_entry(ckb: ClosedKB, prop: CanonicalProperty, individual: str,
                point: bool) -> tuple:
    """A form's memo entry, (judged sparse rows, answer): judged once per
    (profile generators, property, mode) and `ClosedKB`."""
    profile = ckb.profiles[individual]
    key = profile.generators, prop, point
    entry = ckb._judged.get(key)
    if entry is None:
        entry = ckb._judged[key] = _judged_form(ckb, prop, profile, point)
    return entry


def _combine(ckb: ClosedKB, forms: tuple, point: bool) -> ProbResult:
    """A sentence's result from its forms' memoised answers: the first
    defined form's, unless another defined form's interval differs from it."""
    if not forms:
        return ProbResult.undefined(NO_SENTENCE_FORM)
    answers = [_form_entry(ckb, prop, ind, point)[1] for prop, ind in forms]
    chosen = None
    for form, answer in zip(forms, answers):
        if isinstance(answer, str):
            continue
        if chosen is None:
            chosen = form, answer
        elif answer[0] != chosen[1][0]:
            return ProbResult.undefined(CONFLICTING_EQUIVALENT_FORMS)
    if chosen is None:
        return ProbResult.undefined(
            ALL_ROWS_DELETED if ALL_ROWS_DELETED in answers else NO_MEMBERSHIP)
    form, (interval, selected) = chosen
    return ProbResult.of(interval, selected, form)


def _form_trace(ckb: ClosedKB, prop: CanonicalProperty, individual: str,
                point: bool) -> FormTrace:
    """`explain`'s trace of one form, named after the individual asked
    about: its judged rows, padded to the dense table (every known class in
    table order) unless point mode left out only [0, 1] rows, and its result."""
    rows = _form_entry(ckb, prop, individual, point)[0]
    if not point or not prop.atoms:
        # a class left out has [0, 1], or the pinned value of a tautology or
        # a contradiction; U never carries a stat, so its interval is that value
        left_out = ckb.effective_interval(UNIVERSAL, prop)
        judged = {r.cls.atoms: r for r in rows}
        rows = tuple(judged.get(c.atoms) or TableRow(c, left_out)
                     for c in ckb.table_classes(individual))
    return FormTrace(prop, individual, rows, _combine(ckb, ((prop, individual),), point))


def prob_point(ckb: ClosedKB, sentence: str) -> ProbResult:
    """Prob(S, K) in point mode: exact values, may be undefined."""
    return _combine(ckb, ckb.sentence_forms.get(sentence, ()), True)


def prob_interval(ckb: ClosedKB, sentence: str) -> ProbResult:
    """Prob(S, K) in interval mode: total on formed sentences."""
    return _combine(ckb, ckb.sentence_forms.get(sentence, ()), False)


def explain(ckb: ClosedKB, sentence: str, mode: str = "interval") -> Trace:
    """Full evaluation trace: forms tried, tables, deletions, resolution.

    The result comes from the sparse tables, as `prob_*` compute it; each
    form's rows are listed over every known class, as the dense table has
    them.
    """
    if mode not in ("point", "interval"):
        raise ValueError(f"mode must be 'point' or 'interval', got {mode!r}")
    point, forms = mode == "point", ckb.sentence_forms.get(sentence, ())
    traces = tuple(_form_trace(ckb, prop, ind, point) for prop, ind in forms)
    # a lone form's result, combined over that form alone, is the sentence's
    result = traces[0].result if len(traces) == 1 else _combine(ckb, forms, point)
    return Trace(sentence, mode, traces, result)

"""Direct inference: candidate tables, the subset-excuse filter, resolution.

Point mode compares exact values over classes with point-valued statistics
and may return no probability at all.  Interval mode runs the same pipeline
over fused intervals (default [0,1]) and is total on formed sentences: the
universal class row is never deleted because [0,1] includes every interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    CanonicalClass,
    CanonicalProperty,
    ClosedKB,
    Interval,
    UNIT,
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
        return cls(True, interval=interval, selected=selected, form=form)

    @classmethod
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
    classes = sorted(ckb.known_memberships(individual), key=CanonicalClass.sort_key)
    return [TableRow(c, ckb.effective_interval(c, prop)) for c in classes]


def filter_rows(ckb: ClosedKB, rows: list[TableRow]) -> list[TableRow]:
    """Keep a row iff every differing competitor is a known superset of it.

    Deleted rows carry the first (in table order) unexcused competitor as
    witness.  A [0,1] row includes every interval, so it never differs:
    it is kept without comparisons and is never a witness.
    """
    competitors = [r for r in rows if r.interval != UNIT]
    out: list[TableRow] = []
    for row in rows:
        witness = None
        if row.interval != UNIT:
            for other in competitors:
                if other.cls == row.cls:
                    continue
                if differ(row.interval, other.interval) and not ckb.subset_known(row.cls, other.cls):
                    witness = other.cls
                    break
        if witness is None:
            out.append(row)
        else:
            out.append(TableRow(row.cls, row.interval, DELETED, witness))
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
    best = min(rows, key=lambda r: (-r.interval.lo, r.interval.hi, r.cls.sort_key()))
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


def _has_point_stat(ckb: ClosedKB, cls: CanonicalClass, prop: CanonicalProperty) -> bool:
    if prop.is_tautology or prop.is_contradiction:
        return True
    iv = ckb.stats.get((cls.atoms, prop))
    return iv is not None and iv.is_point


def _eval_form_point(ckb: ClosedKB, prop: CanonicalProperty, individual: str) -> FormTrace:
    candidates = [
        c for c in sorted(ckb.known_memberships(individual), key=CanonicalClass.sort_key)
        if _has_point_stat(ckb, c, prop)
    ]
    if not candidates:
        res = ProbResult.undefined(NO_MEMBERSHIP)
        return FormTrace(prop, individual, (), res)
    rows = [TableRow(c, ckb.effective_interval(c, prop)) for c in candidates]
    filtered = filter_rows(ckb, rows)
    live = survivors(filtered)
    if not live:
        res = ProbResult.undefined(ALL_ROWS_DELETED)
    else:
        interval, selected = resolve(live)
        res = ProbResult.of(interval, selected, (prop, individual))
    return FormTrace(prop, individual, tuple(filtered), res)


def _eval_form_interval(ckb: ClosedKB, prop: CanonicalProperty, individual: str) -> FormTrace:
    rows = build_table(ckb, individual, prop)
    filtered = filter_rows(ckb, rows)
    live = survivors(filtered)
    interval, selected = resolve(live)
    res = ProbResult.of(interval, selected, (prop, individual))
    return FormTrace(prop, individual, tuple(filtered), res)


def _combine_forms(form_traces: list[FormTrace]) -> ProbResult:
    defined = [t.result for t in form_traces if t.result.defined]
    if defined:
        first = defined[0]
        for other in defined[1:]:
            if other.interval != first.interval:
                return ProbResult.undefined(CONFLICTING_EQUIVALENT_FORMS)
        return first
    reasons = [t.result.reason for t in form_traces]
    if ALL_ROWS_DELETED in reasons:
        return ProbResult.undefined(ALL_ROWS_DELETED)
    return ProbResult.undefined(NO_MEMBERSHIP)


def _evaluate(ckb: ClosedKB, sentence: str, mode: str) -> Trace:
    forms = ckb.sentence_forms.get(sentence)
    if not forms:
        res = ProbResult.undefined(NO_SENTENCE_FORM)
        return Trace(sentence, mode, (), res)
    eval_form = _eval_form_point if mode == "point" else _eval_form_interval
    form_traces = [eval_form(ckb, prop, ind) for prop, ind in forms]
    return Trace(sentence, mode, tuple(form_traces), _combine_forms(form_traces))


def prob_point(ckb: ClosedKB, sentence: str) -> ProbResult:
    """Prob(S, K) in point mode: exact values, may be undefined."""
    return _evaluate(ckb, sentence, "point").result


def prob_interval(ckb: ClosedKB, sentence: str) -> ProbResult:
    """Prob(S, K) in interval mode: total on formed sentences."""
    return _evaluate(ckb, sentence, "interval").result


def explain(ckb: ClosedKB, sentence: str, mode: str = "interval") -> Trace:
    """Full evaluation trace: forms tried, tables, deletions, resolution."""
    if mode not in ("point", "interval"):
        raise ValueError(f"mode must be 'point' or 'interval', got {mode!r}")
    return _evaluate(ckb, sentence, mode)

"""Evidence-relative probabilities for single sentences via reference-class
selection, with exact rational intervals, a KB authoring DSL, explanation
traces, and a bounded finite-model consistency checker."""

from .core import (
    CERTAIN,
    IMPOSSIBLE,
    TAUTOLOGY,
    CONTRADICTION,
    UNIT,
    UNIVERSAL,
    CanonicalClass,
    CanonicalProperty,
    ClosedKB,
    DeclarationError,
    InconsistencyError,
    Interval,
    KBBuilder,
    KBError,
    Member,
    PropAnd,
    PropAtom,
    PropNot,
    SentenceEquiv,
    SentenceForm,
    Stat,
    Subset,
    ValidationError,
    canonicalize_property,
    close,
)
from .inference import (
    ALL_ROWS_DELETED,
    CONFLICTING_EQUIVALENT_FORMS,
    NO_MEMBERSHIP,
    NO_SENTENCE_FORM,
    ProbResult,
    TableRow,
    Trace,
    build_table,
    differ,
    explain,
    filter_rows,
    prob_interval,
    prob_point,
    resolve,
    survivors,
)
from .consistency import FiniteModel, SanityReport, find_model, sanity_check, verify_model
from .dsl import DslError, ParseFailure, parse_kb, parse_query, render

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass", "CanonicalProperty", "Interval", "ClosedKB", "KBBuilder",
    "Stat", "Member", "Subset", "SentenceForm", "SentenceEquiv",
    "PropAtom", "PropNot", "PropAnd", "canonicalize_property", "close",
    "UNIVERSAL", "UNIT", "CERTAIN", "IMPOSSIBLE", "TAUTOLOGY", "CONTRADICTION",
    "KBError", "DeclarationError", "ValidationError", "InconsistencyError",
    "differ", "build_table", "filter_rows", "survivors", "resolve",
    "prob_point", "prob_interval", "explain", "ProbResult", "TableRow", "Trace",
    "NO_SENTENCE_FORM", "NO_MEMBERSHIP", "ALL_ROWS_DELETED",
    "CONFLICTING_EQUIVALENT_FORMS",
    "FiniteModel", "SanityReport", "sanity_check", "find_model", "verify_model",
    "parse_kb", "parse_query", "render", "DslError", "ParseFailure",
]

"""The public surface: `refclass.__all__` and the names README shows.

A name leaves the package only on purpose: removing one fails
`test_public_names` until the list below is edited too.
"""

import os
import re

import refclass as rc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = [
    "ALL_ROWS_DELETED", "CERTAIN", "CONFLICTING_EQUIVALENT_FORMS", "CONTRADICTION",
    "CanonicalClass", "CanonicalProperty", "ClosedKB", "DeclarationError", "DslError",
    "FiniteModel", "IMPOSSIBLE", "InconsistencyError", "Interval", "KBBuilder", "KBError",
    "Member", "NO_MEMBERSHIP", "NO_SENTENCE_FORM", "ParseFailure", "ProbResult",
    "PropAnd", "PropAtom", "PropNot", "SanityReport", "SentenceEquiv", "SentenceForm",
    "Stat", "Subset", "TAUTOLOGY", "TableRow", "Trace", "UNIT", "UNIVERSAL",
    "ValidationError", "build_table", "canonicalize_property", "close", "differ",
    "explain", "filter_rows", "find_model", "parse_kb", "parse_query", "prob_interval",
    "prob_point", "render", "resolve", "sanity_check", "survivors", "verify_model",
]


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        return f.read()


def test_public_names():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(rc.__all__) == PUBLIC_NAMES
    assert len(set(rc.__all__)) == len(rc.__all__)
    for name in rc.__all__:
        assert hasattr(rc, name), name


def test_readme_library_example_runs(monkeypatch):
    section = _readme().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    monkeypatch.chdir(ROOT)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert rc.prob_interval(scope["ckb"], "S14").interval == rc.Interval.point("0.5")


def test_readme_names_resolve():
    names = set(re.findall(r"\brc\.([A-Za-z_]\w*)", _readme()))
    assert "CanonicalClass" in names
    assert [n for n in sorted(names) if not hasattr(rc, n)] == []

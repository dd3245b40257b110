"""CLI: commands, exit codes, JSON output."""

import json
import os
import shlex
import sys

import pytest

from refclass import cli
from refclass.core import ClosedKB

COIN = """\
class tosses
property heads
individual t14
sentence S14 iff heads(t14)
stat %(tosses, heads) = 0.5
member t14 in tosses
"""

CONFLICT = """\
class r1
class r2
property p
individual i
sentence S iff p(i)
stat %(r1, p) = 0.4
stat %(r2, p) = 0.6
member i in r1
member i in r2
"""

CYCLIC = """\
class a
class b
subset a < b
subset b < a
"""

INCONSISTENT = """\
class r
property p
individual i
stat %(r, p) in [0.0, 0.3]
stat %(r, p) in [0.6, 1.0]
"""


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture
def kb_file(tmp_path):
    def write(text, name="kb.rck"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestEval:
    def test_coin_point(self, kb_file, capsys):
        code = run(["eval", kb_file(COIN), "--query", "S14", "--mode", "point", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["status"] == "defined"
        assert payload["interval"] == ["1/2", "1/2"]
        assert payload["reference_class"] == "tosses"
        assert payload["mode"] == "point"

    def test_conflict_point_undefined(self, kb_file, capsys):
        code = run(["eval", kb_file(CONFLICT), "--query", "S", "--mode", "point", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["status"] == "undefined"
        assert payload["reason"] == "all-rows-deleted"

    def test_conflict_interval_defined(self, kb_file, capsys):
        code = run(["eval", kb_file(CONFLICT), "--query", "S", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["interval"] == ["0", "1"]

    def test_inline_query(self, kb_file, capsys):
        code = run(["eval", kb_file(COIN), "--query", "heads(t14)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["interval"] == ["1/2", "1/2"]

    def test_parse_error_exit_one(self, kb_file, capsys):
        code = run(["eval", kb_file("class class\n"), "--query", "S"])
        assert code == 1
        assert capsys.readouterr().err

    def test_inconsistent_exit_two(self, kb_file, capsys):
        code = run(["eval", kb_file(INCONSISTENT), "--query", "p(i)"])
        assert code == 2
        assert capsys.readouterr().err == (
            "inconsistent knowledge base: empty statistical interval for %(r, !p)\n")

    def test_trace_included(self, kb_file, capsys):
        code = run(["eval", kb_file(CONFLICT), "--query", "S", "--json", "--trace"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = payload["trace"]["forms"][0]["rows"]
        assert {r["class"] for r in rows} == {"U", "r1", "r2", "r1 & r2"}
        deleted = [r for r in rows if r["status"] == "deleted"]
        assert all("witness" in r for r in deleted)
        # trace replay: reported result matches the trace's own resolution
        assert payload["trace"]["result"]["interval"] == payload["interval"]

    def test_json_deterministic(self, kb_file, capsys):
        path = kb_file(COIN)
        run(["eval", path, "--query", "S14", "--json", "--trace"])
        first = capsys.readouterr().out
        run(["eval", path, "--query", "S14", "--json", "--trace"])
        assert capsys.readouterr().out == first

    def test_deep_query_nesting(self, kb_file, capsys):
        code = run(["eval", kb_file(COIN), "--query", "!" * 5000 + "heads(t14)"])
        assert code == 1
        assert capsys.readouterr().err == (
            "query error: line 1, column 1: expression nested too deeply\n")

    def test_unknown_query_sentence(self, kb_file, capsys):
        code = run(["eval", kb_file(COIN), "--query", "S99"])
        assert code == 1

    @pytest.mark.parametrize("mode", ["interval", "point"])
    def test_eval_builds_no_dense_table(self, kb_file, capsys, monkeypatch, mode):
        """Without --trace, 20 memberships (2^20 known classes) are never listed."""
        atoms = [f"a{k:02}" for k in range(20)]
        text = "".join(f"class {a}\n" for a in atoms)
        text += "property p\nindividual w\nsentence S iff p(w)\n"
        text += "".join(f"member w in {a}\n" for a in atoms)
        text += "stat %(a00, p) = 0.3\nstat %(a00 & a01, p) = 0.2\n"

        def listed(self, individual):
            raise AssertionError("eval without --trace listed the known classes")

        monkeypatch.setattr(ClosedKB, "table_classes", listed)
        code = run(["eval", kb_file(text), "--query", "S", "--mode", mode, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "query": "S", "mode": mode, "status": "defined",
            "interval": ["1/5", "1/5"], "reference_class": "a00 & a01"}


class TestCheck:
    def test_deep_nesting_is_a_diagnostic(self, kb_file, capsys):
        deep = "(" * 5000 + "p" + ")" * 5000
        path = kb_file(f"class r\nproperty p\nstat %(r, {deep}) = 0.5\nstat %(r, {'!' * 5000}p) = 0.5\n")
        assert run(["check", path]) == 1
        err = capsys.readouterr().err
        assert err == (f"{path}:3:1: expression nested too deeply\n"
                       f"{path}:4:1: expression nested too deeply\n")

    def test_sanity_pass(self, kb_file, capsys, monkeypatch):
        path = kb_file(COIN)
        monkeypatch.delenv("REFCLASS_NO_COLOR", raising=False)
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == "sanity checks passed\n"  # not a terminal
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == "\x1b[32msanity checks passed\x1b[0m\n"
        monkeypatch.setenv("REFCLASS_NO_COLOR", "1")
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == "sanity checks passed\n"

    def test_model_found(self, kb_file, capsys):
        code = run(["check", kb_file(COIN), "--model", "4", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["model"]["size"] == 2
        assert payload["ok"] is True

    def test_no_model_within_bound(self, kb_file, capsys):
        code = run(["check", kb_file(COIN), "--model", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 4
        assert payload["model"] is None
        assert payload["model_bound"] == 1
        assert payload["ok"] is False

    @pytest.mark.parametrize("bound", ["0", "-3", "abc"])
    def test_bad_bound_is_a_usage_error(self, bound, kb_file, capsys):
        assert run(["check", kb_file(COIN), f"--model={bound}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith("refclass check: error: argument --model: ")

    def test_cycle_exit_two(self, kb_file, capsys):
        code = run(["check", kb_file(CYCLIC), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert not payload["ok"]


@pytest.mark.parametrize("command", [["check"], ["eval", "--query", "S"]])
@pytest.mark.parametrize("content", [None, b"class a\n# caf\xe9\n"],
                         ids=["missing", "not-utf-8"])
def test_unreadable_kb_is_one_error_line(command, content, tmp_path, capsys):
    path = tmp_path / "kb.rck"
    if content is not None:
        path.write_bytes(content)
    assert run([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestDump:
    def test_coin(self, kb_file, capsys):
        code = run(["dump", kb_file(COIN), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["memberships"]["t14"] == ["U", "tosses"]
        assert payload["stats"]["%(tosses, heads)"] == ["1/2", "1/2"]

    def test_intersection_listed(self, kb_file, capsys):
        code = run(["dump", kb_file(CONFLICT), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "r1 & r2" in payload["memberships"]["i"]

    def test_empty_kb(self, kb_file, capsys):
        code = run(["dump", kb_file(""), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["classes"] == []

    def test_deterministic(self, kb_file, capsys):
        path = kb_file(CONFLICT)
        run(["dump", path, "--json"])
        first = capsys.readouterr().out
        run(["dump", path, "--json"])
        assert capsys.readouterr().out == first


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "fixtures", "cli_outputs.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_output(command, capsys, monkeypatch):
    """Byte-identical output and exit code on the bundled and fixture KBs.

    Pinned from the engine that materialised the whole subset closure; the
    one deliberate difference is `"ok": false` on the no-model `check`.
    The text `eval` entries and the JSON ones without `--trace` were pinned
    from the engine that padded every `eval` to the dense table.
    """
    monkeypatch.chdir(ROOT)
    code = run(shlex.split(command))
    assert code == PINNED[command]["exit"]
    assert capsys.readouterr().out == PINNED[command]["stdout"]

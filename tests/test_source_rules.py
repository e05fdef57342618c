"""Source rules for the library, checked on its syntax tree.

- No `assert` statement: `python -O` strips them, so a check written as one
  silently stops checking.
- No report entry whose verdict is a literal: `report.add(name, True, ...)`
  records a check that cannot fail.
"""

import ast
from pathlib import Path

import charp_autos

SOURCES = sorted(Path(charp_autos.__file__).parent.glob("*.py"))


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield "%s:%d: assert statement" % (path.name, node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add"):
            verdicts = node.args[1:2] + [k.value for k in node.keywords
                                         if k.arg == "ok"]
            for v in verdicts:
                if isinstance(v, ast.Constant) and isinstance(v.value, bool):
                    yield "%s:%d: check with the literal verdict %r" % (
                        path.name, node.lineno, v.value)


def test_no_assert_and_no_literal_verdict():
    assert "gallery.py" in {p.name for p in SOURCES}
    found = [v for path in SOURCES for v in _violations(path)]
    assert found == []


def test_rules_catch_planted_violations(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("assert x\nreport.add('c', True, 'why')\n"
                       "report.add('d', ok=False)\nreport.add('e', x == y)\n")
    assert [v.split(": ", 1)[1] for v in _violations(planted)] == [
        "assert statement", "check with the literal verdict True",
        "check with the literal verdict False"]

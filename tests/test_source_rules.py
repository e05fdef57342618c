"""Source rules for the library, checked on its syntax tree.

- No `assert` statement: `python -O` strips them, so a check written as one
  silently stops checking.
- No report entry whose verdict is a literal: `report.add(name, True, ...)`
  records a check that cannot fail.
- No two `.add("<literal>", <verdict>, ...)` calls in the library share a
  check name: a verdict, a test or a kill-table row keyed by the name
  would cover only one of them.  A one-argument `.add`, such as a set's,
  is not a check.
- Every public module-level function or class, and every public method, is
  named somewhere in the library outside its own definition: code that only
  tests call is code with no callers.
- Every import names the standard library or the library itself, which
  keeps `dependencies = []` in pyproject.toml true.
- No assignment to a `.num` or `.den` attribute outside coeffs.py: the
  prime-field constants are shared objects, which is safe only while no
  Coeff changes once built.
- No write into a `.terms` dict: no item assignment or `del`, no
  `pop`, `popitem`, `update`, `clear` or `setdefault` call, and no
  augmented assignment to `.terms` itself.  A polynomial is read by
  everything built on it, such as the rank3 members sharing one per-p
  record, and a table's memo of two-term powers hands one term dict to
  every power of an equal base, which is safe only while no MultiPoly
  changes once built.  A write through another name for the dict is not
  seen.
- No `._pow_memo` attribute outside poly.py: MultiPoly.__pow__ alone
  fills and reads a table's memo of powers, so every entry is a power it
  computed for that key.  A use through getattr is not seen.
- No call of `_canonical` or `object.__new__(Coeff)` outside coeffs.py:
  both build a Coeff without reducing it, so only the module that owns the
  num/den representation may vouch that a fraction is canonical.
- No class outside endo.py defines `assignment`, `apply` or
  `restricts_to`: a map's images are read, applied and tested over R in
  one place, PolyMap, which GaAction and the word factors subclass.
- No call passes `_checked=` outside `gaction.slice_action`: that keyword
  skips the axiom check of a GaAction, and slice_action is the one place
  that has just proved the axioms of the action it builds.
- No `raise AssertionError`: every failure the library raises is a
  CharpAutosError, which the CLI reports as one line with exit code 1.
- Every imported name is used in its module, or listed in `__all__`:
  deleting code leaves imports behind.  The one exception is endo's
  `exact_div`, which perfbench/selftest.py reads to check that the tracer
  rebinds it there.
- Module-level imports go one way through the layers: errors and seeds,
  coeffs, poly, endo and textio, gaction, then criteria, expo, plane and
  gallery, then suites, then cli and the package itself.  A module imports
  only modules of lower layers, so no two modules of one layer import each
  other.  An import inside a function runs at call time, and it may go
  against the layers only as one of four printer and parser pairs: poly
  and endo import textio to print, and textio imports endo and gaction to
  build what it parsed.
- No `.var(` call inside MultiPoly.substitute, endo.compose,
  PolyMap.is_identity or endo.classify: each tells an image equal to its
  variable by reading its terms against the table's unit exponent, so
  that the path every composition and substitution takes builds no
  polynomial only to compare with it.
- Every `_suite_*` function of suites.py is registered through an
  `@_suite(...)` declaration and takes no parameter but `ps`, `count` and
  `seed`, each of which it reads: what a suite reads is declared once, at
  its definition, and no body reads a params dict.
- Importing charp_autos.cli loads neither `dataclasses` nor `inspect`:
  `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize` and builds
  each record's methods with `exec`, which made the import 16.9 ms instead
  of 5.7 ms (medians of ten alternating pairs of fresh interpreters, 2
  cores, Python 3.11), a cost every CLI call pays.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import charp_autos
from charp_autos.suites import SUITES

SOURCES = sorted(Path(charp_autos.__file__).parent.glob("*.py"))

# Public names the library may define without naming them elsewhere.
UNNAMED_ALLOWED = {
    # the building block of a planned suite on the non-uniqueness of the
    # G_a-actions inducing one automorphism (ROADMAP); that suite needs a
    # golden file, which only a change to the benchmark may add
    "modify_action",
}


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


def _check_name_sites(paths):
    """Check names, as `file:line: check name 'x' also at file:line`,
    passed as a literal to a second `.add` call with a verdict."""
    first = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = sorted((node for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "add"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)
                        and len(node.args) + len(node.keywords) >= 2),
                       key=lambda node: node.lineno)
        for node in calls:
            name = node.args[0].value
            site = "%s:%d" % (path.name, node.lineno)
            if name in first:
                yield "%s: check name %r also at %s" % (site, name,
                                                        first[name])
            else:
                first[name] = site


def _foreign_imports(path):
    """Imports of a module outside sys.stdlib_module_names and charp_autos;
    a relative import stays inside the library."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "charp_autos" and top not in sys.stdlib_module_names:
                yield "%s:%d: imports %s" % (path.name, node.lineno, name)


def _coeff_writes(path):
    """Assignments to a .num or .den attribute, also inside a tuple target
    or as an augmented assignment."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in ("num",
                                                                   "den"):
                    yield "%s:%d: assigns .%s" % (path.name, sub.lineno,
                                                  sub.attr)


_DICT_WRITES = ("pop", "popitem", "update", "clear", "setdefault")


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(path):
    """Item assignments to and deletions from a .terms dict, calls of its
    mutating methods, and augmented assignments to .terms itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
            if isinstance(node, ast.AugAssign) and _is_terms(node.target):
                yield "%s:%d: updates .terms" % (path.name, node.lineno)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _DICT_WRITES
              and _is_terms(node.func.value)):
            yield "%s:%d: calls .terms.%s" % (path.name, node.lineno,
                                              node.func.attr)
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and _is_terms(sub.value):
                    yield "%s:%d: %s .terms" % (
                        path.name, sub.lineno,
                        "deletes from" if isinstance(node, ast.Delete)
                        else "writes into")


def _pow_memo_uses(path):
    """Reads and writes of a `_pow_memo` attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_pow_memo":
            yield "%s:%d: uses ._pow_memo" % (path.name, node.lineno)


def _unreduced_coeffs(path):
    """Calls of _canonical (a bare name or an attribute) and of any
    __new__ whose first argument is Coeff."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "_canonical":
            yield "%s:%d: calls _canonical" % (path.name, node.lineno)
        elif name == "__new__" and node.args:
            cls = node.args[0]
            cls = (cls.id if isinstance(cls, ast.Name)
                   else cls.attr if isinstance(cls, ast.Attribute) else None)
            if cls == "Coeff":
                yield "%s:%d: calls __new__(Coeff)" % (path.name,
                                                       node.lineno)


def _unchecked_actions(path):
    """Calls with a `_checked` keyword outside the module-level function
    slice_action of gaction.py."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        if (path.name == "gaction.py" and isinstance(top, ast.FunctionDef)
                and top.name == "slice_action"):
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and any(k.arg == "_checked" for k in node.keywords)):
                yield "%s:%d: passes _checked" % (path.name, node.lineno)


IMAGE_RECORD_METHODS = ("assignment", "apply", "restricts_to")


def _image_record_methods(path):
    """Methods named in IMAGE_RECORD_METHODS, of any class outside
    endo.py."""
    if path.name == "endo.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.FunctionDef)
                    and item.name in IMAGE_RECORD_METHODS):
                yield "%s:%d: %s defines %s" % (path.name, item.lineno,
                                                node.name, item.name)


# (module file, qualified name) of the functions that may not build a
# variable with VarTable.var: the substitution loop and the map builders,
# which build affine images with VarTable.affine instead
NO_VAR_FUNCTIONS = {("poly.py", "MultiPoly.substitute"),
                    ("expo.py", "sigma_from_theta"),
                    ("expo.py", "_exponentialize_n2"),
                    ("expo.py", "_average"),
                    ("poly.py", "substitute_all"),
                    ("endo.py", "compose"), ("endo.py", "PolyMap.is_identity"),
                    ("endo.py", "classify"), ("endo.py", "PolyMap.identity"),
                    ("endo.py", "eps_map"), ("endo.py", "_invert_triangular"),
                    ("plane.py", "AffineFactor.__init__"),
                    ("plane.py", "TriangularFactor.__init__"),
                    ("plane.py", "CentralizerWord.gen_map"),
                    ("plane.py", "CentralizerWord.h0_map"),
                    ("plane.py", "CentralizerWord.inverse_map"),
                    ("plane.py", "centralizer_membership"),
                    ("plane.py", "w_st_split"),
                    ("plane.py", "_strip_swap_case"),
                    ("plane.py", "fixed_point_elem_centralizer")}


def _qualified_functions(tree):
    """(qualified name, node) of the module-level functions and of the
    methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s" % (node.name, item.name), item


def _var_calls(path):
    """Calls of a `.var` attribute inside a NO_VAR_FUNCTIONS function of
    path, nested functions and lambdas included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for name, func in _qualified_functions(tree):
        if (path.name, name) not in NO_VAR_FUNCTIONS:
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "var"):
                yield "%s:%d: %s calls .var" % (path.name, node.lineno, name)


def _assertion_raises(path):
    """raise statements whose exception is AssertionError, called or not,
    as a bare name or an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = (exc.id if isinstance(exc, ast.Name)
                else exc.attr if isinstance(exc, ast.Attribute) else None)
        if name == "AssertionError":
            yield "%s:%d: raises AssertionError" % (path.name, node.lineno)


SUITE_PARAMETERS = ("ps", "count", "seed")


def _suite_declarations(path):
    """Module-level `_suite_*` functions that no `@_suite(...)` decorator
    registers, that take a parameter outside SUITE_PARAMETERS, or that take
    one their body never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name.startswith("_suite_")):
            continue
        where = "%s:%d: %s" % (path.name, node.lineno, node.name)
        if not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id == "_suite" for d in node.decorator_list):
            yield where + " is not registered through _suite"
        args = node.args
        taken = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 + [args.vararg, args.kwarg] if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in taken:
            if name not in SUITE_PARAMETERS:
                yield "%s takes %s" % (where, name)
            elif name not in read:
                yield "%s never reads %s" % (where, name)


# (module, name) pairs that may be imported without a use in the module:
# perfbench/selftest.py reads endo.exact_div, to check that the tracer
# rebinds it there
UNUSED_IMPORT_ALLOWED = {("endo.py", "exact_div")}


def _unused_imports(path):
    """Names bound by an import that no name in the module reads and that
    `__all__` does not list; `import a.b` binds a."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and (path.name, name) not in \
                    UNUSED_IMPORT_ALLOWED:
                yield "%s:%d: imports %s unused" % (path.name, node.lineno,
                                                    name)


# The import layers, lowest first; "__init__" is the package module.
LAYERS = (("errors", "seeds"), ("coeffs",), ("poly",), ("endo", "textio"),
          ("gaction",), ("criteria", "expo", "plane", "gallery"),
          ("suites",), ("cli", "__init__"))
_LAYER_OF = {name: i for i, layer in enumerate(LAYERS) for name in layer}


# (importer, imported) pairs that an import inside a function may name
# against the layers
CALL_TIME_IMPORTS = {("poly", "textio"), ("endo", "textio"),
                     ("textio", "endo"), ("textio", "gaction")}


def _module_level(node):
    """The nodes of node's subtree outside function bodies."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _module_level(child)


def _library_modules(node):
    """The library modules a module-level import statement names."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "charp_autos":
                yield parts[1] if len(parts) > 1 else "__init__"
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            module = node.module
        elif node.module and node.module.split(".")[0] == "charp_autos":
            module = node.module.partition(".")[2]
        else:
            return
        if module:
            yield module.split(".")[0]
        else:
            yield from (alias.name for alias in node.names)


def _layer_violations(path):
    """Imports of a library module that is not in a lower layer than the
    importing one, except a CALL_TIME_IMPORTS pair inside a function, and
    a module in no layer."""
    layer = _LAYER_OF.get(path.stem)
    if layer is None:
        yield "%s:1: is in no layer" % path.name
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    module_level = {id(node) for node in _module_level(tree)}
    for node in sorted((n for n in ast.walk(tree)
                        if isinstance(n, (ast.Import, ast.ImportFrom))),
                       key=lambda n: n.lineno):
        for target in _library_modules(node):
            if _LAYER_OF.get(target, len(LAYERS)) < layer or (
                    id(node) not in module_level
                    and (path.stem, target) in CALL_TIME_IMPORTS):
                continue
            yield "%s:%d: imports %s against the layers" % (
                path.name, node.lineno, target)


def _defs(tree):
    """Module-level functions and classes, and the methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _unnamed_public_defs(paths):
    """Public functions, classes and methods whose name occurs in no name,
    attribute or import of the given sources outside their own definition."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    named = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            named.setdefault(name, []).append(id(node))
    found = []
    for tree in trees:
        for d in _defs(tree):
            if d.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(d)}
            if all(n in inside for n in named.get(d.name, ())):
                found.append(d.name)
    return sorted(found)


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


def test_report_check_names_are_unique():
    assert list(_check_name_sites(SOURCES)) == []


def test_check_name_rule_catches_planted_duplicates(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text("report.add('a', x)\nflags.add('b')\n"
                     "report.add('c', y, 'why')\nreport.add(name, z)\n")
    second.write_text("flags.add('a')\nreport.add('b', x)\n"
                      "report.add('c', ok=y)\nreport.add(name, z)\n"
                      "rep.add('a', x == y)\n")
    assert list(_check_name_sites([first, second])) == [
        "second.py:3: check name 'c' also at first.py:3",
        "second.py:5: check name 'a' also at first.py:1"]


def test_library_imports_only_the_standard_library_and_itself():
    assert [v for path in SOURCES for v in _foreign_imports(path)] == []


def test_import_rule_catches_planted_imports(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os.path, numpy as np\nfrom . import poly\n"
        "from charp_autos.poly import VarTable\n"
        "def lazy():\n    from sympy.polys import rings\n"
        "    import charp_autos_extra\n")
    assert [v.split(": ", 1)[1] for v in _foreign_imports(planted)] == [
        "imports numpy", "imports sympy.polys", "imports charp_autos_extra"]


def test_only_coeffs_assigns_num_and_den():
    assert "coeffs.py" in {p.name for p in SOURCES}
    assert [v for path in SOURCES if path.name != "coeffs.py"
            for v in _coeff_writes(path)] == []


def test_coeff_write_rule_catches_planted_assignments(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("c.num = ()\nnum, c.den = 1, (1,)\nc.num += (0,)\n"
                       "c.numer = 1\nn = c.num\nc.den: tuple = (1,)\n")
    assert [v.split(": ", 1)[1] for v in _coeff_writes(planted)] == [
        "assigns .num", "assigns .den", "assigns .num", "assigns .den"]


def test_library_never_writes_into_terms():
    assert [v for path in SOURCES for v in _terms_writes(path)] == []


def test_terms_write_rule_catches_planted_writes(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "f.terms[e] = c\nf.terms[e] += c\na, g.terms[e] = 1, c\n"
        "del f.terms[e]\nf.terms.pop(e)\nf.terms.update(d)\n"
        "f.terms.clear()\nf.terms.setdefault(e, c)\nf.terms.popitem()\n"
        "f.terms |= d\nf.terms[e]: Coeff = c\n"
        "self.terms = terms\nout = dict(f.terms)\nout[e] = f.terms[e]\n"
        "c = f.terms.get(e)\nf.termsx[e] = c\nout.pop(e)\n")
    found = sorted((int(v.split(":")[1]), v.split(": ", 1)[1])
                   for v in _terms_writes(planted))
    assert found == list(enumerate([
        "writes into .terms", "writes into .terms", "writes into .terms",
        "deletes from .terms", "calls .terms.pop", "calls .terms.update",
        "calls .terms.clear", "calls .terms.setdefault",
        "calls .terms.popitem", "updates .terms", "writes into .terms"],
        start=1))


def test_only_poly_uses_the_pow_memo():
    poly_py = next(p for p in SOURCES if p.name == "poly.py")
    assert list(_pow_memo_uses(poly_py))
    assert [v for path in SOURCES if path.name != "poly.py"
            for v in _pow_memo_uses(path)] == []


def test_pow_memo_rule_catches_planted_uses(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "memo = f.table._pow_memo\nt._pow_memo[key] = terms\n"
        "t._pow_memo = {}\ndel t._pow_memo\nt._pow_memo.clear()\n"
        "n = len(t._pow_memos)\ns = '_pow_memo'\n")
    assert sorted(v.split(":", 1)[1] for v in _pow_memo_uses(planted)) == [
        "%d: uses ._pow_memo" % line for line in range(1, 6)]


def test_only_coeffs_builds_unreduced_coeffs():
    assert [v for path in SOURCES if path.name != "coeffs.py"
            for v in _unreduced_coeffs(path)] == []
    coeffs_py = next(p for p in SOURCES if p.name == "coeffs.py")
    assert list(_unreduced_coeffs(coeffs_py))


def test_unreduced_coeff_rule_catches_planted_calls(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "c = _canonical(3, (1,))\nd = coeffs._canonical(3, (1,), (0, 1))\n"
        "e = object.__new__(Coeff)\nf = object.__new__(coeffs.Coeff)\n"
        "g = Coeff.__new__(Coeff)\nh = object.__new__(MultiPoly)\n"
        "i = _canonical\nj = Coeff(3, (1,))\n")
    assert [v.split(": ", 1)[1] for v in _unreduced_coeffs(planted)] == [
        "calls _canonical", "calls _canonical", "calls __new__(Coeff)",
        "calls __new__(Coeff)", "calls __new__(Coeff)"]


def test_only_slice_action_builds_unchecked_actions():
    gaction_py = next(p for p in SOURCES if p.name == "gaction.py")
    assert "_checked=True" in gaction_py.read_text()
    assert [v for path in SOURCES for v in _unchecked_actions(path)] == []


def test_unchecked_action_rule_catches_planted_calls(tmp_path):
    source = ("def slice_action(data):\n"
              "    return GaAction(t, images, _checked=True)\n\n"
              "def other(data):\n"
              "    return GaAction(t, images, _checked=True)\n\n"
              "class Builder:\n"
              "    def slice_action(self):\n"
              "        return GaAction(t, images, _checked=True)\n\n"
              "action = GaAction(t, images, _checked=False)\n"
              "action = GaAction(t, images, checked=True)\n")
    (tmp_path / "gaction.py").write_text(source)
    (tmp_path / "planted.py").write_text(source)
    assert [v.split(": ", 1)[1] for v in _unchecked_actions(
        tmp_path / "gaction.py")] == ["passes _checked"] * 3
    assert [v.split(":")[1] for v in _unchecked_actions(
        tmp_path / "gaction.py")] == ["5", "9", "11"]
    assert [v.split(":")[1] for v in _unchecked_actions(
        tmp_path / "planted.py")] == ["2", "5", "9", "11"]


def test_only_polymap_reads_and_restricts_images():
    endo_py = next(p for p in SOURCES if p.name == "endo.py")
    assert all("def %s(" % name in endo_py.read_text()
               for name in IMAGE_RECORD_METHODS)
    assert [v for path in SOURCES for v in _image_record_methods(path)] == []


def test_image_record_rule_catches_planted_methods(tmp_path):
    source = ("class Action(PolyMap):\n"
              "    def apply(self, f):\n        return f\n"
              "    def restricts_to(self):\n        return True, None\n"
              "    def evaluate(self, alpha):\n        return alpha\n"
              "def assignment(pmap):\n    return {}\n"
              "class Outer:\n    class Inner:\n"
              "        def assignment(self):\n            return {}\n")
    (tmp_path / "planted.py").write_text(source)
    (tmp_path / "endo.py").write_text(source)
    assert [v.split(":", 1)[1] for v in _image_record_methods(
        tmp_path / "planted.py")] == ["2: Action defines apply",
                                      "4: Action defines restricts_to",
                                      "12: Inner defines assignment"]
    assert list(_image_record_methods(tmp_path / "endo.py")) == []


def test_substitute_and_compose_build_no_variable():
    defined = {(path.name, name) for path in SOURCES
               for name, _ in _qualified_functions(
                   ast.parse(path.read_text(), filename=str(path)))}
    assert NO_VAR_FUNCTIONS <= defined
    assert [v for path in SOURCES for v in _var_calls(path)] == []


def test_var_call_rule_catches_planted_calls(tmp_path):
    (tmp_path / "endo.py").write_text(
        "def compose(phi, psi):\n    x = phi.table.var('x1')\n"
        "    return [t.var(n) for n in t.names]\n"
        "def classify(sigma):\n"
        "    f = lambda n: sigma.table.var(n, 1)\n"
        "    def inner():\n        return table.var('x2')\n"
        "class PolyMap:\n    def is_identity(self):\n"
        "        return self.var\n"
        "    def identity(self):\n        return t.var('x1')\n"
        "    def apply(self, f):\n        return f.variance(1)\n"
        "def eps_map(table, t):\n    return table.var('x1')\n")
    (tmp_path / "poly.py").write_text(
        "class MultiPoly:\n    def substitute(self, assignment):\n"
        "        return self.table.var('x')\n"
        "    def scale(self, c):\n        return self.table.var('x')\n"
        "def compose(phi, psi):\n    return phi.table.var('x1')\n")
    assert [v.split(":", 1)[1] for v in _var_calls(
        tmp_path / "endo.py")] == ["2: compose calls .var",
                                   "3: compose calls .var",
                                   "5: classify calls .var",
                                   "7: classify calls .var",
                                   "12: PolyMap.identity calls .var",
                                   "16: eps_map calls .var"]
    assert [v.split(":", 1)[1] for v in _var_calls(
        tmp_path / "poly.py")] == ["3: MultiPoly.substitute calls .var"]


def test_library_raises_no_assertion_error():
    assert [v for path in SOURCES for v in _assertion_raises(path)] == []


def test_assertion_error_rule_catches_planted_raises(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "raise AssertionError\nraise AssertionError('not invariant')\n"
        "raise builtins.AssertionError() from exc\n"
        "raise NotInvariantGenerator('x')\nraise\n"
        "error = AssertionError('kept, not raised')\n")
    assert [v.split(": ", 1)[1] for v in _assertion_raises(planted)] == [
        "raises AssertionError"] * 3
    assert [v.split(":")[1] for v in _assertion_raises(planted)] == [
        "1", "2", "3"]


def test_library_imports_no_name_it_never_uses():
    assert [v for path in SOURCES for v in _unused_imports(path)] == []


def test_unused_import_rule_catches_planted_imports(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os.path, re as regex\nimport json\n"
        "from .poly import VarTable, exact_div\nfrom . import gallery\n"
        "from .endo import PolyMap\n__all__ = ['PolyMap']\n"
        "def lazy():\n    from .textio import parse_poly\n"
        "    return os.sep, gallery.Check, json\n")
    assert [v.split(": ", 1)[1] for v in _unused_imports(planted)] == [
        "imports regex unused", "imports VarTable unused",
        "imports exact_div unused", "imports parse_poly unused"]
    endo_py = tmp_path / "endo.py"
    endo_py.write_text("from .poly import exact_div, VarTable\n")
    assert [v.split(": ", 1)[1] for v in _unused_imports(endo_py)] == [
        "imports VarTable unused"]


def test_module_imports_follow_the_layers():
    assert {p.stem for p in SOURCES} == set(_LAYER_OF)
    assert [v for path in SOURCES for v in _layer_violations(path)] == []


def test_layer_rule_catches_planted_imports(tmp_path):
    (tmp_path / "gallery.py").write_text(
        "import json\nfrom .criteria import f_stability\n"
        "from .gaction import SliceData\nfrom . import expo, poly\n"
        "import charp_autos.suites\nfrom charp_autos import plane\n"
        "from charp_autos.endo import compose\n"
        "class Family:\n    from .cli import main\n"
        "def show(x):\n    from .textio import map_to_str\n"
        "    from . import suites\n"
        "    return map_to_str(x)\n"
        "try:\n    from .criteria import modify_action\n"
        "except ImportError:\n    pass\n")
    assert [v.split(":", 1)[1] for v in _layer_violations(
        tmp_path / "gallery.py")] == [
        "2: imports criteria against the layers",
        "4: imports expo against the layers",
        "5: imports suites against the layers",
        "6: imports plane against the layers",
        "9: imports cli against the layers",
        "12: imports suites against the layers",
        "15: imports criteria against the layers"]
    (tmp_path / "textio.py").write_text(
        "from .poly import VarTable\n"
        "def parse_map(table, text):\n    from .endo import PolyMap\n"
        "def parse_action(table, text):\n    from .gaction import GaAction\n"
        "def parse_word(table, text):\n"
        "    from .plane import TameWord\n"
        "    from . import endo, criteria\n"
        "from .endo import PolyMap\n")
    assert [v.split(":", 1)[1] for v in _layer_violations(
        tmp_path / "textio.py")] == [
        "7: imports plane against the layers",
        "8: imports criteria against the layers",
        "9: imports endo against the layers"]
    (tmp_path / "poly.py").write_text(
        "def __str__(self):\n    from .textio import poly_to_str\n"
        "    from .endo import PolyMap\n")
    assert [v.split(":", 1)[1] for v in _layer_violations(
        tmp_path / "poly.py")] == ["3: imports endo against the layers"]
    (tmp_path / "coeffs.py").write_text("from .errors import DivisionByZero\n"
                                        "from .seeds import Lcg\n"
                                        "from .coeffs import Coeff\n"
                                        "from .extra import helper\n")
    assert [v.split(": ", 1)[1] for v in _layer_violations(
        tmp_path / "coeffs.py")] == ["imports coeffs against the layers",
                                     "imports extra against the layers"]
    (tmp_path / "extra.py").write_text("")
    assert [v.split(": ", 1)[1] for v in _layer_violations(
        tmp_path / "extra.py")] == ["is in no layer"]


def test_every_public_name_has_a_caller_in_the_library():
    assert _unnamed_public_defs(SOURCES) == sorted(UNNAMED_ALLOWED)


def test_unnamed_rule_catches_planted_definitions(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def used():\n    return used()\n\n"
        "def unused():\n    return unused() + used()\n\n"
        "class Box:\n    def put(self):\n        return self.put()\n"
        "    def _private(self):\n        pass\n")
    assert _unnamed_public_defs([planted]) == ["Box", "put", "unused"]


def test_every_suite_is_declared_where_it_is_defined():
    suites_py = next(p for p in SOURCES if p.name == "suites.py")
    tree = ast.parse(suites_py.read_text(), filename=str(suites_py))
    bodies = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_suite_")]
    assert len(bodies) == len(SUITES)
    assert list(_suite_declarations(suites_py)) == []


def test_suite_declaration_rule_catches_planted_bodies(tmp_path):
    planted = tmp_path / "suites.py"
    planted.write_text(
        "@_suite('a', ps=(2, 3))\ndef _suite_a(ps, seed):\n"
        "    return [ps, seed]\n"
        "def _suite_b(ps):\n    return ps\n"
        "@_suite('c')\ndef _suite_c(params):\n    return params.get('p')\n"
        "@cache\ndef _suite_d(ps, count, seed):\n    return ps, seed\n"
        "@_suite('e', seeded=False)\ndef _suite_e(*args, **kwargs):\n"
        "    return args, kwargs\n"
        "@_suite('f', count=3)\ndef _suite_f(count, seed):\n"
        "    def inner():\n        return count, seed\n    return inner\n"
        "def _sample_g(params):\n    return params\n")
    assert [v.split(":", 1)[1] for v in _suite_declarations(planted)] == [
        "4: _suite_b is not registered through _suite",
        "7: _suite_c takes params",
        "10: _suite_d is not registered through _suite",
        "10: _suite_d never reads count",
        "13: _suite_e takes args", "13: _suite_e takes kwargs"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports charp_autos.cli, as each CLI call
    does, loads neither module: membership, not timing, so the check is
    exact."""
    src = str(Path(charp_autos.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import charp_autos.cli\n"
            "print(sorted({'dataclasses', 'inspect'}\n"
            "             & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

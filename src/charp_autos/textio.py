"""Parsing and canonical printing of polynomials, maps and actions; the
word format of plane's factorizations is plane's own.

Polynomial grammar (accepted input is free-form, printing is canonical):

    poly   := ["-"] term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ["^" ["-"] int]
    atom   := int | name | "(" poly ")"

"u" names the coefficient parameter; division and negative powers apply to
coefficients only, so every parsed polynomial has nonnegative exponents.
Canonical printing orders terms by graded lex, descending, and writes every
coefficient outside the prime field in parentheses: "(u^2+u)*x1^2*x2 + 1".
"""

import re

from .coeffs import Coeff
from .errors import ParseError
from .poly import VarTable

_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|(\^|\*|\+|-|/|\(|\)|,)")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, table, tokens):
        self.table = table
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def take(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r, got %r" % (op, val), pos)

    def parse_poly(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        out = self.parse_term()
        if negate:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                out = out - rhs if val == "-" else out + rhs
            else:
                return out

    def parse_term(self):
        out = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                if val == "*":
                    out = out * rhs
                else:
                    out = out * _invert(rhs, pos)
            else:
                return out

    def parse_factor(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            e = sign * val
            if e < 0:
                return _invert(base, pos) ** (-e)
            return base ** e
        return base

    def parse_atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return self.table.const(val)
        if kind == "name":
            if val == "u":
                return self.table.const(Coeff.u(self.table.p))
            if val not in self.table.index:
                raise ParseError("unknown variable %r" % val, pos)
            return self.table.var(val)
        if kind == "op" and val == "(":
            inner = self.parse_poly()
            self.expect(")")
            return inner
        raise ParseError("unexpected token %r" % (val,), pos)


def _invert(f, pos):
    """The inverse of a nonzero coefficient; ring variables are never
    inverted."""
    if not f.is_constant():
        raise ParseError("cannot invert a non-unit polynomial", pos)
    c = f.constant_term()
    if c.is_zero():
        raise ParseError("division by zero", pos)
    return f.table.const(c.inv())


def parse_poly(table, text):
    parser = _Parser(table, tokenize(text))
    out = parser.parse_poly()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][2])
    return out


def parse_coeff(p, text):
    table = VarTable(p, ())
    f = parse_poly(table, text)
    if not f.is_constant():
        raise ParseError("expected a coefficient, got %s" % f)
    return f.constant_term()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _coeff_atom(c):
    if c.is_constant():
        return str(c.const_value())
    return "(%s)" % c


def poly_to_str(f):
    if not f.terms:
        return "0"
    table = f.table
    parts = []
    for exp, c in f.sorted_terms():
        mono = "*".join(
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(table.all_names, exp) if e)
        if not mono:
            parts.append(_coeff_atom(c))
        elif c.is_one():
            parts.append(mono)
        else:
            parts.append("%s*%s" % (_coeff_atom(c), mono))
    return " + ".join(parts)


def map_to_str(pmap):
    """A PolyMap, a GaAction included, as its image list "(g1, .., gn)"."""
    return "(%s)" % ", ".join(poly_to_str(g) for g in pmap.images)


def _parse_image_list(table, text):
    tokens = tokenize(text)
    if not tokens or tokens[0][:2] != ("op", "("):
        raise ParseError("a map starts with '('", tokens[0][2] if tokens else 0)
    parser = _Parser(table, tokens)
    parser.expect("(")
    images = [parser.parse_poly()]
    while True:
        kind, val, pos = parser.take()
        if kind == "op" and val == ",":
            images.append(parser.parse_poly())
        elif kind == "op" and val == ")":
            break
        else:
            raise ParseError("expected ',' or ')'", pos)
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.tokens[parser.i][2])
    if len(images) != table.nvars:
        raise ParseError("expected %d images, got %d" % (table.nvars, len(images)))
    return images


def parse_map(table, text):
    from .endo import PolyMap
    images = _parse_image_list(table, text)
    if any(g.uses_var("T") for g in images):
        raise ParseError("map images may not involve T")
    return PolyMap(table, images)


def parse_action(table, text):
    from .gaction import GaAction
    return GaAction(table, _parse_image_list(table, text))

"""Endomorphisms of R[x1..xn] given by generator images, and their
restriction to R = F_p[u].

Two-line convention throughout: a PolyMap (g1,..,gn) sends xi to gi, and
compose(phi, psi) has images (phi(g1),..,phi(gn)), i.e. it realizes the
product phi*psi of the paper-style word.

compose builds its result without PolyMap.__init__'s per-image checks,
which cannot fail on it, as do plane's AffineFactor and TriangularFactor;
identity, eps_map and _invert_triangular build their images with
VarTable.affine.
"""

from .coeffs import Coeff
from .errors import NotStructured
from .poly import MultiPoly, is_polynomial_over, substitute_all
# Unused here; perfbench/selftest.py checks that its tracer replaces this
# binding of exact_div along with the ones in poly and gallery.
from .poly import exact_div  # noqa: F401


class PolyMap:
    __slots__ = ("table", "images")

    # __init__ refuses images that involve T; GaAction, whose images may,
    # clears this, so that __init__ lets them pass and compose scans only
    # such operands for T
    _t_free = True

    def __init__(self, table, images):
        images = tuple(images)
        if len(images) != table.nvars:
            raise ValueError("expected %d images, got %d"
                             % (table.nvars, len(images)))
        fixed = []
        for g in images:
            if isinstance(g, (int, Coeff)):
                g = table.const(g)
            if g.table is not table and g.table != table:
                raise ValueError("image from a different table")
            if self._t_free and g.uses_var("T"):
                raise ValueError("map images may not involve T")
            fixed.append(g)
        self.table = table
        self.images = tuple(fixed)

    @classmethod
    def identity(cls, table):
        return cls(table, [table.affine(0, {n: 1}) for n in table.names])

    def assignment(self):
        return dict(zip(self.table.names, self.images))

    def apply(self, f):
        """The ring homomorphism applied to an arbitrary polynomial."""
        return f.substitute(self.assignment())

    def restricts_to(self):
        """(ok, witness): do all images lie over R = F_p[u]?  The witness
        of a failure is (name, (exponents, coeff)): the first generator
        whose image has a coefficient outside R, and its graded-lex least
        such term."""
        for name, g in zip(self.table.names, self.images):
            ok, bad = is_polynomial_over(g)
            if not ok:
                return False, (name, bad)
        return True, None

    def is_identity(self):
        return all(g._is_var(i) for i, g in enumerate(self.images))

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.table == other.table and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        from .textio import map_to_str
        return map_to_str(self)

    __repr__ = __str__


def eps_map(table, t):
    """The translation (x1 + t, x2, .., xn)."""
    return PolyMap(table, [table.affine(t if i == 0 else 0, {n: 1})
                           for i, n in enumerate(table.names)])


def compose(phi, psi):
    """(phi psi)(xi) = phi(psi(xi)).

    phi's assignment is resolved once and substituted into all of psi's
    images in one substitute_all call, and the result skips
    PolyMap.__init__'s per-image checks: images of one table free of T,
    substituted into each other, stay so.  Mixed tables and an operand
    whose images involve T (a GaAction) raise ValueError, checked on the
    operands.
    """
    table = phi.table
    if psi.table is not table and psi.table != table:
        raise ValueError("mixed variable tables")
    for op in (phi, psi):
        if not op._t_free and any(g.uses_var("T") for g in op.images):
            raise ValueError("map images may not involve T")
    out = object.__new__(PolyMap)
    out.table = table
    out.images = tuple(substitute_all(table, psi.images, phi.assignment()))
    return out


def order_up_to(sigma, bound):
    """Least m <= bound with sigma^m = id, else None."""
    acc = sigma
    for m in range(1, bound + 1):
        if acc.is_identity():
            return m
        acc = compose(sigma, acc)
    return None


def classify(sigma):
    """Shape flags {triangular, strict_triangular}.

    Units are read in the ambient coefficient field: the triangular test
    accepts any nonzero constant as the leading unit.  All order-p uses force
    that unit to be 1 anyway (strict triangularity).
    """
    n = sigma.table.nvars
    flags = set()
    strict = True
    # image i has a nonzero term c*xi, and no other term uses xi..xn
    for i, (g, unit) in enumerate(zip(sigma.images, sigma.table._units)):
        c = g.terms.get(unit)
        if c is None or any(any(e[i:n]) for e in g.terms if e != unit):
            return flags
        if not c.is_one():
            strict = False
    flags.add("triangular")
    if strict:
        flags.add("strict_triangular")
    return flags


def invert_structured(sigma):
    """Inverse of a triangular map, verified on one side only.

    sigma*inv = id suffices: a triangular map with nonzero diagonal is an
    automorphism, so a right inverse of it is its inverse.
    """
    if "triangular" not in classify(sigma):
        raise NotStructured("map is not triangular: %s" % sigma)
    inv = _invert_triangular(sigma)
    if not compose(sigma, inv).is_identity():
        raise NotStructured("structured inversion failed for %s" % sigma)
    return inv


def _invert_triangular(sigma):
    table = sigma.table
    inv_images = []
    for i, name in enumerate(table.names):
        g = sigma.images[i]
        unit = table._units[i]
        c_inv = g.terms[unit].inv()
        neg = -c_inv
        # h_i = c^-1 x_i + (-c^-1 rest)(h_1,..,h_{i-1}), where g = c x_i +
        # rest and rest uses x_1,..,x_{i-1} alone
        rest = MultiPoly(table, {e: k * neg for e, k in g.terms.items()
                                 if e != unit})
        moved = rest.substitute(dict(zip(table.names[:i], inv_images)))
        inv_images.append(table.affine(0, {name: c_inv}, moved))
    return PolyMap(table, inv_images)


def conjugate(sigma, psi):
    """psi sigma psi^-1."""
    return compose(psi, compose(sigma, invert_structured(psi)))


"""Endomorphisms of R[x1..xn] given by generator images.

Two-line convention throughout: a PolyMap (g1,..,gn) sends xi to gi, and
compose(phi, psi) has images (phi(g1),..,phi(gn)), i.e. it realizes the
product phi*psi of the paper-style word.
"""

from .coeffs import Coeff
from .errors import NotStructured, SingularAffine
# Unused here; perfbench/selftest.py checks that its tracer replaces this
# binding of exact_div along with the ones in poly and gallery.
from .poly import exact_div  # noqa: F401


class PolyMap:
    __slots__ = ("table", "images")

    def __init__(self, table, images):
        images = tuple(images)
        if len(images) != table.nvars:
            raise ValueError("expected %d images, got %d"
                             % (table.nvars, len(images)))
        fixed = []
        for g in images:
            if isinstance(g, (int, Coeff)):
                g = table.const(g)
            if g.table != table:
                raise ValueError("image from a different table")
            if g.uses_var("T"):
                raise ValueError("map images may not involve T")
            fixed.append(g)
        self.table = table
        self.images = tuple(fixed)

    @classmethod
    def identity(cls, table):
        return cls(table, [table.var(n) for n in table.names])

    def assignment(self):
        return dict(zip(self.table.names, self.images))

    def apply(self, f):
        """The ring homomorphism applied to an arbitrary polynomial."""
        return f.substitute(self.assignment())

    def is_identity(self):
        return all(g == self.table.var(n)
                   for n, g in zip(self.table.names, self.images))

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
    return PolyMap(table, [table.var(table.names[0]) + table.const(t)]
                   + [table.var(n) for n in table.names[1:]])


def compose(phi, psi):
    """(phi psi)(xi) = phi(psi(xi))."""
    if phi.table != psi.table:
        raise ValueError("mixed variable tables")
    return PolyMap(phi.table, [phi.apply(g) for g in psi.images])


def order_up_to(sigma, bound=None):
    """Least m <= bound with sigma^m = id, else None; bound defaults to p^2."""
    if bound is None:
        bound = sigma.table.p ** 2
    acc = sigma
    for m in range(1, bound + 1):
        if acc.is_identity():
            return m
        acc = compose(sigma, acc)
    return None


def classify(sigma):
    """Shape flags {affine, triangular, strict_triangular, elementary}.

    Units are read in the ambient coefficient field: the triangular test
    accepts any nonzero constant as the leading unit.  All order-p uses force
    that unit to be 1 anyway (strict triangularity).
    """
    table = sigma.table
    flags = set()
    if all(g.total_degree() == 1 for g in sigma.images):
        flags.add("affine")

    triangular = True
    strict = True
    for i, name in enumerate(table.names):
        g = sigma.images[i]
        c = g.coeff_of(**{name: 1})
        rest = g - table.var(name).scale(c)
        if c.is_zero() or any(
                e[table.index[n]] for n in table.names[i:] for e in rest.terms):
            triangular = False
            strict = False
            break
        if not c.is_one():
            strict = False
    if triangular:
        flags.add("triangular")
    if strict:
        flags.add("strict_triangular")

    g1 = sigma.images[0]
    x1 = table.names[0]
    c = g1.coeff_of(**{x1: 1})
    rest = g1 - table.var(x1).scale(c)
    if (not c.is_zero() and not rest.uses_var(x1)
            and all(sigma.images[i] == table.var(table.names[i])
                    for i in range(1, table.nvars))):
        flags.add("elementary")
    return flags


def invert_structured(sigma):
    """Inverse of an affine or triangular map, verified on one side only.

    sigma*inv = id suffices.  A triangular map with nonzero diagonal is an
    automorphism, so a right inverse of it is its inverse.  For an affine
    map, the chain rule turns sigma*inv = id into M*L = I, L the constant
    Jacobian of sigma and M that of inv taken at sigma; so L is invertible,
    sigma is an automorphism, and again a right inverse is its inverse.
    """
    flags = classify(sigma)
    if "affine" in flags:
        inv = _invert_affine(sigma)
    elif "triangular" in flags:
        inv = _invert_triangular(sigma)
    else:
        raise NotStructured("map is neither affine nor triangular: %s" % sigma)
    if not compose(sigma, inv).is_identity():
        raise NotStructured("structured inversion failed for %s" % sigma)
    return inv


def _invert_triangular(sigma):
    table = sigma.table
    inv_images = []
    for i, name in enumerate(table.names):
        g = sigma.images[i]
        c = g.coeff_of(**{name: 1})
        rest = g - table.var(name).scale(c)
        # h_i = c^-1 (x_i - rest(h_1,..,h_{i-1}))
        moved = rest.substitute(dict(zip(table.names[:i], inv_images)))
        inv_images.append((table.var(name) - moved).scale(c.inv()))
    return PolyMap(table, inv_images)


def _invert_affine(sigma):
    table = sigma.table
    n = table.nvars
    p = table.p
    rows = []
    shift = []
    for g in sigma.images:
        rows.append([g.coeff_of(**{m: 1}) for m in table.names])
        shift.append(g.constant_term())
    # solve M * Y = X - b by Gauss-Jordan on [M | I]
    aug = [row[:] + [Coeff.from_int(p, 1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise SingularAffine("linear part is singular: %s" % sigma)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    inv_images = []
    for i in range(n):
        img = table.zero()
        for j, name in enumerate(table.names):
            minv = aug[i][n + j]
            if not minv.is_zero():
                img = img + (table.var(name) - table.const(shift[j])).scale(minv)
        inv_images.append(img)
    return PolyMap(table, inv_images)


def conjugate(sigma, psi):
    """psi sigma psi^-1."""
    return compose(psi, compose(sigma, invert_structured(psi)))


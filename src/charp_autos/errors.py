"""Exception types shared across the library.

Every failure mode that callers are expected to catch has its own class so
that tests can assert on the exact condition.  All of them derive from
CharpAutosError.
"""


class CharpAutosError(Exception):
    pass


# -- coefficient domain ------------------------------------------------------

class DivisionByZero(CharpAutosError):
    pass


# -- polynomials -------------------------------------------------------------

class NegativeExponent(CharpAutosError):
    pass


class NotDivisible(CharpAutosError):
    pass


class ZeroPolynomial(CharpAutosError):
    pass


class NonIntegralCoefficient(CharpAutosError):
    pass


# -- endomorphisms -----------------------------------------------------------

class NotStructured(CharpAutosError):
    pass


# -- G_a-actions -------------------------------------------------------------

class AxiomViolation(CharpAutosError):
    pass


class NotInvariantParameter(CharpAutosError):
    pass


class NotInvariantGenerator(CharpAutosError):
    pass


# -- exponentialization ------------------------------------------------------

class NotOrderP(CharpAutosError):
    pass


class NotTriangular(CharpAutosError):
    pass


class NonUnitTranslation(CharpAutosError):
    pass


class InternalIntegralityFailure(CharpAutosError):
    """Signals an implementation bug: a fact that the construction
    guarantees, such as integrality or an inverse it supplies, fails."""


class BadThetaSupport(CharpAutosError):
    pass


class UnsupportedField(CharpAutosError):
    pass


# -- plane automorphisms -----------------------------------------------------

class NotAutomorphism(CharpAutosError):
    pass


class NotInCentralizer(CharpAutosError):
    pass


class NotInWst(CharpAutosError):
    pass


class WitnessNotCentralizing(CharpAutosError):
    pass


# -- criteria / gallery ------------------------------------------------------

class PreconditionViolated(CharpAutosError):
    pass


class BadParameters(CharpAutosError):
    pass


class UnsupportedP(CharpAutosError):
    pass


class BadH(CharpAutosError):
    pass


# -- cli ---------------------------------------------------------------------

class UnknownSuite(CharpAutosError):
    pass


class ParseError(CharpAutosError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else "%s (at position %d)" % (message, position))
        self.position = position

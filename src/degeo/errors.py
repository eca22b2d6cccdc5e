"""Exception types shared across the toolkit.

Soft diagnostics (suspected non-existence of a minimizer, area leakage into
well neighborhoods) are reported through result flags, not exceptions; the
classes here cover hard contract violations only.
"""


class DegeoError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveEigenvalue(DegeoError):
    """A well stiffness parameter is not strictly positive."""


class InvalidCoefficient(DegeoError):
    """Quartic coefficient makes the density vanish inside the unit disc."""


class InvalidK(DegeoError):
    """Two-well plateau parameter must satisfy k > 1."""


class DegenerateHessian(DegeoError):
    """Hessian at a declared well is singular or indefinite."""


class NonConvergence(DegeoError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class ZeroBeta(DegeoError):
    """The field angle beta = 0 keeps the flow on a closed level set; no arc
    joins the basepoint to the well."""


class ZeroDensityInterior(DegeoError):
    """The conformal density vanishes at an interior vertex, where the
    geodesic curvature, which divides by F^2, is undefined."""


class InvalidDensity(DegeoError):
    """The desingularized density 1 + b*R is not positive along a path."""


class InvalidC1(DegeoError):
    """Slope constant outside [-1, 1]."""


class NonExistence(DegeoError):
    """Requested area exceeds what graph-type geodesics can deliver."""


class NotInNonexistenceRegime(DegeoError):
    """A vertical-segment resolution was requested below the area threshold."""


class GapTooLarge(DegeoError):
    """No parabola geodesic joins axis points this far apart."""


class BubbleDetected(DegeoError):
    """The curve revisits a well away from its endpoints; a single traveling
    profile cannot be extracted."""


class GridTooCoarse(DegeoError):
    """Too few sample points for the requested discrete operator or curve."""

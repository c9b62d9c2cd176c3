"""Exception hierarchy shared across the package."""


class P3PError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(P3PError):
    """Collinear/coincident control points or a zero-length viewing ray."""


class DegenerateAngleError(P3PError):
    """Subtended angle at 0 or pi, or an infeasible angle triple."""


class DegeneratePencilError(P3PError):
    """The two characteristic conics are proportional or share a component
    (cocyclic configuration)."""


class InfeasibleRatioError(P3PError):
    """Ratio point with non-positive base-distance radicand."""


class InconsistentInputError(P3PError):
    """Constructed triplet fails the basic-constraint residual check."""


class InfeasibleTripletError(P3PError):
    """Distances admit no real optical-center position."""


class NotOnConstraintLineError(P3PError):
    """Mate construction called on a solution off its constraint line."""


class RightAngleDegeneracyError(P3PError):
    """Point-share constraint undefined: a denominator cosine vanishes."""


class SamplingFailureError(P3PError):
    """Locus sampling region exhausted."""


class GenerationFailureError(P3PError):
    """Random scene generation rejection budget exceeded."""


class SceneParseError(P3PError):
    """Scene file malformed or violates the schema."""

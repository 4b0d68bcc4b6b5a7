"""Exception types shared across the toolkit.

Every error that can surface through the CLI carries a stable ``name``
(the class name) so callers can match on it without parsing messages.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class InvalidMeasure(ToolkitError):
    """Atomic boundary measure with a nonpositive weight."""


class ImaginaryBoundViolated(ToolkitError):
    """Coefficient-magnitude sum of the lacunary exponent series reaches pi/2.

    The sufficient positivity condition fails; the function may still have
    positive real part, but cannot be certified by this route.
    """


class RadiusOutOfRange(ToolkitError):
    """Radius not inside the open interval (0, 1)."""


class ExponentOverflow(ToolkitError):
    """Requested exponent is too large: a dyadic index past MAX_STAR_INDEX,
    or a schedule exponent past the size cap."""


class GaugeHypothesisError(ToolkitError):
    """Gauge does not vanish relative to the quadratic growth ceiling."""


class DegenerateProfile(ToolkitError):
    """Means profile unusable for exponent fitting (too short or nonpositive)."""


class ParseError(ToolkitError):
    """Malformed CLI input (function spec, gauge string, radii spec)."""

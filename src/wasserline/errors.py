"""Exception types for the library, and its one boundary for outside data.

Every error raised for bad input is a WasserlineError; InvalidInput, also
a ValueError, names a fault with no class of its own.  The JSON readers
and the CLI's file reader pass ``_malformed``.  The CLI exits 3 on
ScopeMismatch and DomainMismatch and 2 on any other WasserlineError or an
OSError; any other exception is a bug and propagates.
"""

from contextlib import contextmanager


class WasserlineError(Exception):
    """Base class for all library errors."""


class InvalidInput(WasserlineError, ValueError):
    """Invalid input that no more specific class names."""


@contextmanager
def _malformed(what: str):
    """A KeyError, TypeError, ValueError or OverflowError in the block becomes
    ``InvalidInput("malformed <what>: ...")``; a WasserlineError passes."""
    try:
        yield
    except WasserlineError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed {what}: {exc}") from exc


class NonPositiveWeight(WasserlineError):
    """An atom weight was zero or negative."""


class WeightSumOutOfTolerance(WasserlineError):
    """Atom weights do not sum to 1 within 1e-9."""


class LevelOutOfRange(WasserlineError):
    """A probability level left its admissible range."""


class DomainMismatch(WasserlineError):
    """An operation mixed real-line and unit-interval measures."""


class InvalidP(WasserlineError):
    """The Wasserstein order p is outside the admissible range."""


class ScopeMismatch(WasserlineError):
    """A map was applied outside its (domain, order) scope."""


class InvalidIntervalIsometry(ScopeMismatch):
    """Only x -> x and x -> 1-x act on the unit interval."""


class QOutOfRange(ScopeMismatch):
    """|q| > 30 saturates the flow numerically; rejected explicitly."""


class NotMonotone(WasserlineError):
    """A candidate quantile function fails to be nondecreasing."""


class StepOutOfRange(WasserlineError):
    """A finite-difference step is nonpositive or leaves [0, 1]."""


class UnsortedPositions(WasserlineError):
    """Positions were required to be sorted but are not."""


class PositionOutOfRange(WasserlineError):
    """A support point lies outside the measure's domain."""


class WeightError(WasserlineError):
    """Convex-combination weights are negative or do not sum to 1."""


class TooManyAtoms(WasserlineError):
    """The two-point chart accepts at most two atoms."""


class NotBisectable(WasserlineError):
    """The off-diagonal area quadrants vanish; bisecting measures are
    undefined and the extremal midpoints are the two full glue measures."""


class EqualEndpoints(WasserlineError):
    """Midpoint geometry needs two distinct endpoint measures."""


class AlphaOutOfRange(WasserlineError):
    """A mixing coefficient left the open interval (0, 1)."""

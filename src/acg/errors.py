"""Exception types shared across the package, and the rules every scalar input is read by.

integral reads an integer and finite a finite real number, each with an
optional bound.  The library reads its arguments with them, and each
command-line flag reads the number it parses, so both reject the same
values with the same message.  Only integral_array imports numpy, when it
builds an array: the parser loads this module, and `--help` loads no numpy.
"""

from __future__ import annotations

import math
import numbers
import sys


class AcgError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistribution(AcgError, ValueError):
    """A weight matrix is malformed (shape, negativity, or sum too far from 1), or so is K, a degree, a size, a count or a seed.

    Also a setting out of range: tol not finite and > 0, max_iter below 1,
    a cap, max_redraws, max_restarts or count below 0, or delta not finite.
    """


class ZeroMeanDegree(AcgError, ValueError):
    """The node-type distribution has mean degree zero."""


class InconsistentPair(AcgError, ValueError):
    """An operation requires a consistent (node, edge) distribution pair."""


class ClipOverflow(AcgError, RuntimeError):
    """Clipping cannot place all degree increments without exceeding the cutoff."""


class InfeasibleSequence(AcgError, ValueError):
    """A node-type sequence has unequal in- and out-stub totals."""


class DeadEnd(AcgError, RuntimeError):
    """Sequential wiring ran out of admissible stub pairings before finishing."""


class RetriesExhausted(AcgError, RuntimeError):
    """Too many redraws without an acceptable node-type sequence."""


class MarginMismatch(AcgError, ValueError):
    """Stub-count margins disagree in total or shape."""


class CapExceeded(AcgError, ValueError):
    """An exact computation was requested beyond its explicit size cap."""


class ZeroPartition(AcgError, ValueError):
    """The wiring partition function vanishes; no admissible wiring exists."""


class NoConvergence(AcgError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class UnsupportedMargin(AcgError, ValueError):
    """Margins put mass where the edge-type distribution has none (or vice versa)."""


class SingularHessian(AcgError, RuntimeError):
    """The projected Hessian is singular where a determinant is required."""


class InvalidConfiguration(AcgError, ValueError):
    """A configuration is not a well-formed rooted growth sequence."""


class NotATree(AcgError, ValueError):
    """A configuration has repeated nodes where a tree is required."""


class DegenerateVariance(AcgError, ValueError):
    """A statistic is undefined: a coordinate with zero variance, or too few replicates or edge types for it."""


class MalformedSample(AcgError, ValueError):
    """A sample file does not have the layout write_sample gives it."""


def integral(value, error, low=None) -> int:
    """value as an int; error unless it is an integral number other than a bool (2.0 reads as 2), at least low if given."""
    np = sys.modules.get("numpy")  # a numpy float exists only once numpy is loaded
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
    elif isinstance(value, float if np is None else (float, np.floating)) and value.is_integer():
        number = int(value)
    else:
        raise error(f"expected an integer, got {value!r}")
    if low is not None and number < low:
        raise error(f"expected an integer >= {low}, got {value!r}")
    return number


def finite(value, error, above=None) -> float:
    """value as a float; error unless it is a real number other than a bool, finite, and greater than above if given."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise error(f"expected a finite number, got {value!r}")
    if above is not None and number <= above:
        raise error(f"expected a number > {above}, got {value!r}")
    return number


def integral_array(values, error) -> np.ndarray:
    """values as an int64 array, each entry read by integral; an integer-typed array passes on its dtype."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    return np.vectorize(lambda v: integral(v, error), otypes=[np.int64])(np.asarray(values, dtype=object))

"""Error taxonomy shared by every module.

Two families matter for callers (and for the CLI exit-code mapping):

* ``DomainError`` and subclasses: the caller asked for something outside the
  contract (bad parameter ranges, mismatched dimensions, malformed config).
* ``NumericsError`` and subclasses: the inputs were legal but a numerical
  guarantee could not be met (series failed to converge, a truncation cap was
  hit, a projection came out with zero norm).

The input contract: a public function checks each scalar argument once, where
it enters, with one of the three checkers below, and goes on with the Python
int, finite float or finite complex it returns; private helpers take checked
values.  Bad input raises DomainError, never a raw error or a numpy warning.
"""
import cmath
import math
import numbers

# Every integer up to 2**53 is a float64, and 2**53 + 1 is not.  An index,
# size or M past it would be rounded once read as a float, and a size past it
# would reach numpy, which raises its own ValueError when it sizes the array.
INT_MAX = 2 ** 53


class DomainError(ValueError):
    """Input violates a documented parameter or dimension constraint."""


class DimensionMismatchError(DomainError):
    """Two truncated vectors with different lengths were combined."""


class ConfigError(DomainError):
    """A config file or command line could not be interpreted."""


class NumericsError(RuntimeError):
    """A numerical contract (convergence, truncation, conditioning) failed."""


class TruncationError(NumericsError):
    """The truncation dimension needed to meet the tail tolerance exceeds the hard cap."""


class ConvergenceError(NumericsError):
    """A series evaluation did not converge within the allotted number of terms."""


class PoleError(NumericsError):
    """A ratio of expansion coefficients hit a zero denominator."""


class ZeroNormError(NumericsError):
    """A projection or a parity superposition came out with a numerically zero norm."""


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an int, or DomainError unless it is an integer in [minimum, 2**53]."""
    if type(value) is int and minimum <= value <= INT_MAX:
        return value
    try:
        # int() of a complex number warns or raises, so it is refused first
        ok = (not (isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real))
              and int(value) == value and value >= minimum)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        if isinstance(value, int) and value < -INT_MAX:
            # the bit length, since str() of a huge int raises ValueError
            value = f"a {value.bit_length()}-bit negative integer"
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value}")
    value = int(value)
    if value > INT_MAX:
        raise DomainError(f"{name} must be at most 2**53 (past it a float64 skips integers), "
                          f"got a {value.bit_length()}-bit {name}")
    return value


def check_real(name: str, value) -> float:
    """``value`` as a finite Python float (a float32 as its float64), or DomainError."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError(f"{name} lies past the float range") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def check_complex(name: str, value) -> complex:
    """``value`` as a finite Python complex, or DomainError unless it is a number."""
    if not isinstance(value, numbers.Complex):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        value = complex(value)
    except OverflowError:
        raise DomainError(f"{name} lies past the float range") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value

"""Exception types shared across the package, and the one rule for input
whose costs overflow."""

import contextvars
import functools

import numpy as np


class CrossclustError(Exception):
    """Base class for all library errors."""


class ValidationError(CrossclustError):
    """Invalid argument, malformed input, or broken precondition."""


class CapExceededError(CrossclustError):
    """Requested computation is beyond the exhaustive-enumeration caps."""


class BoundViolationError(CrossclustError):
    """A certified cost bound failed to hold.

    This is never expected on valid inputs; raising it signals either an
    implementation bug or a genuine counterexample, both of which must be
    surfaced rather than swallowed.
    """


class DescentViolationError(BoundViolationError):
    """A swap that must strictly lower the row/column spread failed to."""


#: True inside a guarded call.  A context variable, so every thread (and
#: every asyncio task) starts outside the guard and enters it itself.
_GUARDED = contextvars.ContextVar("overflow_guarded", default=False)


def overflow_guard(fn):
    """Run ``fn`` with floating-point overflow and invalid operations
    raised, whatever the caller's ``np.errstate``, and report them as one
    :class:`ValidationError`: input whose costs overflow stops at the first
    kernel that overflows, not at a warning per kernel it reaches.

    Only the outermost guarded call enters ``np.errstate`` and converts the
    error; a guarded call made inside it runs ``fn`` as is.  That is sound
    because no library code sets ``np.errstate`` itself, so the outermost
    guard's state holds for everything it calls."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        if _GUARDED.get():
            return fn(*args, **kwargs)
        token = _GUARDED.set(True)
        try:
            with np.errstate(over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise ValidationError("matrix entries too large: a cost overflows") from exc
        finally:
            _GUARDED.reset(token)

    return guarded

"""Exception types shared across the package."""

import time


class DcsynthError(Exception):
    """Base class for all package errors."""


class Overflow(DcsynthError):
    """A fixed-point result left the representable range of its format."""


class DegenerateCharPoly(DcsynthError):
    """Characteristic polynomial normalized to the zero polynomial."""


class ImproperTransferFunction(DcsynthError):
    """Numerator degree exceeds denominator degree where properness is required."""


class NonpositiveSampleTime(DcsynthError):
    """Sample time must be strictly positive."""


class ArithmeticOverflow(DcsynthError):
    """Controller-path overflow during simulation; carries the step index."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"controller arithmetic overflow at step {step}")


class DegenerateLoop(DcsynthError):
    """1 + G*C is identically zero; the closed loop is not well defined."""


class DeadlineExceeded(DcsynthError):
    """The synthesis deadline passed; raised by the candidate search and by
    both verification stages, and reported by the engines as `timeout`."""


class NoCandidate(DcsynthError):
    """No candidate controller: the search spent its budget, or swept the
    whole controller grid, or two counterexamples were proven
    unstabilizable together (the two-stage engine's sign test)."""


class ParseError(DcsynthError):
    """Syntactic error in a benchmark or controller file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DcsynthError):
    """A benchmark or controller file violates a structural invariant."""


def check_deadline(deadline):
    """Raises DeadlineExceeded once a time.perf_counter() `deadline` passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise DeadlineExceeded("deadline passed")

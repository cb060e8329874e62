"""Exception hierarchy for the besselsum package.

Every error raised deliberately by the library derives from BesselSumError,
so callers (and the CLI) can separate input/validation problems from genuine
bugs.
"""

from __future__ import annotations


class BesselSumError(Exception):
    """Base class for all errors raised by besselsum."""


class DomainError(BesselSumError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(BesselSumError, ArithmeticError):
    """The requested value sits exactly on a pole of the function."""


class ConvergenceError(BesselSumError, ArithmeticError):
    """A direct sum is over its term budget, or a term is non-finite or grows."""


class ParseError(BesselSumError, ValueError):
    """An input file or text payload could not be parsed."""


class WindowError(BesselSumError, ValueError):
    """A spectral-model quantity was requested outside its validity window."""


class ConfigError(BesselSumError, ValueError):
    """A configuration object violates one of its invariants."""

"""Exception hierarchy shared across the package."""

from __future__ import annotations


class EdgeworthError(Exception):
    """Base class for all package-specific errors."""


class SpecificationError(EdgeworthError, ValueError):
    """Invalid inputs: bad dimensions, non-positive quantities, bad parameters."""


class DomainDegeneracyError(EdgeworthError, ValueError):
    """An intermediate quantity collapsed below the representable range (< 1e-300)."""


class UnreachableUtilityError(EdgeworthError, ValueError):
    """A utility target lies outside the range of the requested family."""


class ConvergenceError(EdgeworthError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class SamplingError(EdgeworthError, RuntimeError):
    """A price or speed draw failed: no prior mass, the rejection cap, or a failed speed check."""


class ScenarioError(EdgeworthError, ValueError):
    """A scenario file failed validation (unknown keys, missing fields, bad values)."""

"""Exception hierarchy shared across the package.

Two families matter for the command line tool: :class:`InputFormatError`
covers malformed files and schema violations (exit code 2), everything else
derived from :class:`DiracGraphError` is a domain refusal (exit code 1).
"""


class DiracGraphError(Exception):
    """Base class for domain-level failures."""


class InputFormatError(DiracGraphError):
    """Malformed input data: bad JSON, schema violations, dimension mismatches."""


class EnumerationCapExceeded(DiracGraphError):
    """Raised when a combinatorial enumeration would exceed its size guard."""


class WindowTooLargeError(DiracGraphError):
    """Raised when a spectral window would contain too many roots to list."""


class ContourError(DiracGraphError):
    """Raised when a contour integral cannot be evaluated reliably."""

"""Exception hierarchy shared across the package.

Every error the package raises derives from ProjclassError, and its class
carries the command line's exit code: 2 for a request the program refuses
(a bad document, an out-of-range query, a request past a size cap), 1 for a
guard that trips while the request runs (the orbit entry cap, a Hall
violation).  cli.main maps every other exception once, in cli._failure.
"""


class ProjclassError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class FamilyFormatError(ProjclassError):
    """A family document or constructor argument is malformed."""


class FamilyIndexError(ProjclassError):
    """A position query fell outside the family, e.g. beyond a finite one."""


class FullFamilyError(ProjclassError):
    """An operation that needs a non-full family was given a full one."""


class WindowTooLargeError(ProjclassError):
    """An orbit window would exceed the configured entry cap."""

    exit_code = 1


class HallViolationError(ProjclassError):
    """A transversal matching turned out infeasible."""

    exit_code = 1


class OracleBoundsError(ProjclassError):
    """An oracle request is too large to run: exhaustive bounds or an Euler product."""

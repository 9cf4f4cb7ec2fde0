"""Exception hierarchy shared across the package.

Input-shaped problems (bad documents, unsupported shapes, out-of-range
queries) all derive from ProjclassError so the command line can map them to a
single exit code; guard trips that signal resource limits or broken premises
get their own classes.
"""


class ProjclassError(Exception):
    """Base class for all errors raised by this package."""


class FamilyFormatError(ProjclassError):
    """A family document or constructor argument is malformed."""


class FamilyIndexError(ProjclassError):
    """A position query fell outside the family, e.g. beyond a finite one."""


class UndecidableFamilyError(ProjclassError):
    """The family's tail shape is outside the decidable fragment."""


class FullFamilyError(ProjclassError):
    """An operation that needs a non-full family was given a full one."""


class WindowTooLargeError(ProjclassError):
    """An orbit window would exceed the configured entry cap."""


class HallViolationError(ProjclassError):
    """A transversal matching turned out infeasible."""


class PatternNotFoundError(ProjclassError):
    """No multiplicity exhibits the wanted pattern: the family has no positions."""


class OracleBoundsError(ProjclassError):
    """An oracle request is too large to run: exhaustive bounds or an Euler product."""

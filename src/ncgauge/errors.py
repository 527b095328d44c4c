"""Exception types raised by the package.

All package-specific failures derive from :class:`NCGaugeError` so callers
can catch everything with a single ``except`` clause.  The subclasses make
the *reason* for a rejection explicit: a basis that fails to span, mixing
forms over different bases, a would-be gauge transformation that is not
unitary, and so on.  A descent that stops short is not an error:
:func:`ncgauge.minimize` reports it in ``converged`` and ``stop_reason``.
"""

__all__ = [
    "NCGaugeError",
    "SingularBasisError",
    "BasisMismatchError",
    "DegreeError",
    "ShapeError",
    "NotUnitaryError",
    "NotHermitianError",
    "NotProjectorError",
    "MissingStructureError",
    "ConfigError",
]


class NCGaugeError(Exception):
    """Base class for all errors raised by this package."""


class SingularBasisError(NCGaugeError):
    """A set of matrices does not form a valid (linearly independent) basis."""


class BasisMismatchError(NCGaugeError):
    """Two objects built over different matrix bases were combined."""


class DegreeError(NCGaugeError):
    """A form degree is out of the supported range or degrees are incompatible."""


class ShapeError(NCGaugeError):
    """An array argument has the wrong shape for the requested operation."""


class NotUnitaryError(NCGaugeError):
    """A matrix expected to be unitary is not."""


class NotHermitianError(NCGaugeError):
    """A matrix expected to be (anti-)Hermitian is not."""


class NotProjectorError(NCGaugeError):
    """A matrix expected to be an orthogonal projector is not."""


class MissingStructureError(NCGaugeError):
    """An operation requires optional structure (grading, real structure, ...)
    that the object does not carry."""


class ConfigError(NCGaugeError):
    """A configuration file or parameter set is malformed or inconsistent."""

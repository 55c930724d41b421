"""Exception taxonomy shared across the pipeline.

Every stage raises from this hierarchy so the command line layer can map
failures onto stable exit codes without string matching.
"""


class GeofuseError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(GeofuseError):
    """Bad or inconsistent configuration (unknown key, out-of-range value)."""


class ParseError(GeofuseError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(GeofuseError):
    """Structurally valid input that violates a semantic contract."""


class FusionError(GeofuseError):
    """Interpolation cannot produce a value (e.g. no source for a target)."""


class SingularSystemError(FusionError):
    """The RBF coefficient system is singular or too ill-conditioned to solve."""


class GraphError(GeofuseError):
    """Graph construction or spectral estimation failed."""


class ShapeError(GeofuseError):
    """Tensor operands have incompatible shapes for the requested op."""


class TapeError(GeofuseError):
    """Misuse of the autodiff tape (reuse, missing tape, non-scalar seed)."""


class TrainingError(GeofuseError):
    """Training aborted (non-finite loss, empty split, bad schedule)."""

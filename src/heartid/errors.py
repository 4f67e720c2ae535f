"""Exception types raised across the pipeline.

Everything deriving from :class:`PipelineError` is a data/validation problem
(the CLI maps these to exit code 2); unexpected internal failures propagate
as ordinary exceptions.
"""


class PipelineError(Exception):
    """Base class for input-validation and data errors."""


class InvalidParameter(PipelineError, ValueError):
    """A setting outside its valid range (still a ``ValueError`` for callers)."""


# --- series / STFT ---------------------------------------------------------

class SeriesTooShort(PipelineError):
    pass


class ZeroSample(PipelineError):
    pass


class WindowTooLong(SeriesTooShort):
    """The series is shorter than one STFT window."""


class InvalidHop(PipelineError):
    pass


class NonFiniteSample(PipelineError, ValueError):
    """A NaN or infinite sample (still a ``ValueError`` for callers)."""


# --- filter bank / cepstra -------------------------------------------------

class AxisMismatch(PipelineError):
    pass


class EmptyInput(PipelineError):
    pass


class KPrimeTooLarge(PipelineError):
    pass


class DimensionMismatch(PipelineError):
    pass


# --- radar front end -------------------------------------------------------

class DegenerateCube(PipelineError):
    pass


# --- synthesis -------------------------------------------------------------

class InvalidDuration(PipelineError):
    pass


class ScheduleEmpty(PipelineError):
    pass


class NonDivisibleLength(PipelineError):
    pass


class InvalidProfile(PipelineError):
    pass


# --- classification --------------------------------------------------------

class TooFewRows(PipelineError):
    pass


class SingleClass(PipelineError):
    pass


class TooFewSessions(PipelineError):
    pass


class LengthMismatch(PipelineError):
    pass


class NoConvergence(UserWarning):
    """Solver hit its iteration budget before meeting the KKT tolerance.

    Issued as a warning, not an error: the partially optimized machine is
    still returned (and flagged), so evaluation runs are never aborted by a
    hard training instance.
    """


# --- embedding -------------------------------------------------------------

class DegenerateInput(PipelineError):
    pass


class PerplexityTooLarge(PipelineError):
    pass


# --- file formats ----------------------------------------------------------

class ManifestError(PipelineError):
    pass


class IoError(PipelineError):
    pass

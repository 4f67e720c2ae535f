"""Exception types raised across the pipeline.

Everything deriving from :class:`PipelineError` is a data/validation problem
(the CLI maps these to exit code 2 and prints only the message); unexpected
internal failures propagate as ordinary exceptions.  One type per cause a
caller can act on:

- :class:`InvalidParameter`: a setting the caller chose is out of range
  (hop, duration, segment length, profile, perplexity, K', synthesis
  mode, ...);
- :class:`NonFiniteSample`: a NaN or infinite sample or feature value;
- :class:`ManifestError`: a dataset manifest or record that is malformed;
- :class:`IoError`: a data or feature file that cannot be read or parsed;
- :class:`PipelineError` itself: the data cannot support the operation
  (too short, too few rows, classes or sessions, mismatched shapes).

The message names the cause, so every raise passes a non-empty one.
"""


class PipelineError(Exception):
    """Base class for input-validation and data errors."""


class InvalidParameter(PipelineError, ValueError):
    """A setting outside its valid range (still a ``ValueError`` for callers)."""


class NonFiniteSample(PipelineError, ValueError):
    """A NaN or infinite sample (still a ``ValueError`` for callers)."""


class ManifestError(PipelineError):
    """A dataset manifest or one of its records is malformed."""


class IoError(PipelineError):
    """A data or feature file cannot be read or parsed."""


class NoConvergence(UserWarning):
    """Solver hit its iteration budget before meeting the KKT tolerance.

    Issued as a warning, not an error: the partially optimized machine is
    still returned (and flagged), so evaluation runs are never aborted by a
    hard training instance.
    """

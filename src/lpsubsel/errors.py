"""Exception types shared across the package.

The CLI maps InputError (and subclasses) to exit code 2 and GuardError
to exit code 3.
"""


class InputError(ValueError):
    """Caller-supplied data violates a precondition (shape, finiteness, range)."""


class FormatError(InputError):
    """Malformed input file; message carries the 1-based row number."""


class ParameterError(InputError):
    """Algorithm parameter outside its allowed range."""


class GuardError(RuntimeError):
    """A desk-scale size guard was exceeded (oracles are exact, not scalable)."""


class StreamError(RuntimeError):
    """I/O failed while a pass was in progress; the pass is not counted."""


class SourceChangedError(InputError):
    """A file's bytes changed between opening it and a pass."""

"""Exception types shared across the package, and the one helper their
messages share.

The CLI maps InputError (and subclasses) and StreamError to exit code 2,
and GuardError to exit code 3.
"""


def readable(count):
    """An integer in full, or to three digits once it is longer than 12."""
    digits = str(abs(count))
    if len(digits) > 12:
        digits = f"{digits[0]}.{digits[1:3]}e{len(digits) - 1}"
    return "-" + digits if count < 0 else digits


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

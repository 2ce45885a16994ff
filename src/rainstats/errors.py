"""Exception types shared across the package, and :func:`blamed`, which
names what is at fault in a data error's message.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2 and solver failures exit 3.
"""

from contextlib import contextmanager

#: Built-in exceptions that input the program cannot use raises: a value
#: out of range (``ValueError``), an integer too large for numpy
#: (``OverflowError``), a file that cannot be read or written (``OSError``).
#: The CLI reports each as a data error.
DATA_ERRORS = (ValueError, OverflowError, OSError)


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (unknown key, bad value)."""


class DataError(ValueError):
    """Malformed or internally inconsistent input data."""


class SolverError(RuntimeError):
    """A numerical solver failed to converge or hit its safety cap."""


@contextmanager
def blamed(prefix: str, errors=ValueError):
    """Re-raise an error of type ``errors`` from the block as a
    :class:`DataError` with ``prefix`` and ``': '`` in front of its message.
    Nested blocks name what is at fault from the outside in: the file,
    then the line or site."""
    try:
        yield
    except errors as e:
        raise DataError(f"{prefix}: {e}") from None

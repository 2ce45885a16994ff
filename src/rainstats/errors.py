"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1, data
problems exit 2 and solver failures exit 3.
"""

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

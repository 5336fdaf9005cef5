"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI:
  ConfigError -> 1, DataError (incl. ParseError) -> 2, NumericError -> 3
"""

import contextlib


class ConfigError(Exception):
    """Invalid configuration or usage."""


class DataError(Exception):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """Malformed input file; message names the offending line."""


class NumericError(Exception):
    """Non-finite values or an autodiff contract violation."""


@contextlib.contextmanager
def writing(path):
    """An OSError raised while the body writes the output ``path`` is a
    :class:`DataError` naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc)) from None

"""Exceptions shared across the package, and how a read error names its file.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data problems with 3, numerical failures with 4.
"""

from contextlib import contextmanager


class QpdecompError(Exception):
    """Base class for all errors raised by qpdecomp."""


class ConfigError(QpdecompError):
    """Invalid configuration or parameterization."""


class DataError(QpdecompError):
    """Malformed, inconsistent, or out-of-range input data."""


class NumericalError(QpdecompError):
    """A numerical procedure failed or left its validity range."""


@contextmanager
def reading(path, error=DataError):
    """Name ``path`` in every error raised while reading it, or while
    checking it against a model or a parameter: a
    :class:`QpdecompError` keeps its class and gets the prefix
    ``<path>: ``, and a file that cannot be opened or is not UTF-8 text (an
    ``OSError`` or ``UnicodeDecodeError``) becomes
    ``error("<path>: cannot read: ...")``."""
    try:
        yield
    except QpdecompError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"{path}: cannot read: {reason}") from None

"""Exceptions shared across the package, how a read or a write error names
its file, the one way to write a file and a directory whole, and the one
check that refuses a request for more memory than the machine has.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data problems with 3, numerical failures with 4.
"""

import os
import shutil
import stat
from contextlib import contextmanager, suppress
from pathlib import Path


class QpdecompError(Exception):
    """Base class for all errors raised by qpdecomp."""


class ConfigError(QpdecompError):
    """Invalid configuration or parameterization."""


class DataError(QpdecompError):
    """Malformed, inconsistent, or out-of-range input data."""


class NumericalError(QpdecompError):
    """A numerical procedure failed or left its validity range."""


def _available_bytes():
    """Memory a request may take: MemAvailable, else free physical pages;
    None when neither can be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, AttributeError):
        return None


def check_memory(need, what):
    """Raise :class:`DataError` when ``need`` bytes, which ``what`` needs,
    exceed the memory available; called before anything is allocated."""
    available = _available_bytes()
    if available is not None and need > available:
        raise DataError(f"{what} need {need / 1e6:.0f} MB, but only "
                        f"{available / 1e6:.0f} MB of memory is available")


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


def cannot_write(path, reason):
    """The :class:`ConfigError` of a failed write of ``path``; ``reason``
    is an ``OSError`` or a text."""
    reason = getattr(reason, "strerror", None) or reason
    return ConfigError(f"{path}: cannot write: {reason}")


def check_target(path):
    """Raise :func:`cannot_write` unless ``path`` is absent or, through any
    symlinks, a regular file: a FIFO, a device or a socket is refused."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as exc:
        raise cannot_write(path, exc) from None
    if not stat.S_ISREG(mode):
        raise cannot_write(path, "not a regular file")


def _temporary(directory):
    """A new ``.qpdecomp-<12 hex>.tmp`` in ``directory``: 26 bytes,
    whatever the target's name."""
    return Path(directory) / f".qpdecomp-{os.urandom(6).hex()}.tmp"


@contextmanager
def writing(path, binary=False):
    """Yield a new file (UTF-8 text with ``\\n`` line ends, or ``binary``)
    whose content replaces ``path`` when the block ends, so ``path`` holds
    its earlier content or the whole new one.

    The file is a :func:`_temporary` beside ``path``, or beside the file
    that a symlink ``path`` points to, and is renamed onto it; it gets the
    default mode.  On any failure the temporary is removed and the error
    raised in the block propagates, except that an ``OSError`` becomes
    :func:`cannot_write`.  A target that is neither absent nor a regular
    file is refused (:func:`check_target`).
    """
    real = Path(os.path.realpath(path))
    tmp = _temporary(real.parent)
    try:
        check_target(path)
        with (open(tmp, "xb") if binary else
              open(tmp, "x", encoding="utf-8", newline="\n")) as fh:
            yield fh
        os.replace(tmp, real)
    except OSError as exc:
        raise cannot_write(path, exc) from None
    finally:
        # the first error is the one to report, not the cleanup's own
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


@contextmanager
def writing_dir(path):
    """The twin of :func:`writing` for a directory: yield a new empty
    directory, a :func:`_temporary` beside ``path`` with the default mode,
    that is renamed onto ``path`` when the block ends.

    On entry, before the block runs, ``path`` must be absent or an empty
    directory, under no file; its missing parents are made.  On any failure
    the temporary and the parents that this call made are removed, ``path``
    is left as it was, and the error raised in the block propagates,
    naming a file in the temporary under ``path`` as given; an ``OSError``
    of making or renaming the directory, as when a file appears in ``path``
    meanwhile, becomes :func:`cannot_write`.
    """
    # absolute, so that "." and ".." name a directory to stage beside
    target = Path(os.path.abspath(path))
    tmp = _temporary(target.parent)
    made = []           # the parents made here, deepest first
    try:
        try:
            # "/" exists, so some directory on the way up does
            chain = (target, *target.parents)
            i = next(i for i, p in enumerate(chain) if p.exists())
            if not chain[i].is_dir():
                raise cannot_write(path, f"{chain[i]} is not a directory")
            if i == 0 and any(target.iterdir()):
                raise cannot_write(path, "directory is not empty")
            for parent in reversed(chain[1:i]):
                parent.mkdir()
                made.insert(0, parent)
            tmp.mkdir()
        except OSError as exc:
            raise cannot_write(path, exc) from None
        try:
            yield tmp
        except QpdecompError as exc:
            named = str(exc).replace(os.path.join(tmp, ""),
                                     os.path.join(path, ""))
            raise type(exc)(named) from None
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise cannot_write(path, exc) from None
        made = []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        # a parent that another writer has filled meanwhile stays
        for parent in made:
            with suppress(OSError):
                parent.rmdir()

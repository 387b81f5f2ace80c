"""npz files: byte-stable, written whole, and read with a DataError for any
file that is not one."""

import io
import zipfile

import numpy as np

from .errors import DataError, writing


def write_npz(path, arrays):
    """Write ``arrays`` with fixed zip timestamps, so that equal arrays give
    equal bytes, through :func:`errors.writing`: ``path`` holds its earlier
    content or the whole new archive."""
    with writing(path, binary=True) as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asanyarray(arr),
                                      allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def read_npz(path):
    """Every array of the npz archive at ``path``, by name; the file is closed
    also when np.load fails.  A truncated or foreign file is a
    :class:`DataError`; the caller names it (see :func:`errors.reading`)."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile):
            # TypeError: np.load returns a bare .npy array, not an archive
            raise DataError("not a readable npz archive (truncated, or "
                            "another format)") from None

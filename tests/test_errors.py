import os
import stat

import pytest

from qpdecomp.errors import ConfigError, writing


def write(path, text):
    with writing(path) as fh:
        fh.write(text)


def test_replaces_the_file_with_the_default_mode(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    write(path, "new\n")
    umask = os.umask(0)
    os.umask(umask)
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["a.csv"]


def test_a_symlink_is_written_through(tmp_path):
    (tmp_path / "d").mkdir()
    real = tmp_path / "d" / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write(link, "new\n")
    assert link.is_symlink() and real.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path / "d")) == ["real.csv"]


@pytest.mark.parametrize("target, reason", [
    ("fifo", "not a regular file"),
    ("x" * 300, "File name too long"),
    ("absent/a.csv", "No such file or directory"),
])
def test_a_write_error_names_the_path(tmp_path, target, reason):
    # the temporary's cleanup fails too on the long name, and the first
    # error is the one reported
    path = tmp_path / target
    if target == "fifo":
        os.mkfifo(path)
    with pytest.raises(ConfigError) as info:
        write(path, "new\n")
    assert str(info.value) == f"{path}: cannot write: {reason}"
    assert os.listdir(tmp_path) == (["fifo"] if target == "fifo" else [])

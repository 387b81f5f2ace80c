import os
import re
import stat

import pytest

from qpdecomp.errors import ConfigError, DataError, writing, writing_dir

# the name of every temporary, whatever its target's
TEMPORARY = re.compile(r"\.qpdecomp-[0-9a-f]{12}\.tmp")


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
    # the long name fails before the temporary is made
    path = tmp_path / target
    if target == "fifo":
        os.mkfifo(path)
    with pytest.raises(ConfigError) as info:
        write(path, "new\n")
    assert str(info.value) == f"{path}: cannot write: {reason}"
    assert os.listdir(tmp_path) == (["fifo"] if target == "fifo" else [])


@pytest.mark.parametrize("name", ["a", "y" * 255])
def test_temporaries_have_one_fixed_length_name(tmp_path, name):
    # a file's and a directory's temporary alike, at any legal target name
    with writing(tmp_path / name) as fh:
        (tmp,) = os.listdir(tmp_path)
        assert TEMPORARY.fullmatch(tmp)
        fh.write("new\n")
    with writing_dir(tmp_path / "d") as staged:
        assert TEMPORARY.fullmatch(staged.name)
        (staged / name).write_text("new\n")
    assert sorted(os.listdir(tmp_path)) == sorted([name, "d"])
    assert os.listdir(tmp_path / "d") == [name]


@pytest.mark.parametrize("existed", [False, True], ids=["absent", "empty"])
def test_a_directory_replaces_the_target_with_the_default_mode(tmp_path,
                                                                existed):
    target = tmp_path / "parent" / "out"
    if existed:
        target.mkdir(parents=True, mode=0o700)
    with writing_dir(target) as staged:
        assert not (target.exists() and any(target.iterdir()))
        (staged / "a.csv").write_text("new\n")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o777 & ~umask
    assert os.listdir(target.parent) == ["out"]
    assert os.listdir(target) == ["a.csv"]


@pytest.mark.parametrize("existed", [False, True, None],
                         ids=["absent", "empty", "parents_absent"])
def test_a_failed_directory_is_left_as_it_was(tmp_path, existed):
    # the error names the staged file under the target as given, nested
    # directories too, and the temporaries are gone, with the parents that
    # were made for them
    target = tmp_path / "out" if existed is not None else \
        tmp_path / "a" / "b" / "out"
    if existed:
        target.mkdir()
    with pytest.raises(DataError) as info:
        with writing_dir(target) as staged:
            with writing_dir(staged / "sub") as inner:
                raise DataError(f"{inner / 'a.csv'}: bad")
    assert str(info.value) == f"{target / 'sub' / 'a.csv'}: bad"
    assert os.listdir(tmp_path) == (["out"] if existed else [])
    if existed:
        assert os.listdir(target) == []


@pytest.mark.parametrize("target, reason", [
    ("taken", "directory is not empty"),
    ("file", "{tmp_path}/file is not a directory"),
    ("file/sub", "{tmp_path}/file is not a directory"),
    ("x" * 300, "File name too long"),
    # the parent "new" is made, and removed when the next one fails
    ("new/" + "x" * 300 + "/out", "File name too long"),
])
def test_a_taken_directory_is_refused_before_the_block(tmp_path, target,
                                                       reason):
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "keep.txt").write_text("k\n")
    (tmp_path / "file").write_text("f\n")
    path = tmp_path / target
    with pytest.raises(ConfigError) as info:
        with writing_dir(path):
            pytest.fail("the block ran")
    assert str(info.value) == (f"{path}: cannot write: "
                               + reason.format(tmp_path=tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["file", "taken"]
    assert os.listdir(tmp_path / "taken") == ["keep.txt"]


def test_a_file_that_appears_in_the_target_fails_the_rename(tmp_path):
    target = tmp_path / "out"
    with pytest.raises(ConfigError) as info:
        with writing_dir(target):
            target.mkdir()
            (target / "theirs.txt").write_text("foreign")
    assert str(info.value) == f"{target}: cannot write: Directory not empty"
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(target) == ["theirs.txt"]

import errno
import json
import os
import re
from pathlib import Path

import pytest

from openworld_kit import errors
from openworld_kit.errors import UnwritableOutput, atomic_text_file, write_json

PAYLOAD = {"b": [1.5, 0.1], "a": {"nested": True}}


class TestWriteJson:
    def test_bytes(self, tmp_path):
        write_json(tmp_path / "x.json", PAYLOAD)
        assert (tmp_path / "x.json").read_text() == \
            json.dumps(PAYLOAD, indent=1, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    # `write_json` writes in place, and its callers' `atomic_directory` makes
    # the file whole: `test_training.py::TestCheckpointIsWholeOrAbsent`,
    # gen's `test_failed_gen_keeps_the_old_world` in `test_cli.py` and the
    # fault sweep of `test_faults.py` fail writes inside it


class TestAtomicTextFile:
    def test_writes_the_text(self, tmp_path):
        with atomic_text_file(tmp_path / "x.txt") as fh:
            fh.write("a\n")
            fh.write("b\n")
        assert (tmp_path / "x.txt").read_bytes() == b"a\nb\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_torn_write_leaves_the_old_file_or_none(self, tmp_path, tear_writes, previous):
        path = tmp_path / "x.txt"
        if previous:
            path.write_bytes(b"old\n")
        tear_writes("x.txt")
        with pytest.raises(UnwritableOutput):
            with atomic_text_file(path) as fh:
                fh.write("a\n")
                fh.write("b\n")
        assert [p.name for p in tmp_path.iterdir()] == (["x.txt"] if previous else [])
        if previous:
            assert path.read_bytes() == b"old\n"


class TestAtomicTextFiles:
    @pytest.mark.parametrize("directory", [0, 1], ids=["first", "second"])
    def test_directory_target_leaves_every_path_as_it_was(self, tmp_path, directory):
        """A directory among the targets is refused before the first rename,
        so the other target keeps its old bytes whatever its place."""
        paths = [tmp_path / "r.json", tmp_path / "r.csv"]
        old = paths[1 - directory]
        old.write_bytes(b"old\n")
        paths[directory].mkdir()
        with pytest.raises(errors.UnwritableOutput,
                           match=re.escape(f"cannot write {paths[directory]}: Is a directory")):
            with errors.atomic_text_files(*paths) as handles:
                for fh in handles:
                    fh.write("new\n")
        assert old.read_bytes() == b"old\n"
        assert list(paths[directory].iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]

    @pytest.mark.parametrize("links", [True, False], ids=["hard-link", "copy"])
    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_failed_second_rename_puts_back_the_first(self, tmp_path, monkeypatch,
                                                      previous, links):
        """The first target is renamed when the second rename fails: it gets
        its old bytes back (or goes, if it had none), the second keeps its
        own, and no temporary file stays behind, with or without hard
        links."""
        paths = [tmp_path / "r.json", tmp_path / "r.csv"]
        if previous:
            for path in paths:
                path.write_bytes(f"old {path.name}\n".encode())
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append((src, dst))
            if len(calls) == 2:
                raise OSError(errno.EIO, "I/O error")
            real_replace(src, dst)
        monkeypatch.setattr(errors.os, "replace", replace)
        if not links:
            def no_link(*args, **kwargs):
                raise OSError(errno.EPERM, "Operation not permitted")
            monkeypatch.setattr(errors.os, "link", no_link)
        with pytest.raises(errors.UnwritableOutput, match="cannot write .*r.csv: I/O error"):
            with errors.atomic_text_files(*paths) as handles:
                for fh in handles:
                    fh.write("new\n")
        assert [Path(dst).name for _, dst in calls[:2]] == ["r.json", "r.csv"]
        if previous:
            assert [path.read_bytes() for path in paths] == [b"old r.json\n", b"old r.csv\n"]
            assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_renames_leave_no_old_file_behind(self, tmp_path):
        paths = [tmp_path / "r.json", tmp_path / "r.csv"]
        for text in ("old\n", "new\n"):
            with errors.atomic_text_files(*paths) as handles:
                for fh in handles:
                    fh.write(text)
        assert [path.read_bytes() for path in paths] == [b"new\n", b"new\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]

    def test_link_to_a_directory_is_replaced(self, tmp_path):
        """A rename replaces a symbolic link itself, so a link to a
        directory is a writable target."""
        (tmp_path / "d").mkdir()
        (tmp_path / "x.txt").symlink_to(tmp_path / "d")
        with errors.atomic_text_files(tmp_path / "x.txt") as (fh,):
            fh.write("new\n")
        assert (tmp_path / "x.txt").read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "x.txt"]

    def test_link_to_a_directory_first_of_two_is_replaced(self, tmp_path):
        """The old file kept for the first of two targets is the link
        itself, not the directory it points to."""
        (tmp_path / "d").mkdir()
        (tmp_path / "x.txt").symlink_to(tmp_path / "d")
        paths = [tmp_path / "x.txt", tmp_path / "y.csv"]
        with errors.atomic_text_files(*paths) as handles:
            for fh in handles:
                fh.write("new\n")
        assert [path.read_bytes() for path in paths] == [b"new\n", b"new\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "x.txt", "y.csv"]


class TestAtomicDirectory:
    def test_replaces_the_old_directory(self, tmp_path):
        with errors.atomic_directory(tmp_path / "d") as d:
            (d / "old.txt").write_text("old")
        with errors.atomic_directory(tmp_path / "d") as d:
            (d / "new.txt").write_text("new")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["new.txt"]

    @pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
    def test_failed_block_leaves_the_old_directory_or_none(self, tmp_path, previous):
        if previous:
            with errors.atomic_directory(tmp_path / "d") as d:
                (d / "old.txt").write_text("old")
        with pytest.raises(UnwritableOutput):
            with errors.atomic_directory(tmp_path / "d") as d:
                (d / "half.txt").write_text("ha")
                raise OSError("no space left on device")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == (
            ["d", "d/old.txt"] if previous else [])

    def test_stale_temporary_directory_is_cleared(self, tmp_path):
        (tmp_path / "d.tmp").mkdir()
        (tmp_path / "d.tmp" / "stale.txt").write_text("stale")
        with errors.atomic_directory(tmp_path / "d") as d:
            assert list(d.iterdir()) == []
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

"""Every write of every command, failed in turn.

The k-th call of a write-mode `open`, `os.replace`, `os.link`,
`shutil.copyfile` or `os.mkdir` raises, for k = 1, 2, ... until a run makes
fewer such calls than k. Every fault is an `OSError` (the command ends in one
`error: cannot write ...` line) or a `KeyboardInterrupt` (it propagates).
After each, every output is its old bytes, its new bytes or absent, a report
pair is both old or both new, no `.tmp` is left, nothing else changed, and
the next clean run writes the bytes of a run that never failed. One CPU, so
that every write happens, and is counted, in this process.
"""

import builtins
import errno
import os
import resource
import shutil
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import pytest

from openworld_kit import cli, parallel

TINY_INI = """
[world]
dim = 8
known_per_task = 2,2
n_nood = 1
n_food = 0
known_angle_range = 0.7,1.1
pyramid_layers = 8x8x16,4x4x32
level_thresholds = 0,64
box_size_ranges = 20-56,72-120
boxes_per_scene = 2,4
scenes_per_split = train:3,cal:2,test:2

[train]
steps_per_task = 2
batch_size = 2
"""

ARGS = ("--config", "tiny.ini", "--seed", "0", "--out", "out")
DETECTIONS = "out/detections/task2_test.jsonl"
REPORT = "out/reports/task2_test_report"
ALPHA = "out/reports/ablate_alpha/0.2_report"

# name: (the command; its outputs, a directory's with a final slash; its
# report pairs). Each runs on the outputs of gen, train 1-2 and infer.
CASES = {
    "gen": (("gen",), ["out/world/"], []),
    "train-1": (("train", "--task", "1"), ["out/checkpoints/task_1/"], []),
    # task 2 copies task 1's module files
    "train-2": (("train", "--task", "2"), ["out/checkpoints/task_2/"], []),
    "infer": (("infer", "--task", "2"), [DETECTIONS, DETECTIONS + ".columns"], []),
    "eval": (("eval", "--task", "2", "--detections", DETECTIONS),
             [REPORT + ".json", REPORT + ".csv"], [(REPORT + ".json", REPORT + ".csv")]),
    "ablate-alpha": (("ablate", "--task", "2", "--parameter", "alpha", "--values", "0.2"),
                     ["out/detections/ablate_alpha_0.2.jsonl",
                      "out/detections/ablate_alpha_0.2.jsonl.columns",
                      ALPHA + ".json", ALPHA + ".csv", "out/reports/ablate_alpha/sweep.csv"],
                     [(ALPHA + ".json", ALPHA + ".csv")]),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A directory holding `tiny.ini` and the outputs of gen, train 1-2 and
    infer under `out`."""
    root = tmp_path_factory.mktemp("faults")
    (root / "tiny.ini").write_text(TINY_INI)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in (("gen",), ("train", "--task", "1"), ("train", "--task", "2"),
                     ("infer", "--task", "2")):
            assert cli.main([*argv, *ARGS]) == 0
    return root


class Faults:
    """While armed at `at`, the `at`-th call that changes the file system
    raises `kind` before it does anything."""

    def __init__(self, monkeypatch):
        self.at, self.calls, self.kind = 0, 0, OSError
        real_open = builtins.open

        def open_(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                self.step()
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", open_)
        for owner, name in ((os, "replace"), (os, "link"), (shutil, "copyfile"),
                            (os, "mkdir")):
            monkeypatch.setattr(owner, name, self.guard(getattr(owner, name)))

    def guard(self, fn):
        def guarded(*args, **kwargs):
            self.step()
            return fn(*args, **kwargs)
        return guarded

    def step(self):
        if self.at:
            self.calls += 1
            if self.calls == self.at:
                if self.kind is OSError:
                    raise OSError(errno.EIO, "injected fault")
                raise KeyboardInterrupt

    def arm(self, at, kind):
        self.at, self.calls, self.kind = at, 0, kind

    def fired(self) -> bool:
        """Whether the armed call came; disarms."""
        fired, self.at = self.calls >= self.at, 0
        return fired


DIR = "directory"


def tree(root: Path) -> dict[str, bytes | str]:
    """Every path under `root` (relative to its parent): a file's bytes, or
    `DIR`."""
    return {p.relative_to(root.parent).as_posix(): DIR if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def covers(target: str, path: str) -> bool:
    """Whether `path` is the output `target` or, for a directory, in it."""
    return path == target.rstrip("/") or target.endswith("/") and path.startswith(target)


def under(files: dict, target: str) -> dict:
    return {p: data for p, data in files.items() if covers(target, p)}


def check_state(now, old, new, targets, pairs):
    assert not [p for p in now if p.endswith(".tmp")]
    # a directory a target goes in may have been made for it
    parents = {parent.as_posix() for t in targets for parent in Path(t).parents}
    outside = [p for p in {*now, *old} if not any(covers(t, p) for t in targets)
               and not (p in parents and p not in old and now[p] == DIR)]
    assert {p: now.get(p) for p in outside} == {p: old.get(p) for p in outside}
    for target in targets:
        assert under(now, target) in (under(old, target), under(new, target), {}), target
    for pair in pairs:
        assert [now.get(p) for p in pair] in ([old.get(p) for p in pair],
                                              [new.get(p) for p in pair]), pair


@pytest.mark.parametrize("kind", [OSError, KeyboardInterrupt], ids=["oserror", "interrupt"])
@pytest.mark.parametrize("previous", [True, False], ids=["over-old", "fresh"])
@pytest.mark.parametrize("case", list(CASES))
def test_every_failed_write_leaves_old_or_new(run_dir, tmp_path, monkeypatch, capsys,
                                              case, previous, kind):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    shutil.copy(run_dir / "tiny.ini", "tiny.ini")
    command, targets, pairs = CASES[case]
    argv = [*command, *ARGS]
    pristine, out = tmp_path / "pristine", Path("out")
    shutil.copytree(run_dir / "out", pristine)
    for target in targets:
        path = pristine / Path(target).relative_to("out")
        if target.endswith("/"):
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)
            with suppress(OSError):  # a directory only the outputs were in
                path.parent.rmdir()
        if previous:  # an old output of other bytes
            marker = path / "old" if target.endswith("/") else path
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text("old\n")
    shutil.copytree(pristine, out)
    old = tree(out)
    assert cli.main(argv) == 0
    new = tree(out)
    assert [t for t in targets if under(new, t) == under(old, t)] == []
    faults, failed = Faults(monkeypatch), 0
    for at in range(1, 1000):
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        capsys.readouterr()
        faults.arm(at, kind)
        try:
            code = cli.main(argv)
        except KeyboardInterrupt:
            code = None
        if not faults.fired():
            break
        err = capsys.readouterr().err
        if kind is OSError:
            # a fault the command does without (the column file, a hard
            # link that a copy replaces) ends in success
            assert code == 0 or (code == 1 and err.startswith("error: cannot write ")
                                 and err.count("\n") == 1), err
            assert "Traceback" not in err
        else:
            assert code is None
        failed += code == 1
        now = tree(out)
        check_state(now, old, new, targets, pairs)
        if now != old:  # from the old state, the clean run is the one above
            assert cli.main(argv) == 0
            assert tree(out) == new, at
    # the run in which no call failed wrote the new bytes
    assert code == 0 and tree(out) == new
    assert failed > 1 if kind is OSError else at > 3


def limited(limit: int):
    """A `preexec_fn` that caps the size of every file the child (and any
    process it forks) writes at `limit` bytes: a write past it fails with
    `EFBIG`, since Python ignores `SIGXFSZ`."""
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))


@pytest.mark.parametrize("command, limit", [
    (("gen", "--seed", "1"), 3000),            # a scene blob is 3,884 bytes
    (("train", "--task", "2"), 4000),          # a module file is 4,412 bytes
    (("infer", "--task", "2"), 16000),         # the detections file is 40 kB
    (("eval", "--task", "2", "--detections", DETECTIONS), 1024),  # its report 2 kB
], ids=["gen", "train", "infer", "eval"])
def test_file_size_limit_ends_in_one_error_line(run_dir, tmp_path, monkeypatch,
                                                command, limit):
    """Under `RLIMIT_FSIZE` the command exits 1 with one `error: cannot
    write` line and no traceback, and leaves every old output whole."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(run_dir / "tiny.ini", "tiny.ini")
    shutil.copytree(run_dir / "out", "out")
    assert cli.main(["eval", "--task", "2", "--detections", DETECTIONS, *ARGS]) == 0
    old = tree(Path("out"))
    env = os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "openworld_kit.cli", *command, *ARGS],
                          capture_output=True, text=True, env=env, preexec_fn=limited(limit))
    assert done.returncode == 1
    assert done.stderr.startswith("error: cannot write out/") and \
        done.stderr.endswith(": File too large\n") and done.stderr.count("\n") == 1
    assert tree(Path("out")) == old


@pytest.mark.parametrize("command, blocked", [
    (("infer", "--task", "2"), "out/detections"),
    (("eval", "--task", "2", "--detections", "d.jsonl"), "out/reports"),
], ids=["infer", "eval"])
def test_file_where_the_output_directory_goes(run_dir, tmp_path, monkeypatch, capsys,
                                              command, blocked):
    monkeypatch.chdir(tmp_path)
    shutil.copy(run_dir / "tiny.ini", "tiny.ini")
    shutil.copytree(run_dir / "out", "out")
    shutil.copy(DETECTIONS, "d.jsonl")
    shutil.rmtree(blocked, ignore_errors=True)
    Path(blocked).write_text("a file\n")
    old = tree(Path("out"))
    capsys.readouterr()
    assert cli.main([*command, *ARGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}/") and \
        err.endswith(": Not a directory\n") and err.count("\n") == 1
    assert tree(Path("out")) == old

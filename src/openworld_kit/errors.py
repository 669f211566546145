"""Exception taxonomy shared across the toolkit, the JSON file reader that
maps a missing or malformed file onto it, and the writers of a whole file
and of a whole directory."""

import errno
import json
import os
import shutil
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path


class OpenWorldKitError(Exception):
    """Base class for all toolkit errors."""


class ZeroVector(OpenWorldKitError):
    """A vector with (near-)zero norm was given where a direction is required."""


class EmptyRegistry(OpenWorldKitError):
    """Operation needs at least one registered class."""


class DegenerateMean(OpenWorldKitError):
    """Known-class embeddings cancel; the mean direction is undefined."""


class DuplicateClass(OpenWorldKitError):
    """A class name was registered twice."""


class ShapeMismatch(OpenWorldKitError):
    """Array shapes disagree with the module or pyramid layout."""


class DegenerateProjection(OpenWorldKitError):
    """A projected embedding collapsed to zero norm before normalization."""


class NoSamples(OpenWorldKitError):
    """A loss was requested without any contributing samples."""


class NoModules(OpenWorldKitError):
    """An OOD score was requested with no class modules available."""


class EmptyScores(OpenWorldKitError):
    """Threshold calibration needs a nonempty score set."""


class SourceOutOfRange(OpenWorldKitError):
    """A detection points at a pyramid location outside the score map."""


class InfeasibleSpec(OpenWorldKitError):
    """World generation could not satisfy the requested geometry."""


class MissingCheckpoint(OpenWorldKitError):
    """A required checkpoint directory or file does not exist."""


class MissingWorld(OpenWorldKitError):
    """A command needs a generated world that is not there."""


class MissingInput(OpenWorldKitError):
    """An input file named on the command line or by a run does not exist."""


class UnwritableOutput(OpenWorldKitError):
    """An output file cannot be written at its path (a directory, say)."""


class UndefinedOperatingPoint(OpenWorldKitError):
    """The requested recall level is unreachable on this detection set."""


class ParseError(OpenWorldKitError):
    """An input file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class ConfigError(OpenWorldKitError):
    """A run configuration contains unknown keys or invalid values."""


def read_json(path, what: str, parse, missing=MissingInput, hint: str = ""):
    """`parse` applied to the JSON document in the file at `path`.

    A missing file raises `missing` (with `hint` appended). A file that
    cannot be read (a directory, say), is not UTF-8 JSON or nests past the
    recursion limit, and a document that `parse` rejects with a
    `ParseError`, `KeyError`, `TypeError`, `ValueError`, `AttributeError` or
    `OverflowError`, raise `ParseError`. Every message names `what` and the
    file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise missing(f"no {what} at {path}{hint}") from exc
    except OSError as exc:  # a directory, say
        raise ParseError(f"cannot read {what}: {exc.strerror or exc}", path=str(path)) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad {what}: {exc}", path=str(path)) from exc
    try:
        return parse(document)
    except ParseError as exc:
        raise ParseError(f"bad {what}: {exc}", path=str(path)) from exc
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"bad {what}: missing or bad field {exc!r}",
                         path=str(path)) from exc


@contextmanager
def _reported(output):
    """A scope whose `OSError`s raise `UnwritableOutput` naming `output`."""
    try:
        yield
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {output}: {exc.strerror or exc}") from exc


@contextmanager
def atomic_text_files(*paths, binary: bool = False):
    """Yield a text handle (a bytes handle with `binary`) on `<path>.tmp` for
    each of `paths` to write, its directory created first; when the block
    ends and every file is whole, each replaces its path in one rename.

    Each path is therefore its old file (absent if it had none) or the whole
    new one, and unless the process dies between two renames, all paths are
    old or all new. A block that raises leaves every path as it was and no
    temporary file behind. Any `OSError` of the scope, the block's writes
    included, raises one `UnwritableOutput` naming the paths; a path that
    is a directory raises it naming that path, before the first rename.
    Every path but the last keeps its old file at `<path>.old.tmp` (a hard
    link, or a copy) until the renames are done, so a rename that fails
    puts back the paths renamed before it.
    """
    tmps = [Path(f"{path}.tmp") for path in paths]
    olds = [Path(f"{path}.old.tmp") for path in paths[:-1]]
    with _reported(" and ".join(map(str, paths))):
        try:
            for tmp in tmps:  # a file in a directory's place fails the open
                if not os.path.lexists(tmp.parent):
                    tmp.parent.mkdir(parents=True)
            with ExitStack() as stack:
                yield [stack.enter_context(open(tmp, "wb") if binary else
                                           open(tmp, "w", encoding="utf-8")) for tmp in tmps]
            for path in paths:
                if os.path.isdir(path) and not os.path.islink(path):
                    raise UnwritableOutput(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
            renamed = 0
            try:
                for old, path in zip(olds, paths):
                    _keep_old(path, old)
                for tmp, path in zip(tmps, paths):
                    os.replace(tmp, path)
                    renamed += 1
            except BaseException:
                for old, path in zip(olds[:renamed], paths):
                    with suppress(OSError):
                        if os.path.lexists(old):
                            os.replace(old, path)
                        else:
                            os.unlink(path)
                raise
        except BaseException:
            for tmp in tmps:
                with suppress(OSError):
                    tmp.unlink(missing_ok=True)
            raise
        finally:
            for old in olds:
                with suppress(OSError):
                    old.unlink(missing_ok=True)


def _keep_old(path, old: Path) -> None:
    """Leave the file at `path`, if any, also at `old`: a hard link to it, or
    a copy on a file system without hard links."""
    old.unlink(missing_ok=True)
    if os.path.lexists(path):
        try:
            os.link(path, old, follow_symlinks=False)
        except OSError:
            shutil.copy2(path, old, follow_symlinks=False)


@contextmanager
def atomic_text_file(path, binary: bool = False):
    """`atomic_text_files` of the one file at `path`."""
    with atomic_text_files(path, binary=binary) as (fh,):
        yield fh


def dump_json(payload, fh) -> None:
    """Write `payload` as every JSON file of the toolkit is written: one-space
    indent, sorted keys and a final newline."""
    json.dump(payload, fh, indent=1, sort_keys=True)
    fh.write("\n")


def write_json(path, payload) -> None:
    """`dump_json` into the file at `path`, written in place: every caller
    writes inside an `atomic_directory`, whose rename makes the file whole."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(payload, fh)


def _remove(path: Path) -> None:
    """Remove whatever is at `path`, if anything: a directory tree, or a
    file or symlink, which is not followed."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    elif os.path.lexists(path):
        path.unlink()


@contextmanager
def atomic_directory(path):
    """Yield an empty directory beside `path` to fill, its parents created
    first; when the block ends, it replaces `path` and all of its old
    contents in one rename.

    `path` is therefore the old directory or the whole new one (absent if
    there was none), so the block writes its files in place. A block that
    raises leaves `path` as it was and no temporary directory behind.
    Whatever a failed run left at `<path>.tmp` or `<path>.old.tmp`, a file
    or a symlink included, is removed first. The old directory waits at
    `<path>.old.tmp` until the new one is in place, and goes back if that
    rename fails. Any `OSError` of the scope, the block's writes, mkdirs and
    copies included, raises one `UnwritableOutput` naming `path`.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    old = path.with_name(path.name + ".old.tmp")
    with _reported(path):
        for leftover in (tmp, old):
            _remove(leftover)
        try:
            tmp.mkdir(parents=True)
            yield tmp
            if os.path.lexists(path):
                os.replace(path, old)
            try:
                os.replace(tmp, path)
            except BaseException:
                if os.path.lexists(old):
                    with suppress(OSError):
                        os.replace(old, path)
                raise
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
    # the new directory is in place: the old one is only a leftover, which
    # the next call removes if this one cannot
    with suppress(OSError):
        _remove(old)

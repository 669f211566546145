"""Exception taxonomy shared across the toolkit, the JSON file reader that
maps a missing or malformed file onto it, and the writers of a whole file
and of a whole directory."""

import json
import os
import shutil
from contextlib import ExitStack, contextmanager
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

    A missing file raises `missing` (with `hint` appended). A file that is
    not UTF-8 JSON or nests past the recursion limit, and a document that
    `parse` rejects with a `ParseError`, `KeyError`, `TypeError`,
    `ValueError`, `AttributeError` or `OverflowError`, raise `ParseError`.
    Every message names `what` and the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise missing(f"no {what} at {path}{hint}") from exc
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
def atomic_text_files(*paths):
    """Yield a text handle on `<path>.tmp` for each of `paths` to write;
    when the block ends and every file is whole, each replaces its path in
    one rename.

    Each path is therefore its old file, the whole new one or absent, never
    a torn file. A block that raises leaves every path as it was and no
    temporary file behind.
    """
    tmps = [Path(f"{path}.tmp") for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_text_file(path):
    """`atomic_text_files` of the one file at `path`."""
    with atomic_text_files(path) as (fh,):
        yield fh


def dump_json(payload, fh) -> None:
    """Write `payload` as every JSON file of the toolkit is written: one-space
    indent, sorted keys and a final newline."""
    json.dump(payload, fh, indent=1, sort_keys=True)
    fh.write("\n")


def write_json(path, payload) -> None:
    """`dump_json` into the file at `path`, whole or not at all."""
    with atomic_text_file(path) as fh:
        dump_json(payload, fh)


@contextmanager
def atomic_directory(path):
    """Yield an empty directory beside `path` to fill; when the block ends,
    it replaces `path` and all of its old contents in one rename.

    `path` is therefore the old directory, the whole new one or absent,
    never a mix. A block that raises leaves `path` as it was and no
    temporary directory behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        tmp.mkdir(parents=True)
        yield tmp
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

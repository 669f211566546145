from pathlib import Path

import pytest

import criteria_log
from openworld_kit import errors


def pytest_terminal_summary(terminalreporter):
    if criteria_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in criteria_log.LINES:
            terminalreporter.write_line(line)


class _TornFile:
    """A text file whose first write goes through and whose second writes
    half of its text and then fails, as a crash or a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 1:
            return self.fh.write(text)
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.fixture()
def tear_writes(monkeypatch):
    """`tear_writes(name)` makes `errors.atomic_text_file` tear its temporary
    file at the second write whenever the target file is called `name`."""
    def tear(name):
        def torn_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _TornFile(fh) if Path(path).name == name + ".tmp" else fh
        monkeypatch.setattr(errors, "open", torn_open, raising=False)
    return tear

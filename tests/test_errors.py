import json

import pytest

from openworld_kit import errors
from openworld_kit.errors import write_json

PAYLOAD = {"b": [1.5, 0.1], "a": {"nested": True}}


def torn_dump(monkeypatch):
    """Make `json.dump` write half of its text and then fail, as a crash or
    a full disk would partway through a write."""
    real = json.dumps

    def dump(payload, fh, **kwargs):
        text = real(payload, **kwargs)
        fh.write(text[:len(text) // 2])
        fh.flush()
        raise OSError("no space left on device")
    monkeypatch.setattr(errors.json, "dump", dump)


class TestWriteJson:
    def test_bytes(self, tmp_path):
        write_json(tmp_path / "x.json", PAYLOAD)
        assert (tmp_path / "x.json").read_text() == \
            json.dumps(PAYLOAD, indent=1, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        write_json(path, {"old": 1})
        old = path.read_bytes()
        torn_dump(monkeypatch)
        with pytest.raises(OSError):
            write_json(path, PAYLOAD)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        torn_dump(monkeypatch)
        with pytest.raises(OSError):
            write_json(tmp_path / "x.json", PAYLOAD)
        assert list(tmp_path.iterdir()) == []

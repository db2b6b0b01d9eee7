import os

import pytest

import flagtuner.artifacts as artifacts
from flagtuner.artifacts import read_trace, write_json, write_trace
from flagtuner.evaluator import Measurement
from flagtuner.flagspace import Configuration
from flagtuner.search import CampaignTrace
from helpers import space_of


def trace_of(n: int) -> CampaignTrace:
    trace = CampaignTrace()
    for i in range(n):
        config = Configuration.from_bitstring("O3", format(i % 4, "02b"))
        trace.append(config, {"b": Measurement("ok", time=100.0 + i)}, "probe")
    return trace


def test_trace_write_that_raises_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "ric.trace"
    write_trace(path, trace_of(3))
    before = path.read_bytes()
    broken = trace_of(50)
    broken.records[-1].annotation = "\ud800"  # a lone surrogate: UTF-8 cannot encode it
    with pytest.raises(UnicodeEncodeError):
        write_trace(path, broken)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ric.trace"]
    assert len(read_trace(path, space_of(2))) == 3


def test_failed_replace_removes_the_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "summary.json"
    write_json(path, {"old": True})

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(OSError):
        write_json(path, {"old": False})
    assert path.read_text(encoding="utf-8") == '{\n  "old": true\n}\n'
    assert os.listdir(tmp_path) == ["summary.json"]


def test_temp_file_left_by_a_kill_is_replaced_by_the_next_write(tmp_path):
    path = tmp_path / "checkpoint.json"
    (tmp_path / ".checkpoint.json.tmp").write_text('{"torn', encoding="utf-8")
    write_json(path, {"status": "complete"})
    assert os.listdir(tmp_path) == ["checkpoint.json"]
    assert path.read_text(encoding="utf-8") == '{\n  "status": "complete"\n}\n'


def test_identical_rewrite_leaves_the_file_in_place(tmp_path):
    path = tmp_path / "folds.json"
    write_json(path, {"k": 5})
    inode = path.stat().st_ino
    write_json(path, {"k": 5})
    assert path.stat().st_ino == inode
    write_json(path, {"k": 4})
    assert path.stat().st_ino != inode
    assert path.read_text(encoding="utf-8") == '{\n  "k": 4\n}\n'

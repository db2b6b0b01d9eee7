import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import flagtuner.artifacts as artifacts
from flagtuner.artifacts import TRACE_COLUMNS, read_trace, write_csv, write_json, write_trace
from flagtuner.evaluator import Measurement
from flagtuner.flagspace import Configuration
from flagtuner.search import CampaignTrace
from helpers import csv_reference, space_of


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


# Names as a user may choose them: with CSV specials, spaces and non-ASCII text
_names = st.text(st.sampled_from(["a", "b", " ", ",", '"', "\n", "\r", "é", "漢"]), max_size=5)

_measurements = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(lambda t: Measurement("ok", time=t)),
    st.sampled_from(["compile_error", "run_error", "timeout"]).map(Measurement),
)


@st.composite
def spaced_traces(draw):
    """A trace and a space it fits: zero flags too, so an empty bitstring."""
    n = draw(st.integers(0, 3))
    levels = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    trace = CampaignTrace()
    for _ in range(draw(st.integers(0, 4))):
        config = Configuration(draw(st.sampled_from(levels)),
                               tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        benches = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
        trace.append(config, {b: draw(_measurements) for b in benches}, draw(_names))
    return space_of(n, levels=tuple(levels)), trace


def _rows(trace: CampaignTrace) -> list[list]:
    return [[rec.seq, rec.config.bitstring, rec.config.base_level, bench,
             "" if m.time is None else repr(m.time), m.status, rec.annotation]
            for rec in trace.records for bench, m in rec.measurements.items()]


@given(spaced_traces())
def test_trace_is_the_csv_module_text_and_reads_back(space_trace):
    """Byte for byte what ``csv.writer`` wrote unless a field holds a CR,
    which it left unquoted; every row reads back in any case."""
    space, trace = space_trace
    rows = _rows(trace)
    with tempfile.TemporaryDirectory() as tmp:
        path, other = Path(tmp) / "t.trace", Path(tmp) / "t.csv"
        write_trace(path, trace)
        write_csv(other, TRACE_COLUMNS, rows)
        assert other.read_bytes() == path.read_bytes()
        if not any("\r" in str(field) for row in rows for field in row):
            assert path.read_text(encoding="utf-8") == csv_reference([TRACE_COLUMNS, *rows])
        assert _rows(read_trace(path, space)) == rows

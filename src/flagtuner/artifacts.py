"""Campaign artifact files: traces, final configurations, checkpoints, reports.

All writers are deterministic: identical in-memory inputs produce
byte-identical files. Timestamps never appear in artifacts (they belong in
the run log), so replaying a campaign against a warm cache rewrites the
same bytes.

Every file a command writes, but the cache, is written here. An artifact
goes through ``write_text``, which writes it whole to a temp file in the
same directory and renames that over the old file, so a killed process
leaves the old file or the new one, never a torn one; the run log grows by
``append_line``. As with the cache, nothing is fsynced: the promise does
not cover a power loss. A write that fails fails the command: any
``OSError`` becomes a ``CampaignError`` naming the file (exit 2).

Trace files are CSV with one line per (tested configuration, benchmark)
measurement: sequence, config bitstring, base level, benchmark, time,
status, annotation. A field that holds a comma, a quote, CR or LF is
double-quoted, with each quote doubled.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from flagtuner.analysis import CompareTable
from flagtuner.evaluator import Measurement
from flagtuner.flagspace import Configuration, FlagSpace, _check_member, render_args
from flagtuner.search import CampaignError, CampaignTrace, CEState

TRACE_COLUMNS = ["sequence", "bitstring", "base_level", "benchmark", "time", "status", "annotation"]


@contextmanager
def _writing(path: str | Path):
    """Where ``path`` is written: an ``OSError`` there fails the command."""
    try:
        yield
    except OSError as exc:
        # a failed write, unlike a failed open, names no file; its own text
        # stays, with or without an errno
        named = exc if exc.filename is not None else f"{exc}: {str(path)!r}"
        raise CampaignError(f"cannot write artifacts: {named}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file that never outlives
    the call, unless ``path`` holds those bytes already: a replay rewrites
    every artifact unchanged, and a rename over an existing file costs far
    more than reading it."""
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp")
    with _writing(path):
        try:
            if not (path.exists() and path.read_bytes() == data):
                tmp.write_bytes(data)
                os.replace(tmp, path)
        finally:  # inside _writing: the temp name may be a directory
            tmp.unlink(missing_ok=True)


def append_line(path: str | Path, line: str) -> None:
    """Append ``line`` to ``path``, as the run log grows."""
    with _writing(path), open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def write_json(path: str | Path, data) -> None:
    write_text(path, json.dumps(data, indent=2) + "\n")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: double-quoted, with ``"`` doubled, when it
    holds a comma, a quote, CR or LF, and as it is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    write_text(path, "".join(",".join(_csv_field(str(v)) for v in row) + "\n"
                             for row in (header, *rows)))


def write_trace(path: str | Path, trace: CampaignTrace) -> None:
    """``write_csv`` of the trace's rows, with the fields a record's rows
    share formatted once per record."""
    lines = [",".join(TRACE_COLUMNS) + "\n"]
    for rec in trace.records:
        config = rec.config
        head = f"{rec.seq},{config.bitstring},{_csv_field(config.base_level)},"
        tail = _csv_field(rec.annotation)
        for bench, m in rec.measurements.items():
            time = "" if m.time is None else repr(m.time)
            lines.append(f"{head}{_csv_field(bench)},{time},{m.status},{tail}\n")
    write_text(path, "".join(lines))


def read_trace(path: str | Path, space: FlagSpace) -> CampaignTrace:
    """Rebuild a trace from its file, checking each configuration against
    ``space`` and that every row of a record repeats its configuration and
    annotation. Digest and cached markers are not part of the format, so
    reloaded measurements carry neither."""
    trace = CampaignTrace()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != TRACE_COLUMNS:
            raise ValueError(f"{path}: not a trace file")
        last = None  # the sequence text of the row before: equal text is an equal number
        try:
            for seq, bits, level, bench, time, status, annotation in reader:
                if seq != last and (not trace.records or int(seq) != trace.records[-1].seq):
                    config = Configuration.from_bitstring(level, bits)
                    _check_member(space, config)
                    if trace.append(config, {}, annotation).seq != int(seq):
                        raise ValueError("sequence numbers not contiguous")
                    shared = (bits, level, annotation)
                elif (bits, level, annotation) != shared:
                    raise ValueError(f"row disagrees with the first row of record {seq}")
                last = seq
                trace.records[-1].measurements[bench] = Measurement(
                    status=status, time=float(time) if time else None
                )
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return trace


def write_final_config(path: str | Path, space: FlagSpace, config: Configuration) -> None:
    data = {
        "base_level": config.base_level,
        "bitstring": config.bitstring,
        "flags": {f.name: on for f, on in zip(space.flags, config.assignment)},
        "args": render_args(space, config),
    }
    write_json(path, data)


def read_final_config(path: str | Path) -> Configuration:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Configuration.from_bitstring(data["base_level"], data["bitstring"])


def write_series(path: str | Path, points: Iterable[tuple[int, float]]) -> None:
    write_csv(path, ["configs_tested", "value"], ([n, repr(v)] for n, v in points))


def write_compare(path: str | Path, table: CompareTable) -> None:
    rows = [
        [r.benchmark, repr(r.best_time), repr(r.ref_time), repr(r.ratio), r.method,
         r.config.base_level, r.config.bitstring, r.seq]
        for r in table.rows
    ]
    rows.append(["suite_mean", "", "", repr(table.mean_ratio), "", "", "", ""])
    rows.append(["suite_mean_floored", "", "", repr(table.mean_ratio_floored), "", "", "", ""])
    header = ["benchmark", "best_time", "ref_time", "ratio", "method", "base_level", "bitstring",
              "seq"]
    write_csv(path, header, rows)


def file_digest(path: str | Path) -> str:
    return hashlib.md5(Path(path).read_bytes()).hexdigest()


def write_checkpoint(
    path: str | Path,
    *,
    command: str,
    status: str,
    seed: int,
    inputs: dict[str, str],
    params: dict,
    state: CEState | None = None,
    progress: dict | None = None,
) -> None:
    data = {
        "command": command,
        "status": status,
        "seed": seed,
        "inputs": inputs,
        "params": params,
        "state": None,
        "progress": progress or {},
    }
    if state is not None and state.B is not None:
        data["state"] = {
            "S": state.S,
            "B": {"base_level": state.B.base_level, "bitstring": state.B.bitstring},
            "X": state.X,
        }
    write_json(path, data)


def read_checkpoint(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))

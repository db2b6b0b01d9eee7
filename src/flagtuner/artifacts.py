"""Campaign artifact files: traces, final configurations, checkpoints, reports.

All writers are deterministic: identical in-memory inputs produce
byte-identical files. Timestamps never appear in artifacts (they belong in
the run log), so replaying a campaign against a warm cache rewrites the
same bytes.

Every artifact goes through ``write_text``, which writes it whole to a temp
file in the same directory and renames that over the old file, so a killed
process leaves the old file or the new one, never a torn one. As with the
cache, nothing is fsynced: the promise does not cover a power loss.

Trace files are CSV with one line per (tested configuration, benchmark)
measurement: sequence, config bitstring, base level, benchmark, time,
status, annotation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable

from flagtuner.analysis import CompareTable, RelativeSeries
from flagtuner.evaluator import Measurement
from flagtuner.flagspace import Configuration, FlagSpace, render_args
from flagtuner.search import CampaignTrace, CEState

TRACE_COLUMNS = ["sequence", "bitstring", "base_level", "benchmark", "time", "status", "annotation"]


def write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a temp file that never outlives
    the call, unless ``path`` holds those bytes already: a replay rewrites
    every artifact unchanged, and a rename over an existing file costs far
    more than reading it."""
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if not (path.exists() and path.read_bytes() == data):
            tmp.write_bytes(data)
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, data) -> None:
    write_text(path, json.dumps(data, indent=2) + "\n")


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def write_trace(path: str | Path, trace: CampaignTrace) -> None:
    write_csv(path, TRACE_COLUMNS, (
        [rec.seq, rec.config.bitstring, rec.config.base_level, bench,
         "" if m.time is None else repr(m.time), m.status, rec.annotation]
        for rec in trace.records
        for bench, m in rec.measurements.items()
    ))


def read_trace(path: str | Path, space: FlagSpace) -> CampaignTrace:
    """Rebuild a trace from its file. Digest and cached markers are not
    part of the format, so reloaded measurements carry neither."""
    trace = CampaignTrace()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: not a trace file")
        current_seq = None
        config = None
        measurements: dict[str, Measurement] = {}
        annotation = ""

        def flush():
            if current_seq is not None:
                rec = trace.append(config, measurements, annotation)
                if rec.seq != current_seq:
                    raise ValueError(
                        f"{path}: sequence numbers not contiguous at {current_seq}"
                    )

        for row in reader:
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} is not a trace row")
            seq = int(row[0])
            if seq != current_seq:
                flush()
                current_seq = seq
                config = Configuration.from_bitstring(row[2], row[1])
                measurements = {}
                annotation = row[6]
            time = float(row[4]) if row[4] else None
            measurements[row[3]] = Measurement(status=row[5], time=time)
        flush()
    for rec in trace.records:
        if len(rec.config.assignment) != len(space.flags):
            raise ValueError(f"{path}: trace does not match the flag space")
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


def write_series(path: str | Path, series: RelativeSeries) -> None:
    write_csv(path, ["configs_tested", "value"], ([n, repr(v)] for n, v in series.points))


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
    input_digests: dict[str, str],
    params: dict,
    state: CEState | None = None,
    progress: dict | None = None,
) -> None:
    data = {
        "command": command,
        "status": status,
        "seed": seed,
        "inputs": input_digests,
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

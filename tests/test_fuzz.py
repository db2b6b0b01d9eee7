"""Exit codes mean what they say for every input field.

Each mutation changes one field of one demo input file, at any depth (a key
of an object or an element of a list): it deletes the field, or sets it to
one of ``VALUES``, kinds a field may not hold and values at the edges of
those it may. The trade-off demo's config, space and model are fed to every
command that reads a config, and its space also to ``report`` and
``predict-1nn``, with a trace that ``ric`` wrote from the demo as it is.
The stub demo's suite and space go to ``ric`` with ``n_configs`` 1, its
stub toolchain run under ``python -S``. A sample drawn with a fixed seed
from all mutations runs in process, and each must raise nothing out of
``main`` and exit 0, 1, 2 or 3; an exit 1 prints one line and leaves the
case's directory as it was, with neither the out dir nor the cache created.
Beside the sample, the same holds for every case of ``explicit_cases``:
each string field set to a lone surrogate, and model times that overflow.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import random
import shlex
import sys
import traceback
from pathlib import Path

from flagtuner.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"

VALUES = (None, True, False, 0, -1, 1, 1.5, 1e308, -1e308, float("nan"), "", "x", "a/b",
          "\0", [], [1], ["x", "x"], {}, {"a": 1})
DELETE = "delete"

SYNTHETIC_COMMANDS = ("ric", "ce", "suite-ce", "oracle", "xval")
SPACE_COMMANDS = ("report", "predict-1nn")  # they read the space and traces, no config
SEED = 20261020
SAMPLES = {"tradeoff": 500, "stub": 40}


def field_paths(data, prefix=()):
    """The path of every field of ``data``: each key of an object and each
    element of a list, nested ones too."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from field_paths(value, (*prefix, key))


def mutated(data, edits):
    """A copy of ``data`` with the field at each path of ``edits`` deleted or
    set to its value."""
    data = copy.deepcopy(data)
    for path, value in edits:
        *parents, last = path
        node = functools.reduce(operator.getitem, parents, data)
        if value == DELETE:
            del node[last]
        else:
            node[last] = value
    return data


def stub_suite() -> dict:
    """The stub demo's suite, its toolchain started as ``python -S`` from the demo."""
    suite = json.loads((DEMO / "stub_suite.json").read_text())
    python = f"{shlex.quote(sys.executable)} -S {shlex.quote(str(DEMO))}/"
    for bench in suite["benchmarks"]:
        for key in ("compile_command", "run_command"):
            bench[key] = bench[key].replace("python3 ", python)
    return suite


def demo_inputs() -> dict[str, dict[str, object]]:
    """Each demo's input files, by name, as parsed."""
    def read(name):
        return json.loads((DEMO / name).read_text())

    stub_config = {**read("stub_campaign.json"), "n_configs": 1}
    return {
        "tradeoff": {name: read(name) for name in
                     ("tradeoff_campaign.json", "tradeoff_space.json", "tradeoff_model.json")},
        "stub": {"stub_campaign.json": stub_config, "stub_suite.json": stub_suite(),
                 "stub_space.json": read("stub_space.json")},
    }


def with_commands(mutations: dict[str, list[tuple]]) -> dict[str, list[tuple]]:
    """Each demo's mutations, as (file, edits), with each command that reads
    the file: (file, edits, command)."""
    return {"tradeoff": [(*m, command) for m in mutations["tradeoff"]
                         for command in SYNTHETIC_COMMANDS
                         + (SPACE_COMMANDS if m[0] == "tradeoff_space.json" else ())],
            "stub": [(*m, "ric") for m in mutations["stub"]]}


def cases(inputs) -> dict[str, list[tuple]]:
    """Every mutation of one field of each demo, with the config of the stub
    demo left as it is."""
    return with_commands({demo: [(name, ((path, value),)) for name, data in files.items()
                                 if name != "stub_campaign.json"
                                 for path in field_paths(data) for value in (DELETE, *VALUES)]
                          for demo, files in inputs.items()})


def explicit_cases(inputs) -> dict[str, list[tuple]]:
    """A lone surrogate, which UTF-8 cannot encode, in each string field,
    and, for each benchmark of the trade-off model, a base time of 1e308 at
    a multiplier of 10, alone and with every flag delta at -1e308."""
    mutations = {demo: [(name, ((path, "\ud800"),)) for name, data in files.items()
                        if name != "stub_campaign.json" for path in field_paths(data)
                        if isinstance(functools.reduce(operator.getitem, path, data), str)]
                 for demo, files in inputs.items()}
    files = inputs["tradeoff"]
    levels = files["tradeoff_space.json"]["base_levels"]
    for bench, model in files["tradeoff_model.json"]["benchmarks"].items():
        at = ("benchmarks", bench)
        edits = (((*at, "base_time"), 1e308),
                 ((*at, "level_multiplier"), dict.fromkeys(levels, 10)))
        deltas = tuple(((*at, "flag_delta", flag), -1e308) for flag in model["flag_delta"])
        mutations["tradeoff"] += [("tradeoff_model.json", edits),
                                  ("tradeoff_model.json", edits + deltas)]
    return with_commands(mutations)


def listing(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def training_set(root: Path, files: dict[str, object]) -> Path:
    """In ``root``: the trace ``ric`` writes from ``files`` as they are, and
    a training manifest of it for every benchmark but ``fir``."""
    root.mkdir()
    for file_name, data in files.items():
        (root / file_name).write_text(json.dumps(data))
    assert main(["ric", "--config", str(root / "tradeoff_campaign.json"), "--out", str(root)]) == 0
    (root / "manifest.json").write_text(json.dumps(
        [{"program": p, "trace": "ric.trace"} for p in ("crc32", "matmult", "dijkstra", "qsort")]))
    return root


def arguments(command: str, root: Path, files: dict[str, object],
              training: Path | None) -> list[str]:
    """``command``'s arguments on the inputs in ``root``, ``--out`` aside."""
    space = str(root / "tradeoff_space.json")
    if command == "report":
        return ["report", str(training / "ric.trace"), "--space", space]
    if command == "predict-1nn":
        return ["predict-1nn", str(DEMO / "features.csv"), str(training / "manifest.json"), "fir",
                "--space", space]
    config = next(f for f in files if f.endswith("_campaign.json"))
    return [command, "--config", str(root / config)]


def check(root: Path, files: dict[str, object], case: tuple,
          training: Path | None) -> str | None:
    """Run ``case`` in ``root`` and say what it broke, if anything."""
    name, edits, command = case
    root.mkdir()
    for file_name, data in files.items():
        text = json.dumps(mutated(data, edits) if file_name == name else data)
        (root / file_name).write_text(text)
    out = root / "o"
    before = listing(root)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*arguments(command, root, files, training), "--out", str(out)])
    except BaseException:
        return traceback.format_exc(limit=-3)
    lines = stderr.getvalue().splitlines()
    if code not in (0, 1, 2, 3):
        return f"exit {code}: {lines}"
    if code == 1 and (len(lines) != 1 or stdout.getvalue()):
        return f"exit 1 printed {lines} and {stdout.getvalue()!r}"
    if code == 1 and listing(root) != before:
        return f"exit 1 ({lines[0]}) left {sorted(set(listing(root)) - set(before))}"
    return None


def run_sample(tmp_path: Path, demo: str) -> None:
    inputs = demo_inputs()
    sample = random.Random(SEED).sample(cases(inputs)[demo], SAMPLES[demo])
    sample += explicit_cases(inputs)[demo]
    training = None if demo != "tradeoff" else training_set(tmp_path / "training", inputs[demo])
    failures = []
    for i, case in enumerate(sample):
        problem = check(tmp_path / f"case{i}", inputs[demo], case, training)
        if problem is not None:
            failures.append(f"{case!r}: {problem}")
    assert failures == []


def test_every_tradeoff_input_field_exits_as_documented(tmp_path):
    run_sample(tmp_path, "tradeoff")


def test_every_stub_input_field_exits_as_documented(tmp_path):
    run_sample(tmp_path, "stub")

"""External mode equals synthetic mode.

A toolchain backed by a demo's model (``model_stub.py``) makes the external
path an exact copy of the synthetic one: its compiler writes the rendered
arguments, and its run reports, under ``timing: "reported"``, the time
``SyntheticModel.time_for`` gives them, from a table this module writes.
The space adds one flag, ``nop``, that the model has no term for and the
compiler drops, so configurations that differ only there give one binary
and external mode answers them from its digest. Campaigns of the trade-off
demo, and of the pair demo, whose one benchmark has a pair term and three
base levels, run in both modes, uninterrupted and resumed after a spent
``--max-evals``, and must then write the same artifacts byte for byte.
"""

import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from flagtuner.cli import main
from flagtuner.evaluator import load_synthetic_model
from flagtuner.flagspace import load_flag_space, render_args
from helpers import config_of

DEMO = Path(__file__).resolve().parent.parent / "demo"
STUB = Path(__file__).resolve().parent / "model_stub.py"
COMMANDS = ("ric", "ce", "suite-ce", "xval")
PAIR_COMMANDS = ("ric", "ce", "suite-ce")  # xval needs two benchmarks; the pair demo has one

# a campaign's own state, and what the two modes put in it differently: the
# cache's keys and the checkpoint's input digests
LEFT_OUT = {"cache.jsonl", "checkpoint.json", "run.log"}


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file of ``out`` but ``LEFT_OUT`` and ``build/``, a summary's
    ``evaluations=E cache_hits=H`` as ``pairs=E+H``: a digest hit is one
    pair the synthetic side measures fresh."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.is_file() and path.name not in LEFT_OUT:
            files[path.name] = path.read_bytes()
    if "summary.txt" in files:
        files["summary.txt"] = re.sub(
            rb"evaluations=(\d+) cache_hits=(\d+)",
            lambda m: b"pairs=%d" % (int(m[1]) + int(m[2])), files["summary.txt"])
    return files


def cache_hits(out: Path) -> int:
    """The cache hits the last line of the summary counts."""
    last = (out / "summary.txt").read_text().splitlines()[-1]
    return int(re.search(r"cache_hits=(\d+)", last)[1])


def build_inputs(root: Path, demo: str, commands: tuple[str, ...]) -> Path:
    """In ``root``: the demo with ``nop`` in its space, a synthetic and an
    external campaign config of it with the demo's seed, threshold and
    aggregate, the stub's time table, and the synthetic artifacts of each
    of ``commands``."""
    space_data = json.loads((DEMO / f"{demo}_space.json").read_text())
    space_data["flags"].insert(2, {"name": "nop", "on": "-fnop", "off": "-fno-nop", "stock": False})
    (root / "space.json").write_text(json.dumps(space_data))
    space = load_flag_space(root / "space.json")
    model = load_synthetic_model(DEMO / f"{demo}_model.json")
    n = len(space)
    with open(root / "table.txt", "w") as fh:
        for bench in model.benchmarks:
            for level in space.base_levels:
                for mask in range(2 ** n):
                    config = config_of(level, mask, n)
                    binary = " ".join(a for a in render_args(space, config) if "nop" not in a)
                    fh.write(f"{bench}\t{binary}\t{model.time_for(space, config, bench)!r}\n")
    stub = f"{shlex.quote(sys.executable)} -S {shlex.quote(str(STUB))}"
    (root / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": bench, "compile_command": f"{stub} compile {{flags}} --out {{out}}",
         "run_command": f"{stub} run {{bin}} {bench} table.txt", "timing": "reported"}
        for bench in model.benchmarks
    ]}))
    campaign = json.loads((DEMO / f"{demo}_campaign.json").read_text())
    common = {"flag_space": str(root / "space.json"), "n_configs": 8, "k": 3,
              **{key: campaign[key] for key in ("seed", "threshold_t", "aggregate")}}
    (root / "synthetic.json").write_text(json.dumps(
        {**common, "mode": "synthetic", "model": str(DEMO / f"{demo}_model.json")}))
    (root / "external.json").write_text(json.dumps(
        {**common, "mode": "external", "suite": "suite.json"}))
    for command in commands:
        assert main([command, "--config", str(root / "synthetic.json"),
                     "--out", str(root / "synthetic" / command)]) == 0
    return root


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    return build_inputs(tmp_path_factory.mktemp("tradeoff"), "tradeoff", COMMANDS)


@pytest.fixture(scope="module")
def pair_inputs(tmp_path_factory) -> Path:
    return build_inputs(tmp_path_factory.mktemp("pair"), "pair", PAIR_COMMANDS)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs as the evaluator sees them, so the windows are alike on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def check_external_campaign(inputs: Path, out: Path, command: str) -> None:
    assert main([command, "--config", str(inputs / "external.json"), "--out", str(out)]) == 0
    assert artifacts(out) == artifacts(inputs / "synthetic" / command)
    assert cache_hits(out) > cache_hits(inputs / "synthetic" / command)  # digest hits
    assert list((out / "build").iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_external_campaign_writes_the_synthetic_artifacts(inputs, tmp_path, two_cpus, command):
    check_external_campaign(inputs, tmp_path / command, command)


@pytest.mark.parametrize("command", PAIR_COMMANDS)
def test_external_pair_campaign_writes_the_synthetic_artifacts(pair_inputs, tmp_path, two_cpus,
                                                               command):
    """The pair demo's pair term and its levels reach the external path."""
    check_external_campaign(pair_inputs, tmp_path / command, command)


@pytest.mark.parametrize("max_evals", [1, 4, 5])
def test_resumed_external_campaign_writes_the_synthetic_artifacts(
    inputs, tmp_path, two_cpus, max_evals
):
    """A spent budget at a window's end (four compiles on two CPUs), inside
    one or just past it, then ``--resume``, gives the uninterrupted
    artifacts."""
    out = tmp_path / "o"
    argv = ["suite-ce", "--config", str(inputs / "external.json"), "--out", str(out)]
    assert main([*argv, "--max-evals", str(max_evals)]) == 3
    assert list((out / "build").iterdir()) == []
    assert main([*argv, "--resume", str(out / "checkpoint.json")]) == 0
    assert artifacts(out) == artifacts(inputs / "synthetic" / "suite-ce")

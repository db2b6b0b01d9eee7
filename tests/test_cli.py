import csv
import hashlib
import importlib.util
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, geometric_mean

import pytest

from flagtuner.artifacts import TRACE_COLUMNS, read_checkpoint, read_final_config, read_trace
from flagtuner.cli import _load_config, _load_inputs, build_parser, main
from flagtuner.evaluator import EvalCache
from flagtuner.flagspace import load_flag_space
from flagtuner.search import AGGREGATES
from helpers import artifact_digests


def write_config(path: Path, **overrides) -> Path:
    """Synthetic campaign config pointing at files in the demo directory."""
    demo = Path(__file__).resolve().parent.parent / "demo"
    data = {
        "flag_space": str(demo / "pair_space.json"),
        "mode": "synthetic",
        "model": str(demo / "pair_model.json"),
        "cache": "cache.jsonl",
        "seed": 42,
        "n_configs": 200,
        "threshold_t": 0.0,
        "aggregate": "mean",
    }
    data.update(overrides)
    path.write_text(json.dumps(data, indent=2))
    return path


@pytest.fixture
def demo_config(demo_dir):
    def pick(name):
        return str(demo_dir / f"{name}_campaign.json")

    return pick


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------

def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["ric", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 1


def test_missing_suite_file_no_artifacts(tmp_path):
    config = write_config(
        tmp_path / "c.json", mode="external", suite=str(tmp_path / "missing.json"), model=None
    )
    out = tmp_path / "o"
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 1
    assert not out.exists()


def test_malformed_config_is_usage_error(tmp_path):
    config = tmp_path / "c.json"
    config.write_text("{ nope")
    assert main(["ric", "--config", str(config), "--out", str(tmp_path / 'o')]) == 1


def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("[1]")
    assert main(["ric", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def _child_env() -> dict[str, str]:
    """The environment for a child ``python -m flagtuner`` on this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_with_file_limit(argv: list[str], limit: int) -> subprocess.CompletedProcess:
    """Run the CLI in a child that may write no file past ``limit`` bytes, as
    on a full disk: with SIGXFSZ ignored, such a write fails with EFBIG."""

    def limit_files() -> None:
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    return subprocess.run([sys.executable, "-m", "flagtuner", *argv], env=_child_env(),
                          capture_output=True, text=True, preexec_fn=limit_files, timeout=60)


def test_full_disk_interrupts_with_checkpoint_then_resumes(tmp_path, demo_dir):
    config = write_config(tmp_path / "c.json", flag_space=str(demo_dir / "tradeoff_space.json"),
                          model=str(demo_dir / "tradeoff_model.json"))
    out = tmp_path / "o"
    argv = ["ric", "--config", str(config), "--out", str(out)]
    proc = _run_with_file_limit(argv, 4000)
    assert proc.returncode == 3, proc.stderr
    assert "File too large" in proc.stderr
    assert read_checkpoint(out / "checkpoint.json")["status"] == "interrupted"
    assert (out / "ric.trace").exists()

    full = tmp_path / "full"
    assert main(["ric", "--config", str(config), "--out", str(full)]) == 0
    assert main([*argv, "--resume", str(out / "checkpoint.json")]) == 0
    assert _resumable_artifacts(out) == _resumable_artifacts(full)


def test_full_disk_without_room_for_a_checkpoint_fails_the_campaign(tmp_path, demo_dir):
    config = write_config(tmp_path / "c.json", flag_space=str(demo_dir / "tradeoff_space.json"),
                          model=str(demo_dir / "tradeoff_model.json"))
    out = tmp_path / "o"
    proc = _run_with_file_limit(["ric", "--config", str(config), "--out", str(out)], 200)
    assert proc.returncode == 2, proc.stderr
    assert not (out / "checkpoint.json").exists()


# the campaign, and the demo it runs, that writes each artifact
_WRITERS = {
    "checkpoint.json": ("ric", "pair"),
    "ric.trace": ("ric", "pair"),
    ".ric.trace.tmp": ("ric", "pair"),  # write_text's temp name
    "ric.best.json": ("ric", "pair"),
    "run.log": ("ric", "pair"),
    "ce_cover.config.json": ("ce", "pair"),
    "suite_ce.config.json": ("suite-ce", "pair"),
    "folds.json": ("xval", "tradeoff"),
    "xval_report.csv": ("xval", "tradeoff"),
}


@pytest.mark.parametrize("artifact", list(_WRITERS))
def test_unwritable_trace_or_checkpoint_fails_the_campaign(tmp_path, demo_config, capsys,
                                                           artifact):
    """Any file a campaign writes, run.log too, that cannot be written fails
    it with one line, and once it can be, a rerun writes what a clean run does."""
    command, demo = _WRITERS[artifact]
    argv = [command, "--config", demo_config(demo)]
    out = tmp_path / "o"
    (out / artifact).mkdir(parents=True)  # a directory where the file goes
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "flagtuner: campaign failed: cannot write artifacts: "
        f"[Errno 21] Is a directory: '{out / artifact}'"]
    assert set(out.glob(".*.tmp")) <= {out / artifact}

    (out / artifact).rmdir()
    assert main([*argv, "--out", str(out)]) == 0
    assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
    assert _resumable_artifacts(out) == _resumable_artifacts(tmp_path / "clean")


def _processes_in(directory: Path) -> list[int]:
    """The processes, of those this user may inspect, whose working
    directory is ``directory``."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and Path(os.readlink(entry / "cwd")) == directory:
                pids.append(int(entry.name))
        except OSError:  # gone, a zombie, or another user's
            pass
    return pids


def test_hanging_compile_is_killed_and_cached_as_a_compile_error(tmp_path):
    """A compile past its benchmark's timeout is killed with its process
    group, so no ``sleep`` outlives it, and cached as a compile error, so a
    rerun compiles nothing."""
    space = json.loads((DEMO / "stub_space.json").read_text())
    (tmp_path / "space.json").write_text(json.dumps({**space, "flags": space["flags"][:1]}))
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": "b", "compile_command": "sh -c 'sleep 30; : {flags}' x", "run_command": "{bin}",
         "timeout": 0.3}]}))
    config = write_config(tmp_path / "c.json", mode="external", suite="suite.json", model=None,
                          flag_space=str(tmp_path / "space.json"), n_configs=2)
    out = tmp_path / "o"
    summaries = []
    for _ in range(2):
        assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
        summaries.append((out / "summary.txt").read_text(encoding="utf-8"))
    assert not summaries[0].startswith("ric: evaluations=0 ")
    assert summaries[1].startswith("ric: evaluations=0 ")
    assert _cached_outcomes(out / "cache.jsonl") == {("compile_error", None, "compile timed out")}
    deadline = time.monotonic() + 5  # a killed process takes a moment to go
    while _processes_in(tmp_path.resolve()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _processes_in(tmp_path.resolve()) == []


def test_missing_compiler_is_rejected_and_creates_nothing(tmp_path, capsys):
    """A program that does not resolve is rejected as the suite loads: no
    resume could get past it."""
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": "b", "compile_command": "no-such-compiler-anywhere {flags} -o {out}",
         "run_command": "{bin}"},
    ]}))
    config = write_config(tmp_path / "c.json", mode="external", suite="suite.json", model=None,
                          flag_space=str(DEMO / "stub_space.json"), n_configs=3)
    out = tmp_path / "o"
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"flagtuner: {tmp_path / 'suite.json'}: benchmarks[0].compile_command: "
        "'no-such-compiler-anywhere' is no executable file"]
    assert not out.exists()


def _one_benchmark_config(tmp_path: Path, scripts: dict[str, str], compile_command: str,
                          run_command: str, **overrides) -> Path:
    """An external campaign config for one benchmark ``b`` built and run by
    the given commands, with ``scripts`` written beside the suite."""
    for name, text in scripts.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": "b", "compile_command": compile_command, "run_command": run_command},
    ]}))
    return write_config(tmp_path / "c.json", mode="external", suite="suite.json", model=None,
                        **{"flag_space": str(DEMO / "stub_space.json"), "n_configs": 2} | overrides)


def _cached_outcomes(path: Path) -> set[tuple[str, float | None, str]]:
    with EvalCache(path) as cache:
        return {(m.status, m.time, m.detail) for m in cache.entries.values()}


def test_output_that_is_not_utf8_reads_as_replacement_characters(tmp_path):
    bad_cc = "import sys\nsys.stderr.buffer.write(b'bad \\xff\\xfe byte')\nsys.exit(1)\n"
    bad_run = "import sys\nsys.stdout.buffer.write(b'\\xff\\n1.0\\n')\n"
    shutil.copy(DEMO / "stub" / "stubcc.py", tmp_path / "cc.py")
    for name, compile_command in (("failing", "python3 -S bad_cc.py {flags} --out {out}"),
                                  ("running", "python3 -S cc.py {flags} --out {out}")):
        config = _one_benchmark_config(tmp_path, {"bad_cc.py": bad_cc, "bad_run.py": bad_run},
                                       compile_command, "python3 -S bad_run.py {bin}")
        assert main(["ric", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    assert _cached_outcomes(tmp_path / "failing" / "cache.jsonl") == {
        ("compile_error", None, "bad \ufffd\ufffd byte")}
    assert _cached_outcomes(tmp_path / "running" / "cache.jsonl") == {("ok", 1.0, "")}


@pytest.mark.parametrize("reported", ["nan", "inf", "1e400"])
def test_reported_time_that_is_not_finite_is_a_run_error(tmp_path, reported):
    shutil.copy(DEMO / "stub" / "stubcc.py", tmp_path / "cc.py")
    config = _one_benchmark_config(tmp_path, {}, "python3 -S cc.py {flags} --out {out}",
                                   f"python3 -S -c 'print(\"{reported}\")'")
    out = tmp_path / "o"
    summaries = []
    for _ in range(2):
        assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
        summaries.append((out / "summary.txt").read_text(encoding="utf-8"))
    assert summaries[0].startswith("ric: evaluations=2 ")
    assert summaries[1].startswith("ric: evaluations=0 ")
    assert _cached_outcomes(out / "cache.jsonl") == {
        ("run_error", None, "run command did not report a positive time")}


def _wide_space(path: Path) -> Path:
    """A space of 8,000 flags: some 160 kB of arguments, past the 128 KiB one
    argument may hold."""
    path.write_text(json.dumps({
        "base_levels": ["O3"], "default_baseline": "O3",
        "flags": [{"name": f"flag-number-{i}", "on": f"-fflag-number-{i}",
                   "off": f"-fno-flag-number-{i}"} for i in range(8000)],
    }))
    return path


def test_argument_list_too_long_fails_the_campaign(tmp_path, capsys):
    """A command line past the kernel's total limit on arguments, though each
    argument fits, cannot start; no resume could get past it, so the
    campaign fails."""
    space = _wide_space(tmp_path / "space.json")
    shutil.copy(DEMO / "stub" / "stubcc.py", tmp_path / "cc.py")
    copies = os.sysconf("SC_ARG_MAX") // (8000 * 16) + 1  # a flag takes 16 bytes or more
    config = _one_benchmark_config(tmp_path, {}, "python3 -S cc.py " + "{flags} " * copies
                                   + "--out {out}", "true", flag_space=str(space), n_configs=1)
    out = tmp_path / "o"
    for _ in range(2):
        assert main(["ric", "--config", str(config), "--out", str(out)]) == 2
        assert "Argument list too long" in capsys.readouterr().err
        assert list((out / "build").iterdir()) == []
        assert not (out / "checkpoint.json").exists()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_benchmark_in_config(tmp_path):
    config = write_config(tmp_path / "c.json", benchmarks=["nope"])
    assert main(["ric", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_locked_cache_is_campaign_failure(tmp_path, demo_config, capsys):
    out = tmp_path / "o"
    out.mkdir()
    with EvalCache(out / "cache.jsonl"):
        code = main(["ric", "--config", demo_config("pair"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"flagtuner: campaign failed: cache file {out / 'cache.jsonl'} is locked"]


def _corrupt_cache(out: Path, monkeypatch) -> dict:
    """A cache in ``out`` whose middle line is not a record."""
    out.mkdir()
    record = json.dumps({"benchmark": "cover", "key": "k", "digest": None, "status": "ok",
                         "time": 1.0, "detail": ""})
    (out / "cache.jsonl").write_text(f"{record}\nnot a record\n{record}\n")
    return {}


def _cache_under_a_file(out: Path, monkeypatch) -> dict:
    (out.parent / "file").write_text("")
    return {"cache": str(out.parent / "file" / "cache.jsonl")}


def _search_raising(out: Path, monkeypatch) -> dict:
    def run_ric(*args, **kwargs):
        raise ValueError("no search today")

    monkeypatch.setattr("flagtuner.cli.run_ric", run_ric)
    return {}


@pytest.mark.parametrize("arrange", [_corrupt_cache, _cache_under_a_file, _search_raising],
                         ids=["corrupt-cache-line", "cache-parent-a-file", "search-raises"])
def test_failure_once_the_out_dir_exists_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                               arrange):
    """Whatever fails once the inputs are checked and the out dir created,
    a cache file included, fails the campaign; no exit 1 leaves files."""
    out = tmp_path / "o"
    config = write_config(tmp_path / "c.json", **arrange(out, monkeypatch))
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("flagtuner: campaign failed: "), err
    assert out.is_dir()


# Models whose base time times a multiplier overflows: A at every level, B at O1 only
_OVERFLOWING = {
    "A": {"level_multiplier": {"O1": 10.0, "O2": 10.0, "O3": 10.0}},
    "B": {"level_multiplier": {"O1": 10.0, "O2": 1.0, "O3": 1.0}},
}


@pytest.mark.parametrize("command", ["ric", "suite-ce", "oracle"])
@pytest.mark.parametrize("model", list(_OVERFLOWING))
def test_model_that_can_overflow_creates_nothing(tmp_path, capsys, command, model):
    path = _pair_model(tmp_path, "model.json", base_time=1e308,
                       flag_delta={"ivopts": -1e308, "tree-ch": -1e308}, **_OVERFLOWING[model])
    config = write_config(tmp_path / "c.json", model=path)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"flagtuner: {path}: cover: model times can overflow at O1 (upper bound inf)"]
    assert not out.exists()


def _surrogate_inputs(tmp_path: Path, case: str) -> dict:
    """Config fields naming inputs in ``tmp_path`` with a lone surrogate
    where ``case`` says."""
    model = json.loads((DEMO / "pair_model.json").read_text())
    space = json.loads((DEMO / "pair_space.json").read_text())
    cover, flags = model["benchmarks"]["cover"], space["flags"]
    flag = {"name": "x", "on": "-fx", "off": "-fno-x"}
    bench = {"name": "b", "compile_command": f"{sys.executable} {{flags}} -o {{out}}",
             "run_command": "{bin}"}
    files = {
        "model-benchmark": ("model", {**model, "benchmarks": {"\ud800x": cover}}),
        "flag-name": ("flag_space", {**space, "flags": [*flags, {**flag, "name": "\ud800"}]}),
        "flag-form": ("flag_space", {**space, "flags": [*flags, {**flag, "on": "-f\ud800"}]}),
        "base-level": ("flag_space", {**space, "base_levels": ["O1", "O2", "O3", "O\udfff"]}),
        "suite-benchmark": ("suite", {"benchmarks": [{**bench, "name": "\ud800x"}]}),
        "compile-command": ("suite", {"benchmarks": [
            {**bench, "compile_command": bench["compile_command"] + " -D\ud800"}]}),
    }
    field, data = files[case]
    (tmp_path / "input.json").write_text(json.dumps(data))
    external = {"mode": "external", "model": None, "flag_space": str(DEMO / "stub_space.json")}
    return {**(external if field == "suite" else {}), field: str(tmp_path / "input.json")}


@pytest.mark.parametrize("command, case", [
    ("ric", "model-benchmark"), ("ce", "model-benchmark"), ("oracle", "model-benchmark"),
    ("ce", "flag-name"), ("ric", "flag-form"), ("ric", "base-level"),
    ("ric", "suite-benchmark"), ("ce", "suite-benchmark"), ("ric", "compile-command"),
])
def test_text_that_utf8_cannot_encode_creates_nothing(tmp_path, capsys, command, case):
    config = write_config(tmp_path / "c.json", **_surrogate_inputs(tmp_path, case))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "surrogate" in err[0], err
    assert not out.exists()


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def test_ric_demo_campaign(tmp_path, demo_config, pair_space):
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
    trace = read_trace(out / "ric.trace", pair_space)
    assert len(trace) == 201
    best = json.loads((out / "ric.best.json").read_text())
    assert best["cover"]["time"] == 90.0
    assert best["cover"]["bitstring"] == "00"
    ck = read_checkpoint(out / "checkpoint.json")
    assert ck["status"] == "complete"
    assert (out / "summary.txt").exists()


def test_ce_demo_campaign(tmp_path, demo_config, pair_space):
    out = tmp_path / "o"
    assert main(["ce", "--config", demo_config("pair"), "--out", str(out)]) == 0
    config = read_final_config(out / "ce_cover.config.json")
    assert config.bitstring == "11"  # greedy elimination misses the pair optimum
    trace = read_trace(out / "ce_cover.trace", pair_space)
    assert len(trace) == 3


def test_ce_empty_flag_space(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps({"base_levels": ["O3"], "default_baseline": "O3", "flags": []})
    )
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"benchmarks": {"b": {"base_time": 5.0}}}))
    config = write_config(
        tmp_path / "c.json", flag_space=str(space), model=str(model)
    )
    out = tmp_path / "o"
    assert main(["ce", "--config", str(config), "--out", str(out)]) == 0
    trace_lines = (out / "ce_b.trace").read_text().splitlines()
    assert len(trace_lines) == 2  # header + single baseline evaluation


def test_suite_ce_twobench_rejected_at_t5(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(["suite-ce", "--config", demo_config("twobench"), "--out", str(out)]) == 0
    config = read_final_config(out / "suite_ce.config.json")
    assert config.bitstring == "1"  # baseline: the toggle violates t=5 on huffbench


def test_suite_ce_twobench_accepted_at_t8(tmp_path, demo_config):
    out = tmp_path / "o"
    code = main(
        ["suite-ce", "--config", demo_config("twobench"), "--out", str(out), "--threshold", "8"]
    )
    assert code == 0
    config = read_final_config(out / "suite_ce.config.json")
    assert config.bitstring == "0"


def test_suite_ce_summary_uses_configured_aggregate(tmp_path, demo_dir, tradeoff_space,
                                                   tradeoff_model):
    config = write_config(
        tmp_path / "c.json",
        flag_space=str(demo_dir / "tradeoff_space.json"),
        model=str(demo_dir / "tradeoff_model.json"),
        threshold_t=5.0,
        aggregate="geomean",
    )
    out = tmp_path / "o"
    assert main(["suite-ce", "--config", str(config), "--out", str(out)]) == 0
    final = read_final_config(out / "suite_ce.config.json")
    stock = tradeoff_space.stock_config()
    ratios = [
        tradeoff_model.time_for(tradeoff_space, final, b)
        / tradeoff_model.time_for(tradeoff_space, stock, b)
        for b in tradeoff_model.benchmark_names
    ]
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert f"final_aggregate={geometric_mean(ratios):.6g}" in summary
    assert f"final_aggregate={fmean(ratios):.6g}" not in summary


def test_suite_ce_tradeoff_t5(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(["suite-ce", "--config", demo_config("tradeoff"), "--out", str(out)]) == 0
    config = read_final_config(out / "suite_ce.config.json")
    assert config.bitstring == "0111"
    summary = (out / "summary.txt").read_text()
    assert "final_aggregate=0.948677" in summary


def test_external_mode_ric(tmp_path, demo_config, demo_dir):
    out = tmp_path / "o"
    code = main(["ric", "--config", demo_config("stub"), "--out", str(out)])
    assert code == 0
    space = load_flag_space(demo_dir / "stub_space.json")
    trace = read_trace(out / "ric.trace", space)
    assert len(trace) == 7
    assert all(m.ok for rec in trace.records for m in rec.measurements.values())


# ---------------------------------------------------------------------------
# determinism and resume
# ---------------------------------------------------------------------------

def test_ric_byte_identical_across_runs(tmp_path, demo_config):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("ric.trace", "ric.best.json", "checkpoint.json", "summary.txt"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_seed_override_changes_trace(tmp_path, demo_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out_a)]) == 0
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out_b), "--seed", "43"]) == 0
    assert (out_a / "ric.trace").read_bytes() != (out_b / "ric.trace").read_bytes()


def test_interrupt_and_resume_equals_uninterrupted(tmp_path, demo_config):
    full = tmp_path / "full"
    assert main(["suite-ce", "--config", demo_config("tradeoff"), "--out", str(full)]) == 0

    out = tmp_path / "o"
    code = main(
        ["suite-ce", "--config", demo_config("tradeoff"), "--out", str(out), "--max-evals", "7"]
    )
    assert code == 3
    ck = read_checkpoint(out / "checkpoint.json")
    assert ck["status"] == "interrupted"
    assert ck["state"]["B"]["bitstring"] is not None

    code = main(
        [
            "suite-ce",
            "--config",
            demo_config("tradeoff"),
            "--out",
            str(out),
            "--resume",
            str(out / "checkpoint.json"),
        ]
    )
    assert code == 0
    for artifact in ("suite_ce.trace", "suite_ce.config.json"):
        assert (out / artifact).read_bytes() == (full / artifact).read_bytes()
    assert read_checkpoint(out / "checkpoint.json")["status"] == "complete"


def test_checkpoint_holds_the_inputs_as_loaded(tmp_path, monkeypatch, capsys):
    """A model edited while the campaign runs does not reach its checkpoint,
    which holds the digests of the inputs the campaign loaded, so a resume
    against the edited model is rejected."""
    import flagtuner.cli as cli

    model = tmp_path / "model.json"
    shutil.copy(DEMO / "pair_model.json", model)
    loaded = hashlib.md5(model.read_bytes()).hexdigest()
    config = write_config(tmp_path / "c.json", model=str(model))
    original = cli.run_ric

    def run_ric(*args, **kwargs):
        _pair_model(tmp_path, model.name, base_time=120.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ric", run_ric)
    out = tmp_path / "o"
    assert main(["ric", "--config", str(config), "--out", str(out), "--max-evals", "2"]) == 3
    assert read_checkpoint(out / "checkpoint.json")["inputs"]["model"] == loaded
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["ric", "--config", str(config), "--out", str(out),
                 "--resume", str(out / "checkpoint.json")]) == 1
    assert "checkpoint inputs" in capsys.readouterr().err


def test_resume_rejects_mismatched_inputs(tmp_path, demo_config):
    out = tmp_path / "o"
    code = main(
        ["suite-ce", "--config", demo_config("tradeoff"), "--out", str(out), "--max-evals", "5"]
    )
    assert code == 3
    # different seed than the checkpoint's
    code = main(
        [
            "suite-ce",
            "--config",
            demo_config("tradeoff"),
            "--out",
            str(out),
            "--seed",
            "99",
            "--resume",
            str(out / "checkpoint.json"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "command, overrides, extra",
    [("ric", {"n_configs": 50}, []), ("ce", {"benchmark": "crc32"}, []),
     ("suite-ce", {}, ["--threshold", "1"]), ("xval", {"aggregate": "geomean"}, [])],
    ids=["ric-n-configs", "ce-benchmark", "suite-ce-threshold", "xval-aggregate"],
)
def test_resume_rejects_other_params(tmp_path, capsys, command, overrides, extra):
    first = tmp_path / "first"
    config = write_config(tmp_path / "c.json", **TRADEOFF, k=2)
    assert main([command, "--config", str(config), "--out", str(first), "--max-evals", "5"]) == 3
    checkpoint = (first / "checkpoint.json").read_bytes()
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    other = write_config(tmp_path / "other.json", **TRADEOFF, k=2, **overrides)  # same files
    code = main([command, "--config", str(other), "--out", str(fresh),
                 "--resume", str(first / "checkpoint.json"), *extra])
    assert code == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not fresh.exists()
    assert (first / "checkpoint.json").read_bytes() == checkpoint


def test_resume_rejects_other_command(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(
        ["suite-ce", "--config", demo_config("tradeoff"), "--out", str(out), "--max-evals", "5"]
    ) == 3
    code = main(
        [
            "ric",
            "--config",
            demo_config("tradeoff"),
            "--out",
            str(out),
            "--resume",
            str(out / "checkpoint.json"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "command, extra, checkpoint",
    [("ce", [], None), ("ric", ["--seed", "99"], None), ("ric", [], "[1, 2]")],
    ids=["command", "seed", "not-an-object"],
)
def test_rejected_resume_creates_nothing(tmp_path, demo_config, capsys, command, extra,
                                         checkpoint):
    first = tmp_path / "first"
    assert main(
        ["ric", "--config", demo_config("tradeoff"), "--out", str(first), "--max-evals", "5"]
    ) == 3
    if checkpoint is not None:
        (first / "checkpoint.json").write_text(checkpoint)
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    code = main(
        [command, "--config", demo_config("tradeoff"), "--out", str(fresh),
         "--resume", str(first / "checkpoint.json"), *extra]
    )
    assert code == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (fresh / "cache.jsonl").exists()
    assert not fresh.exists()


def _pair_model(tmp_path, name, **changes):
    demo = Path(__file__).resolve().parent.parent / "demo"
    data = json.loads((demo / "pair_model.json").read_text())
    data["benchmarks"]["cover"].update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo"
TRADEOFF = {"flag_space": str(DEMO / "tradeoff_space.json"),
            "model": str(DEMO / "tradeoff_model.json")}


@pytest.mark.parametrize(
    "command, overrides, extra",
    [
        ("ce", {"benchmark": "nope"}, []),
        ("ric", {"benchmarks": ["nope"]}, []),
        ("ric", {"model": "unknown_flag.json"}, []),
        ("oracle", {"model": "unknown_flag.json"}, []),
        ("oracle", {"model": "negative_at_O2.json"}, []),
        ("suite-ce", {"aggregate": "median"}, []),
        ("suite-ce", {"threshold_t": -1}, []),
        ("suite-ce", {}, ["--threshold", "-1"]),
        ("ric", {"n_configs": 0}, []),
        ("xval", {**TRADEOFF, "k": 1}, []),
        ("xval", {**TRADEOFF, "k": 99}, []),
        ("oracle", {}, ["--threshold", "-1"]),
        ("oracle", {}, ["--max-flags", "1"]),
        ("ric", {"model": "benchmark_list.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "benchmark_list.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "string_entries.json"}, []),
        ("ric", {"benchmarks": 5}, []),
        ("ric", {"n_configs": [3]}, []),
        ("ric", {"cache": ["a"]}, []),
        ("ric", {"cache": 5}, []),
        ("ric", {"mode": "external", "model": None, "suite": "input_in_run.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "bin_in_compile.json"}, []),
        ("ric", {}, ["--max-evals", "0"]),
        ("ric", {"benchmarks": []}, []),
        ("ric", {"flag_space": "flags_a_number.json"}, []),
        ("ric", {"threshold": 5.0}, []),
        ("suite-ce", {**TRADEOFF, "benchmarks": ["crc32", "crc32", "matmult", "fir"]}, []),
        ("xval", {**TRADEOFF, "k": 2, "benchmarks": ["crc32", "crc32", "matmult", "fir"]}, []),
        ("ric", {**TRADEOFF, "benchmarks": {"crc32": 1}}, []),
        ("ric", {"cache": ""}, []),
        ("ric", {"cache": "."}, []),
        ("ric", {"n_configs": 2.7}, []),
        ("ric", {"seed": "5"}, []),
        ("suite-ce", {"threshold_t": True}, []),
        ("ric", {"flag_space": "stock_a_string.json"}, []),
        ("ric", {"model": "when_a_string.json"}, []),
        ("ric", {"model": "base_time_a_string.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "repeat_runs_fractional.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "timeout_a_string.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "timeout_nan.json"}, []),
        ("ric", {"model": "when_three_values.json"}, []),
        ("ric", {"model": "flags_one_value.json"}, []),
        ("ce", {"model": "slash_name_model.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "slash_name_suite.json"}, []),
        ("suite-ce", {}, ["--threshold", "inf"]),
        ("oracle", {}, ["--threshold", "1e400"]),
        ("ric", {"mode": "nope"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "repeated_name_suite.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "empty_name_suite.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "timing_wall.json"}, []),
        ("ric", {"flag_space": "empty_flag_name.json"}, []),
        ("ric", {"flag_space": "no_base_levels.json"}, []),
        ("ric", {"flag_space": "repeated_base_level.json"}, []),
        ("ce", {**TRADEOFF, "benchmark": ""}, []),
        ("ce", {"model": "empty_name_model.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "flags_in_one_argument.json",
                 "flag_space": "wide_space.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "timeout_too_large.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "empty_run_command.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "empty_compile_command.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "nul_in_run_command.json"}, []),
        ("ric", {"mode": "external", "model": None, "suite": "nul_in_compile_command.json"}, []),
        ("ric", {"flag_space": "nul_in_flag_form.json"}, []),
        ("ric", {"flag_space": "nul_in_base_level.json"}, []),
    ],
    ids=["ce-benchmark", "ric-benchmarks", "ric-unknown-flag", "oracle-unknown-flag",
         "oracle-non-positive", "suite-ce-aggregate", "suite-ce-negative-threshold",
         "suite-ce-negative-threshold-option", "ric-no-configs", "xval-k-1",
         "xval-k-above-benchmarks", "oracle-negative-threshold-option", "oracle-above-max-flags",
         "ric-malformed-model", "ric-malformed-suite", "ric-malformed-suite-entry",
         "ric-benchmarks-not-a-list", "ric-n-configs-not-a-number", "ric-cache-a-list",
         "ric-cache-a-number", "ric-input-in-run-command", "ric-bin-in-compile-command",
         "ric-max-evals-0", "ric-empty-benchmarks", "ric-flags-not-a-list", "ric-unknown-field",
         "suite-ce-repeated-benchmark", "xval-repeated-benchmark", "ric-benchmarks-an-object",
         "ric-cache-empty", "ric-cache-dot", "ric-n-configs-fractional", "ric-seed-a-string",
         "suite-ce-threshold-true", "ric-stock-a-string", "ric-when-a-string",
         "ric-base-time-a-string", "ric-repeat-runs-fractional", "ric-timeout-a-string",
         "ric-timeout-nan", "ric-when-three-values", "ric-flags-one-value",
         "ce-model-benchmark-with-slash", "ric-suite-benchmark-with-slash",
         "suite-ce-infinite-threshold-option", "oracle-infinite-threshold-option",
         "ric-bad-mode", "ric-suite-repeated-name", "ric-suite-empty-name", "ric-timing-wall",
         "ric-empty-flag-name", "ric-no-base-levels", "ric-repeated-base-level",
         "ce-empty-benchmark", "ce-model-empty-benchmark-name", "ric-argument-too-long",
         "suite-timeout-too-large", "ric-empty-run-command", "ric-empty-compile-command",
         "ric-nul-in-run-command", "ric-nul-in-compile-command", "ric-nul-in-flag-form",
         "ric-nul-in-base-level"],
)
def test_rejected_config_creates_nothing(tmp_path, capsys, command, overrides, extra):
    _pair_model(tmp_path, "unknown_flag.json", flag_delta={"ivopts": -5.0, "zz": 1.0})
    # multipliers only for O1 and O3, so O2 runs at 1.0: 20 - 5 - 5 - 20 < 0
    _pair_model(tmp_path, "negative_at_O2.json", base_time=20.0,
                level_multiplier={"O1": 2.0, "O3": 2.0})
    _pair_model(tmp_path, "base_time_a_string.json", base_time="110")
    pair = {"flags": ["ivopts", "tree-ch"], "when": ["false", True], "delta": -20.0}
    _pair_model(tmp_path, "when_a_string.json", pair_delta=[pair])
    _pair_model(tmp_path, "when_three_values.json",
                pair_delta=[{**pair, "when": [False, True, True]}])
    _pair_model(tmp_path, "flags_one_value.json", pair_delta=[{**pair, "flags": ["a"]}])
    (tmp_path / "benchmark_list.json").write_text('{"benchmarks": []}')
    (tmp_path / "string_entries.json").write_text('{"benchmarks": ["x"]}')
    model = json.loads((DEMO / "pair_model.json").read_text())
    for name, bench_name in (("slash_name_model.json", "a/b"), ("empty_name_model.json", "")):
        named = {**model, "benchmarks": {bench_name: model["benchmarks"]["cover"]}}
        (tmp_path / name).write_text(json.dumps(named))
    for name, bench_name, commands in (
            ("input_in_run.json", "b", ("cc {flags} -o {out}", "{bin} {input}")),
            ("bin_in_compile.json", "b", ("cc {flags} -o {bin}", "{bin}")),
            ("slash_name_suite.json", "a/b", ("cc {flags} -o {out}", "{bin}"))):
        bench = dict(zip(("name", "compile_command", "run_command"), (bench_name, *commands)))
        (tmp_path / name).write_text(json.dumps({"benchmarks": [bench]}))
    bench = {"name": "b", "compile_command": "cc {flags} -o {out}", "run_command": "{bin}"}
    for name, field_value in (("repeat_runs_fractional.json", {"repeat_runs": 2.9}),
                              ("timeout_a_string.json", {"timeout": "30"}),
                              ("timeout_nan.json", {"timeout": float("nan")}),  # written NaN
                              # poll() takes it as a C int of milliseconds
                              ("timeout_too_large.json", {"timeout": 2147483.648}),
                              ("empty_name_suite.json", {"name": ""}),
                              ("timing_wall.json", {"timing": "wall"}),
                              ("empty_run_command.json", {"run_command": " "}),
                              ("empty_compile_command.json", {"compile_command": ""}),
                              ("nul_in_run_command.json", {"run_command": "{bin} a\0b"}),
                              ("nul_in_compile_command.json",
                               {"compile_command": "cc {flags} -o {out} -DX=\0"})):
        (tmp_path / name).write_text(json.dumps({"benchmarks": [{**bench, **field_value}]}))
    (tmp_path / "repeated_name_suite.json").write_text(json.dumps({"benchmarks": [bench, bench]}))
    (tmp_path / "flags_in_one_argument.json").write_text(json.dumps({"benchmarks": [
        {**bench, "compile_command": "sh -c 'cc {flags} -o {out}'"}]}))
    _wide_space(tmp_path / "wide_space.json")
    space = json.loads((DEMO / "pair_space.json").read_text())
    (tmp_path / "flags_a_number.json").write_text(json.dumps({**space, "flags": 5}))
    stock_a_string = [{**space["flags"][0], "stock": "false"}, *space["flags"][1:]]
    (tmp_path / "stock_a_string.json").write_text(json.dumps({**space, "flags": stock_a_string}))
    empty_flag_name = [{**space["flags"][0], "name": ""}, *space["flags"][1:]]
    (tmp_path / "empty_flag_name.json").write_text(json.dumps({**space, "flags": empty_flag_name}))
    nul_in_form = [{**space["flags"][0], "off": "-fno-\0x"}, *space["flags"][1:]]
    (tmp_path / "nul_in_flag_form.json").write_text(json.dumps({**space, "flags": nul_in_form}))
    for name, levels in (("no_base_levels.json", []),
                         ("repeated_base_level.json", ["O1", "O3", "O3"]),
                         ("nul_in_base_level.json", ["O1\0", "O3"])):
        (tmp_path / name).write_text(json.dumps({**space, "base_levels": levels}))
    for field in ("model", "suite", "flag_space"):
        name = overrides.get(field)
        if name and not Path(name).is_absolute():  # one of the files above
            overrides = {**overrides, field: str(tmp_path / name)}
    config = write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, accepted", [("ric", False), ("ce", False), ("suite-ce", True),
                                               ("xval", True), ("oracle", True)])
def test_threshold_is_an_option_of_suite_ce_xval_and_oracle(tmp_path, command, accepted):
    config = write_config(tmp_path / "c.json", **TRADEOFF, k=2)
    out = tmp_path / "o"
    code = main([command, "--config", str(config), "--out", str(out), "--threshold", "3"])
    assert code == (0 if accepted else 1)
    assert out.exists() == accepted


HEADER = ",".join(TRACE_COLUMNS) + "\n"
FEATURES = (DEMO / "features.csv").read_text()
OUTSIDE_SPACE = HEADER + "1,1111,O9,crc32,1.0,ok,baseline\n"  # the space has O3 only
BASELINE = HEADER + "1,1111,O3,crc32,1.0,ok,baseline\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("report", None),
        ("report", HEADER),
        ("report", HEADER + "1,1000,O3\n"),
        ("report", OUTSIDE_SPACE),
        ("report", BASELINE + "1,0111,O3,fir,2.0,ok,baseline\n"),
        ("report", BASELINE + "1,1111,O3,fir,2.0,ok,probe\n"),
        ("report", (BASELINE, BASELINE)),
        ("report", HEADER + "1,1111,O3,crc32,1.0,ok,probe\n"),
        ("report", "program,fold,ratio,error\n"),
        ("report", BASELINE + "3,0111,O3,crc32,2.0,ok,probe\n"),
        ("predict-1nn", None),
        ("predict-1nn", '{"program": "crc32", "trace": "crc32.trace"}'),
        ("predict-1nn", '["crc32"]'),
        ("predict-1nn", '[{"trace": "crc32.trace"}]'),
        ("predict-1nn", '[{"program": "crc32"}]'),
        ("predict-1nn", '[{"program": "crc32", "trace": "crc32.trace", "benchmark": ["x"]}]'),
        ("predict-1nn", '[{"program": "crc32", "trace": "outside.trace"}]'),
        ("predict-1nn", '[{"program": "adpcm", "trace": "crc32.trace"}]'),
        ("features", FEATURES + "fir,8,12,30,2\n"),
        ("features", FEATURES + "adpcm,8,x,30,2\n"),
        ("features", FEATURES + "adpcm,8,12,30\n"),
        ("features", FEATURES + "adpcm,8,12,inf,2\n"),
        ("features", "\n" + FEATURES),
    ],
    ids=["report-missing-trace", "report-header-only-trace", "report-short-row",
         "report-level-outside-space", "report-rows-disagree-on-config",
         "report-rows-disagree-on-annotation", "report-two-traces-one-stem",
         "report-no-baseline-first", "report-not-a-trace", "report-sequence-skips-one",
         "predict-1nn-missing-manifest",
         "predict-1nn-manifest-not-a-list", "predict-1nn-record-not-an-object",
         "predict-1nn-record-without-program", "predict-1nn-record-without-trace",
         "predict-1nn-benchmark-not-a-string", "predict-1nn-trace-level-outside-space",
         "predict-1nn-program-not-in-features",
         "features-repeated-program", "features-not-a-number", "features-wrong-width",
         "features-not-finite", "features-blank-first-line"],
)
def test_rejected_input_creates_nothing(tmp_path, demo_dir, capsys, command, text):
    """A missing or misshapen trace, training manifest or feature table, or
    two traces that would write one series file, is one line and exit 1,
    before the out dir exists. A feature table's error names its line."""
    out = tmp_path / "o"
    (tmp_path / "outside.trace").write_text(OUTSIDE_SPACE)
    path = tmp_path / {"report": "input.trace", "predict-1nn": "manifest.json",
                       "features": "features.csv"}[command]
    texts = text if isinstance(text, tuple) else (text,)  # a tuple: one file a directory
    paths = [path] + [tmp_path / f"d{i}" / path.name for i in range(1, len(texts))]
    for p, t in zip(paths, texts):
        p.parent.mkdir(exist_ok=True)
        if t is not None:
            p.write_text(t)
    if command == "report":
        argv = ["report", *map(str, paths)]
    elif command == "features":  # the demo's table, a row appended or a blank line first
        argv = ["predict-1nn", str(path), str(tmp_path / "manifest.json"), "fir"]
    else:
        argv = ["predict-1nn", str(demo_dir / "features.csv"), str(path), "fir"]
    space = str(demo_dir / "tradeoff_space.json")
    assert main([*argv, "--space", space, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if command == "features":
        line = 1 if text.startswith("\n") else 7
        assert err[0].startswith(f"flagtuner: {path}: line {line}: ")
    assert not out.exists()


def test_cache_of_md5_keyed_synthetic_records_is_measured_afresh(tmp_path):
    """A synthetic cache written when each outcome was filed under an md5
    digest of fingerprint and configuration, nine fields a record, loads but
    answers nothing, so a campaign over it writes what a cold one writes."""
    config = write_config(tmp_path / "c.json")
    cold, old = tmp_path / "cold", tmp_path / "old"
    assert main(["ric", "--config", str(config), "--out", str(cold)]) == 0
    records = [json.loads(line) for line in (cold / "cache.jsonl").read_text().splitlines()]
    old.mkdir()
    with open(old / "cache.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            _, fingerprint, level, bits = rec["key"].split(":")
            digest = hashlib.md5(f"{fingerprint}:{level}:{bits}".encode()).hexdigest()
            fh.write(json.dumps({**rec, "key": digest, "digest_algo": "md5", "digest": digest,
                                 "config_bitstring": bits, "base_level": level}) + "\n")
    with EvalCache(old / "cache.jsonl") as cache:
        assert len(cache.entries) == len(records)
        assert all(cache.get(rec["benchmark"], rec["key"]) is None for rec in records)
    assert main(["ric", "--config", str(config), "--out", str(old)]) == 0
    assert artifact_digests(old) == artifact_digests(cold)


def test_shipped_and_benchmark_configs_load(tmp_path):
    """Every demo config, and every config the benchmark generates, passes
    the input stage; a benchmark input the readers rejected would fail
    every benchmark run."""
    spec = importlib.util.spec_from_file_location("inputs", REPO / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    configs = sorted(DEMO.glob("*_campaign.json"))
    for workload in ("synth-search", "oracle-16", "stub-external"):
        for seed in (1, 2, 3):
            generated = inputs.generate(workload, seed, REPO, tmp_path / f"{workload}-{seed}")
            configs += [Path(v) for k, v in generated.items() if k.endswith("_config")]
    assert len(configs) == 4 + 3 * 4
    for config in configs:
        args = build_parser().parse_args(["suite-ce", "--config", str(config)])
        cfg, _ = _load_config(args, "suite-ce")
        _load_inputs(cfg)


def test_null_cache_and_out_dir_mean_absent(tmp_path, monkeypatch):
    config = write_config(tmp_path / "c.json", cache=None, out_dir=None, n_configs=5)
    monkeypatch.chdir(tmp_path)
    assert main(["ric", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "cache.jsonl").exists()
    assert not list(tmp_path.rglob("None"))


def test_torn_cache_tail_is_dropped(tmp_path, demo_config):
    full = tmp_path / "full"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(full)]) == 0
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
    cache = out / "cache.jsonl"
    cache.write_bytes(cache.read_bytes()[:-20])
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
    assert (out / "ric.trace").read_bytes() == (full / "ric.trace").read_bytes()


def test_changed_model_is_not_answered_from_the_cache(tmp_path):
    model = tmp_path / "model.json"
    data = json.loads((DEMO / "tradeoff_model.json").read_text())
    model.write_text(json.dumps(data))
    config = write_config(tmp_path / "c.json", **{**TRADEOFF, "model": str(model)}, n_configs=5)
    out = tmp_path / "o"
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
    for bench in data["benchmarks"].values():
        bench["base_time"] *= 2
    model.write_text(json.dumps(data))
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    assert main(["ric", "--config", str(config), "--out", str(fresh)]) == 0
    for artifact in ("ric.trace", "ric.best.json", "checkpoint.json", "summary.txt"):
        assert (out / artifact).read_bytes() == (fresh / artifact).read_bytes()


def test_external_build_dir_is_emptied(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("stub"), "--out", str(out)]) == 0
    assert list((out / "build").iterdir()) == []
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("ric: evaluations=8 cache_hits=6 configs_tested=7 ")


def test_stub_cache_holds_one_line_per_outcome(tmp_path, demo_config):
    """Each outcome is one record, under its configuration; the cache files
    it under its binary's digest as well, without a second line."""
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("stub"), "--out", str(out)]) == 0
    lines = (out / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    keys = [(rec["benchmark"], rec["key"]) for rec in map(json.loads, lines)]
    assert all(key.startswith("cfg:") for _, key in keys)
    assert len(set(keys)) == len(keys) == 12  # 14 pairs, 2 of them configuration hits


def test_out_dir_with_a_space(tmp_path, demo_config):
    """A template is split before it is filled in, so a path with a space
    stays one argument."""
    plain, spaced = tmp_path / "plain" / "out", tmp_path / "sp ace" / "out"
    for out in (plain, spaced):
        assert main(["ric", "--config", demo_config("stub"), "--out", str(out)]) == 0
    summary = (spaced / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("ric: evaluations=8 cache_hits=6 ")
    assert summary == (plain / "summary.txt").read_text(encoding="utf-8")
    assert sorted(tmp_path.iterdir()) == [plain.parent, spaced.parent]
    assert list(spaced.parent.iterdir()) == [spaced]


def test_binary_name_does_not_grow_with_the_flag_count(tmp_path):
    """A binary's name has a fixed length, so a space of 300 flags, past the
    255-byte limit on a file name at one character per flag, still runs."""
    (tmp_path / "space.json").write_text(json.dumps({
        "base_levels": ["O2", "O3"], "default_baseline": "O3",
        "flags": [{"name": f"g{i}", "on": f"-fg{i}", "off": f"-fno-g{i}"} for i in range(300)],
    }))
    config = write_config(tmp_path / "c.json", flag_space=str(tmp_path / "space.json"),
                          mode="external", model=None, suite=str(DEMO / "stub_suite.json"),
                          n_configs=2)
    out = tmp_path / "ric"
    for _ in range(2):
        assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
        assert list((out / "build").iterdir()) == []
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("ric: evaluations=0 cache_hits=6 ")
    out = tmp_path / "ce"
    assert main(["ce", "--config", str(config), "--out", str(out), "--max-evals", "4"]) == 3
    assert list((out / "build").iterdir()) == []


@pytest.fixture
def built_campaigns(monkeypatch):
    """Every Campaign the cli builds, in order, to read its counters."""
    import flagtuner.cli as cli

    built = []
    original = cli.build_campaign

    def build_campaign(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_campaign", build_campaign)
    return built


@pytest.mark.parametrize("command", ["ric", "suite-ce"])
def test_external_replay_compiles_nothing(tmp_path, demo_config, built_campaigns, command):
    out = tmp_path / "o"
    argv = [command, "--config", demo_config("stub"), "--out", str(out)]
    assert main(argv) == 0
    cold = _resumable_artifacts(out)
    assert main([*argv, "--resume", str(out / "checkpoint.json")]) == 0
    assert _resumable_artifacts(out) == cold
    first, replay = (camp.evaluator for camp in built_campaigns)
    assert first.compilations > 0
    assert (replay.compilations, replay.executions) == (0, 0)
    assert replay.cache_hits == first.cache_hits + first.executions


@pytest.mark.parametrize("command", ["ric", "suite-ce"])
def test_each_campaign_splits_its_templates_once(tmp_path, demo_config, monkeypatch, command):
    """A campaign splits each command template of its suite once, as the
    suite loads: the stub suite's 2 benchmarks make 4 splits, cold and
    resumed, and every compile and run starts after them."""
    from flagtuner import evaluator

    split, run_command = evaluator.shlex.split, evaluator._run_command
    splits = []  # one entry per split
    at_command = []  # the splits made when each compile or run starts

    def counting_split(*args, **kwargs):
        splits.append(args)
        return split(*args, **kwargs)

    def counting_run_command(*args, **kwargs):
        at_command.append(len(splits))
        return run_command(*args, **kwargs)

    monkeypatch.setattr(evaluator.shlex, "split", counting_split)
    monkeypatch.setattr(evaluator, "_run_command", counting_run_command)
    out = tmp_path / "o"
    argv = [command, "--config", demo_config("stub"), "--out", str(out)]
    for resume in ([], ["--resume", str(out / "checkpoint.json")]):
        splits.clear()
        at_command.clear()
        assert main([*argv, *resume]) == 0
        assert len(splits) == 4
        assert set(at_command) == ({4} if not resume else set())


def test_repeated_configuration_compiles_once(tmp_path, demo_config, built_campaigns):
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("stub"), "--out", str(out)]) == 0
    trace = read_trace(out / "ric.trace", load_flag_space(DEMO / "stub_space.json"))
    pairs = [(rec.config.key(), bench) for rec in trace.records for bench in rec.measurements]
    assert len(set(pairs)) < len(pairs)  # the config's seed draws one configuration twice
    assert built_campaigns[0].evaluator.compilations == len(set(pairs))


def test_failed_compiles_count_as_evaluations(tmp_path, capsys, built_campaigns):
    """A compile error ran nothing, yet it is a fresh evaluation, which
    --max-evals spends: the summary counts it, and a replay answers it."""
    bench = {"name": "b", "compile_command": "false {flags} --out {out}", "run_command": "{bin}"}
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [bench]}))
    config = write_config(tmp_path / "c.json", flag_space=str(DEMO / "stub_space.json"),
                          mode="external", model=None, suite="suite.json", n_configs=3)
    argv = ["ric", "--config", str(config), "--out", str(tmp_path / "o")]
    counts = []
    for _ in range(2):
        assert main(argv) == 0
        counts.append(re.search(r"evaluations=(\d+) cache_hits=(\d+)", capsys.readouterr().out))
    cold, replay = ((int(m[1]), int(m[2])) for m in counts)
    assert cold[0] == built_campaigns[0].evaluator.compilations > 0
    assert replay == (0, sum(cold))


def _stub_copy(tmp_path: Path, **overrides) -> Path:
    """A config for the stub campaign whose suite and stub scripts are copies
    in ``tmp_path``, free to edit."""
    shutil.copytree(DEMO / "stub", tmp_path / "stub")
    shutil.copy(DEMO / "stub_suite.json", tmp_path / "suite.json")
    return write_config(tmp_path / "c.json", flag_space=str(DEMO / "stub_space.json"),
                        mode="external", model=None, suite="suite.json", n_configs=6,
                        **overrides)


def test_changed_run_command_runs_binaries_again(tmp_path, built_campaigns):
    config = _stub_copy(tmp_path)
    argv = ["ric", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    suite = json.loads((tmp_path / "suite.json").read_text())
    suite["benchmarks"][0]["run_command"] += "-board2"
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    assert main(argv) == 0
    first, second = (camp.evaluator for camp in built_campaigns)
    assert 0 < second.executions < first.executions  # the unchanged entry stays cached


def test_edited_compiler_script_recompiles(tmp_path, built_campaigns):
    config = _stub_copy(tmp_path)
    argv = ["ric", "--config", str(config), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    with open(tmp_path / "stub" / "stubcc.py", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    assert main(argv) == 0
    first, second = (camp.evaluator for camp in built_campaigns)
    assert (second.compilations, second.executions) == (first.compilations, first.executions)


def _kill_when_cache_passes(argv: list[str], cache: Path, size: int) -> None:
    """Run the CLI in a subprocess and SIGKILL it, its toolchain children
    included, once ``cache`` holds at least ``size`` bytes."""
    proc = subprocess.Popen([sys.executable, "-m", "flagtuner", *argv], env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    deadline = time.monotonic() + 60
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if cache.exists() and cache.stat().st_size >= size:
                break
            time.sleep(0.002)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)


def _resumable_artifacts(out: Path) -> dict[str, str]:
    """``artifact_digests`` with the summary's invocation counts masked:
    they count the evaluations and cache hits of the last run alone, which
    a warm cache changes."""
    digests = artifact_digests(out)
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    digests["summary.txt"] = re.sub(r"(evaluations|cache_hits)=\d+", r"\1=#", summary)
    return digests


def test_killed_campaign_resumes_byte_identical(tmp_path, demo_config):
    argv = ["ce", "--config", demo_config("stub")]
    full = tmp_path / "full"
    assert main([*argv, "--out", str(full)]) == 0
    size = (full / "cache.jsonl").stat().st_size
    for i, kill_at in enumerate(random.Random(20261018).sample(range(1, size + 1), 3)):
        out = tmp_path / f"killed_{i}"
        _kill_when_cache_passes([*argv, "--out", str(out)], out / "cache.jsonl", kill_at)
        assert main([*argv, "--out", str(out)]) == 0
        assert _resumable_artifacts(out) == _resumable_artifacts(full)
        assert not list(out.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_pair_demo(tmp_path, demo_config):
    out = tmp_path / "o"
    assert main(["oracle", "--config", demo_config("pair"), "--out", str(out)]) == 0
    rows = (out / "oracle_per_benchmark.csv").read_text().splitlines()
    assert rows[1].startswith("cover,90.0,100.0,0.9,")
    constrained = json.loads((out / "oracle_constrained.json").read_text())
    assert constrained["bitstring"] == "00"
    assert constrained["aggregate_ratio"] == 0.9


def test_oracle_scores_with_configured_aggregate(tmp_path, demo_dir, tradeoff_space,
                                                tradeoff_model):
    config = write_config(
        tmp_path / "c.json",
        flag_space=str(demo_dir / "tradeoff_space.json"),
        model=str(demo_dir / "tradeoff_model.json"),
        threshold_t=3.0,
        aggregate="geomean",
    )
    assert main(["suite-ce", "--config", str(config), "--out", str(tmp_path / "ce")]) == 0
    assert main(["oracle", "--config", str(config), "--out", str(tmp_path / "oracle")]) == 0
    found = read_final_config(tmp_path / "ce" / "suite_ce.config.json")
    stock = tradeoff_space.stock_config()
    found_aggregate = AGGREGATES["geomean"]([
        tradeoff_model.time_for(tradeoff_space, found, b)
        / tradeoff_model.time_for(tradeoff_space, stock, b)
        for b in tradeoff_model.benchmark_names
    ])
    optimum = json.loads((tmp_path / "oracle" / "oracle_constrained.json").read_text())
    assert optimum["aggregate_ratio"] <= found_aggregate


def test_oracle_refuses_external_mode(tmp_path, demo_config):
    assert main(["oracle", "--config", demo_config("stub"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("extra", [["--resume", "nothing.json"], ["--max-evals", "1"]],
                         ids=["resume", "max-evals"])
def test_oracle_rejects_campaign_options(tmp_path, demo_config, extra):
    out = tmp_path / "o"
    assert main(["oracle", "--config", demo_config("pair"), "--out", str(out), *extra]) == 1
    assert not out.exists()


def test_oracle_enforces_flag_cap(tmp_path, demo_config):
    code = main(
        ["oracle", "--config", demo_config("pair"), "--out", str(tmp_path / "o"), "--max-flags", "1"]
    )
    assert code == 1
    assert not (tmp_path / "o").exists()  # the cap is checked before any scoring or mkdir


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_from_ric_trace(tmp_path, demo_config, demo_dir):
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    code = main(
        [
            "report",
            str(out / "ric.trace"),
            "--space",
            str(demo_dir / "pair_space.json"),
            "--out",
            str(rep),
        ]
    )
    assert code == 0
    compare = (rep / "compare.csv").read_text().splitlines()
    assert compare[1].startswith("cover,90.0,100.0,0.9,ric,")
    series = (rep / "ric.series.csv").read_text().splitlines()
    assert series[0] == "configs_tested,value"
    assert series[-1].endswith("0.9")
    values = [float(line.split(",")[1]) for line in series[1:]]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_report_reads_a_benchmark_name_holding_a_carriage_return(tmp_path, demo_dir):
    """Left unquoted, a CR in a field splits the row when the trace is read."""
    model = json.loads((demo_dir / "pair_model.json").read_text())
    model["benchmarks"] = {"a\rb": model["benchmarks"]["cover"]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    config = write_config(tmp_path / "c.json", model=str(tmp_path / "model.json"), n_configs=20)
    out, space = tmp_path / "o", demo_dir / "pair_space.json"
    assert main(["ric", "--config", str(config), "--out", str(out)]) == 0
    assert main(["report", str(out / "ric.trace"), "--space", str(space),
                 "--out", str(tmp_path / "rep")]) == 0
    trace = read_trace(out / "ric.trace", load_flag_space(space))
    assert {bench for rec in trace.records for bench in rec.measurements} == {"a\rb"}


def test_report_with_explicit_reference_trace(tmp_path, demo_config, demo_dir):
    out = tmp_path / "o"
    assert main(["ric", "--config", demo_config("pair"), "--out", str(out)]) == 0
    assert main(["ce", "--config", demo_config("pair"), "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    code = main(
        [
            "report",
            str(out / "ce_cover.trace"),
            "--space",
            str(demo_dir / "pair_space.json"),
            "--reference",
            str(out / "ric.trace"),
            "--out",
            str(rep),
        ]
    )
    assert code == 0
    assert (rep / "ce_cover.series.csv").exists()


def test_reference_benchmark_no_trace_measured_is_rejected(tmp_path, capsys):
    """A benchmark the reference measured and no trace did is a rejected
    input, found before the out dir exists."""
    cover = json.loads((DEMO / "pair_model.json").read_text())["benchmarks"]["cover"]
    (tmp_path / "other.json").write_text(json.dumps({"benchmarks": {"other": cover}}))
    for name, model in (("pair", DEMO / "pair_model.json"), ("other", tmp_path / "other.json")):
        config = write_config(tmp_path / f"{name}.config.json", model=str(model), n_configs=3)
        assert main(["ric", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", str(tmp_path / "pair" / "ric.trace"),
                 "--reference", str(tmp_path / "other" / "ric.trace"),
                 "--space", str(DEMO / "pair_space.json"), "--out", str(rep)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "flagtuner: no ok measurement for benchmark 'other'"]
    assert not rep.exists()


def test_report_unreadable_trace(tmp_path, demo_dir):
    code = main(
        [
            "report",
            str(tmp_path / "missing.trace"),
            "--space",
            str(demo_dir / "pair_space.json"),
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# xval
# ---------------------------------------------------------------------------

def test_xval_demo(tmp_path, demo_config, tradeoff_space):
    out = tmp_path / "o"
    assert main(["xval", "--config", demo_config("tradeoff"), "--out", str(out)]) == 0
    folds = json.loads((out / "folds.json").read_text())
    assert folds["k"] == 5
    assert sorted(folds["assignment"].values()) == [0, 1, 2, 3, 4]
    report = (out / "xval_report.csv").read_text().splitlines()
    assert report[0] == "program,fold,ratio,error"
    assert report[-1].startswith("overall_mean")
    for i in range(5):
        trace = read_trace(out / f"fold_{i}.trace", tradeoff_space)
        held_out = {p for p, f in folds["assignment"].items() if f == i}
        seen = {b for rec in trace.records for b in rec.measurements}
        assert not (seen & held_out)


def test_xval_names_every_benchmark_whose_reference_fails(tmp_path, capsys):
    (tmp_path / "suite.json").write_text(json.dumps({"benchmarks": [
        {"name": name, "compile_command": "python3 -S -c 'import sys; sys.exit(1)' {flags} {out}",
         "run_command": "{bin}"} for name in ("alpha", "beta")]}))
    config = write_config(tmp_path / "c.json", mode="external", suite="suite.json", model=None,
                          flag_space=str(DEMO / "stub_space.json"), k=2)
    assert main(["xval", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("flagtuner: campaign failed: baseline configuration "
                                       "failed on: alpha (compile_error), beta (compile_error)\n")


def test_external_xval_completes_every_fold_when_probes_fail(tmp_path):
    """Each fold's elimination asks again for the stock pairs that the
    reference pass measured, so a fold finds them cached and ok; probes that
    fail to compile only lose."""
    config = _stub_copy(tmp_path, k=2)
    (tmp_path / "wrap.py").write_text(
        "import runpy, sys\n"
        "if '-fno-unroll-loops' in sys.argv:\n"
        "    sys.exit(1)\n"
        "runpy.run_path('stub/stubcc.py', run_name='__main__')\n")
    suite = json.loads((tmp_path / "suite.json").read_text())
    for bench in suite["benchmarks"]:
        bench["compile_command"] = "python3 -S wrap.py {flags} --out {out}"
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    out = tmp_path / "o"
    assert main(["xval", "--config", str(config), "--out", str(out)]) == 0
    assert "compile_error" in {status for status, _, _ in _cached_outcomes(out / "cache.jsonl")}
    with open(out / "xval_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(row["program"] for row in rows) == ["alpha", "beta", "overall_mean"]
    assert [row["error"] for row in rows] == ["", "", ""]


# ---------------------------------------------------------------------------
# predict-1nn
# ---------------------------------------------------------------------------

@pytest.fixture
def trained_manifest(tmp_path, demo_config, demo_dir):
    out = tmp_path / "ce_out"
    assert main(["ce", "--config", demo_config("tradeoff"), "--out", str(out)]) == 0
    manifest = tmp_path / "manifest.json"
    programs = ["crc32", "matmult", "fir", "dijkstra", "qsort"]
    manifest.write_text(
        json.dumps([{"program": p, "trace": str(out / f"ce_{p}.trace")} for p in programs])
    )
    return manifest


def test_predict_1nn_cli(tmp_path, demo_dir, trained_manifest):
    out = tmp_path / "o"
    code = main(
        [
            "predict-1nn",
            str(demo_dir / "features.csv"),
            str(trained_manifest),
            "fir",
            "--space",
            str(demo_dir / "tradeoff_space.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    config = read_final_config(out / "predicted.config.json")
    assert len(config.assignment) == 4


def test_predict_1nn_unknown_query(tmp_path, demo_dir, trained_manifest):
    code = main(
        [
            "predict-1nn",
            str(demo_dir / "features.csv"),
            str(trained_manifest),
            "nonexistent",
            "--space",
            str(demo_dir / "tradeoff_space.json"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize("command, first_artifact", [
    ("oracle", "oracle_per_benchmark.csv"),
    ("report", "compare.csv"),
    ("predict-1nn", "predicted.config.json"),
])
def test_unwritable_artifact_fails_the_command_naming_it(tmp_path, demo_config, demo_dir,
                                                         trained_manifest, command, first_artifact):
    """Inputs read and out dir made, a write that fails is exit 2, not a usage error."""
    space = ["--space", str(demo_dir / "tradeoff_space.json")]
    argv = {
        "oracle": ["oracle", "--config", demo_config("tradeoff")],
        "report": ["report", str(tmp_path / "ce_out" / "ce_crc32.trace"), *space],
        "predict-1nn": ["predict-1nn", str(demo_dir / "features.csv"), str(trained_manifest),
                        "fir", *space],
    }[command]
    out = tmp_path / "o"
    proc = _run_with_file_limit([*argv, "--out", str(out)], 10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "flagtuner: campaign failed: cannot write artifacts: "
        f"[Errno 27] File too large: '{out / first_artifact}'"]
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "flagtuner", "--help"], env=_child_env(), capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "suite-ce" in proc.stdout


def test_module_invocation_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "flagtuner", "ric"], env=_child_env(), capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: flagtuner ric ")

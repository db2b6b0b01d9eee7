"""Demo artifacts, byte for byte, against digests recorded before refactors.

``golden_demo.sha256`` pins every reproducible artifact that
``scripts/run_demo.py`` writes. Left out: ``run.log`` (timestamps), the
``*.jsonl`` caches and the external-mode ``build/`` directory. The demo
runs from a scratch working directory with a relative ``--out``, so every
path it writes must resolve without the caller's directory. A change that
means to alter an artifact updates the digest file and names the artifact.
"""

import runpy
import sys
from pathlib import Path

from helpers import artifact_digests

HERE = Path(__file__).resolve().parent
DEMO_SCRIPT = HERE.parent / "scripts" / "run_demo.py"


def test_demo_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(DEMO_SCRIPT), "--out", "demo"])
    runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
    out = tmp_path / "demo"
    expected = {}
    for line in (HERE / "golden_demo.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    assert artifact_digests(out) == expected

"""Demo artifacts, byte for byte, against digests recorded before refactors.

``golden_demo.sha256`` pins every reproducible artifact that
``scripts/run_demo.py`` writes. Left out: ``run.log`` (timestamps), the
``*.jsonl`` caches, the external-mode ``build/`` directory and
``training_manifest.json``, which embeds absolute paths. A change that
means to alter an artifact updates the digest file and names the artifact.
"""

import hashlib
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEMO_SCRIPT = HERE.parent / "scripts" / "run_demo.py"
EXCLUDED_NAMES = {"run.log", "training_manifest.json"}


def artifact_digests(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if (
            not path.is_file()
            or path.name in EXCLUDED_NAMES
            or path.suffix == ".jsonl"
            or "build" in rel.parts[:-1]
        ):
            continue
        digests[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_demo_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", [str(DEMO_SCRIPT), "--out", str(out)])
    runpy.run_path(str(DEMO_SCRIPT), run_name="__main__")
    expected = {}
    for line in (HERE / "golden_demo.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    assert artifact_digests(out) == expected

#!/usr/bin/env python3
"""End-to-end tour of the toolkit on the bundled demo models.

Runs every subcommand against the offline demos and leaves all artifacts
under the chosen output directory:

  1. random search, greedy elimination and the brute-force oracle on the
     pair-dependency model (greedy stalls at 1.00, the other two reach 0.90);
  2. a threshold sweep of suite-wide elimination on the trade-off model;
  3. cross-validation on the trade-off suite;
  4. nearest-neighbor prediction trained on the per-benchmark elimination
     traces;
  5. a small external-mode campaign against the stub toolchain.
"""

import argparse
import json
import sys
from pathlib import Path

from flagtuner.cli import main as flagtuner

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo"


def run(args: list[str]) -> None:
    print(f"\n$ flagtuner {' '.join(args)}")
    code = flagtuner(args)
    if code != 0:
        sys.exit(f"demo step failed with exit code {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=REPO / "out" / "demo", type=Path)
    out = parser.parse_args().out

    pair = str(DEMO / "pair_campaign.json")
    tradeoff = str(DEMO / "tradeoff_campaign.json")

    print("=" * 72)
    print("1. pair-dependency model: sampling vs greedy elimination vs oracle")
    print("=" * 72)
    run(["ric", "--config", pair, "--out", str(out / "pair")])
    run(["ce", "--config", pair, "--out", str(out / "pair")])
    run(["oracle", "--config", pair, "--out", str(out / "pair")])
    run(
        [
            "report",
            str(out / "pair" / "ric.trace"),
            str(out / "pair" / "ce_cover.trace"),
            "--space",
            str(DEMO / "pair_space.json"),
            "--out",
            str(out / "pair" / "report"),
        ]
    )

    print()
    print("=" * 72)
    print("2. trade-off model: suite-wide elimination across thresholds")
    print("=" * 72)
    for t in range(0, 7):
        run(
            [
                "suite-ce",
                "--config",
                tradeoff,
                "--threshold",
                str(t),
                "--out",
                str(out / f"tradeoff_t{t}"),
            ]
        )
    print("\nfinal configuration per threshold:")
    for t in range(0, 7):
        config = json.loads((out / f"tradeoff_t{t}" / "suite_ce.config.json").read_text())
        print(f"  t={t}%  {' '.join(config['args'])}")

    print()
    print("=" * 72)
    print("3. cross-validation on the trade-off suite")
    print("=" * 72)
    run(["xval", "--config", tradeoff, "--out", str(out / "xval")])

    print()
    print("=" * 72)
    print("4. nearest-neighbor prediction from elimination traces")
    print("=" * 72)
    run(["ce", "--config", tradeoff, "--out", str(out / "ce_all")])
    programs = ["crc32", "matmult", "fir", "dijkstra", "qsort"]
    manifest = out / "training_manifest.json"
    manifest.write_text(
        json.dumps(
            [{"program": p, "trace": f"ce_all/ce_{p}.trace"} for p in programs],
            indent=2,
        )
    )
    run(
        [
            "predict-1nn",
            str(DEMO / "features.csv"),
            str(manifest),
            "fir",
            "--space",
            str(DEMO / "tradeoff_space.json"),
            "--out",
            str(out / "predicted"),
        ]
    )

    print()
    print("=" * 72)
    print("5. external mode against the stub toolchain")
    print("=" * 72)
    run(["ric", "--config", str(DEMO / "stub_campaign.json"), "--out", str(out / "stub")])

    print(f"\nall demo artifacts under {out}")


if __name__ == "__main__":
    main()

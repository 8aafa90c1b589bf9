"""Record the committed per-layer profile of the four workloads.

Run from the repository root::

    python3 e2ebench/make_profile.py

Runs ``run.py --trace 1`` once per workload on seed :data:`SEED` and writes
``e2ebench/profile.json``: the machine it ran on and, per workload, each
layer's share of traced self time, every per-layer metric and the digest of
the workload's leakage outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "serving", "reference", "variation")
SEED = 1


def main() -> int:
    profile: dict = {"seed": SEED, "workloads": {}}
    for workload in WORKLOADS:
        subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(SEED), "--trace", "1",
            ],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        record = json.loads(
            (ROOT / ".e2ebench" / f"trace-{workload}-seed{SEED}.json").read_text()
        )
        metrics = record["per_layer"]
        self_s = {
            name[: -len(".self_s")]: value
            for name, value in metrics.items()
            if name.endswith(".self_s")
        }
        total = sum(self_s.values())
        profile["machine"] = record["machine"]
        profile["workloads"][workload] = {
            "digest": record["digest"],
            "self_share": {layer: round(value / total, 4) for layer, value in self_s.items()},
            "per_layer": metrics,
        }
    (HERE / "profile.json").write_text(json.dumps(profile, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

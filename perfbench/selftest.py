"""Smoke test of the benchmark itself; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload at its smoke size, untraced and traced, twice on one
seed, and checks the output contract: the last line is one JSON object
with exactly the keys correct/attempted/failed/metrics, the metric names
and units are those of BENCHMARK.json, and the deterministic counts repeat.
It also checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_output(proc, spec: dict, trace: int) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert not any("DID NOT REPEAT" in ln or "COUNTS DIFFER" in ln
                   for ln in lines), proc.stdout
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    assert doc["correct"] is True, proc.stdout
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int) and doc["failed"] >= 0
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in want}, doc["metrics"]
    for m in want:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        if not trace:
            assert got["value"] > 0, (m, got)
    return doc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            docs = []
            for _ in range(2):
                proc = run(RUN + ["--workload", wl, "--seed", "7", "--seconds",
                                  "1", "--trace", str(trace), "--smoke"])
                docs.append(check_output(proc, spec, trace))
            assert docs[0]["attempted"] >= 1
            print(f"ok {wl} trace={trace}")

    # without the sources the benchmark must fail without printing a result
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([sys.executable, "perfbench/run.py", "--workload",
                spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark at tiny sizes (about two minutes).

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload prints each end-to-end metric by name with its
unit, that a traced run prints every per-layer metric, that a corrupted
reference makes failed_share greater than 0, and that the benchmark refuses
to run without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "bench" / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {"images_per_s": "img/s", "ms_p50": "ms", "ms_tail": "ms", "setup_s": "s",
         "peak_rss_mib": "MiB", "failed_share": "ratio"}
PRINTED = {
    "train": ["train_images_per_s", "train_step_ms_p50", "train_step_ms_tail"],
    "eval": ["eval_images_per_s", "eval_latency_ms_p50", "eval_latency_ms_tail"],
}
COMMON = ["setup_s", "peak_rss_mib", "failed_share"]


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--tiny", "--seconds", "1", *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(stdout: str, name: str) -> str:
    """The value-and-unit text printed for a metric."""
    match = re.search(rf"^{re.escape(name)} = (\S+ \S+)", stdout, re.MULTILINE)
    assert match, f"{name} not printed"
    return match.group(1)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all", "--tiny",
                           "--seconds", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    summary = result_of(proc)
    assert summary["correct"] and summary["failed"] == 0
    for name in WORKLOADS:
        result = summary["workloads"][name]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
        for m in BENCH["end_to_end"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] > 0
    section = proc.stdout.split("workload = ")
    for name, out in zip(WORKLOADS, section[1:]):
        assert out.startswith(name)
        mode = "eval" if name.endswith("_eval") else "train"
        for metric in PRINTED[mode] + COMMON:
            unit = next(u for suffix, u in UNITS.items() if metric.endswith(suffix))
            assert printed(out, metric).split()[1] == unit, metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench(ROOT, "--workload", workload, "--trace", "1")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for name in LAYER_MAP["moves"]:
        printed(proc.stdout, name)
    assert "trace.self_time_check" in proc.stdout


def test_corrupted_reference_counts_as_failed(tmp_path):
    copy = tmp_path / "checkout"
    for part in ("src", "reference", "bench"):
        shutil.copytree(ROOT / part, copy / part)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    ref = json.loads((copy / "bench" / "reference.json").read_text())
    for entry in ref.values():
        entry["logits"] = [[2 * v + 1 for v in row] for row in entry["logits"]]
    (copy / "bench" / "reference.json").write_text(json.dumps(ref))
    log = (copy / "reference" / "train_log.csv").read_text().splitlines()
    log[1] = log[1].replace("9.998442", "9.900000")      # step-1 grad_norm
    (copy / "reference" / "train_log.csv").write_text("\n".join(log) + "\n")

    for workload in WORKLOADS:
        proc = bench(copy, "--workload", workload)
        result = result_of(proc)
        assert not result["correct"] and result["failed"] > 0
        share = float(printed(proc.stdout, "failed_share").split()[0])
        assert share > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

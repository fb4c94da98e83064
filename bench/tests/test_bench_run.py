"""End to end at smoke scale: the contract's line, the oracle, the JSON."""

import json
import re
from pathlib import Path

from bench import gen, metrics, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SMOKE = ["--smoke", "--seed", "5"]


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "read_static", "--trace", "0", *SMOKE]) == 0
    line = last_json(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [d.name for d in metrics.END_TO_END]
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_a_corrupted_expected_value_trips_the_oracle(monkeypatch, capsys):
    generate = gen.generate

    def corrupted(*args, **kwargs):
        stream = generate(*args, **kwargs)
        index = next(i for i, op in enumerate(stream.ops) if op[0] == gen.GET)
        stream.expected[index] = "not what the store holds"
        return stream

    monkeypatch.setattr(gen, "generate", corrupted)
    assert run.main(["--workload", "mixed_sharded", "--trace", "0", *SMOKE]) != 0
    line = last_json(capsys)
    assert line["correct"] is False and line["failed"] == 1


def test_a_wrong_final_digest_fails_the_run(monkeypatch, capsys):
    generate = gen.generate

    def corrupted(*args, **kwargs):
        stream = generate(*args, **kwargs)
        stream.model.put(stream.key_hi - 1, "never written", 10**9)
        return stream

    monkeypatch.setattr(gen, "generate", corrupted)
    assert run.main(["--workload", "ingest_delete", "--trace", "0", *SMOKE]) != 0
    assert last_json(capsys)["correct"] is False


def test_benchmark_json_names_what_the_code_measures():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(listed) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert listed["command"] == ["python3", "bench/run.py"] and listed["paths"] == ["bench"]
    assert listed["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in listed["workloads"]] == [
        (spec.name, spec.why) for spec in workloads.SPECS.values()]
    assert listed["end_to_end"] == [
        {"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound}
        for d in metrics.END_TO_END]
    assert listed["per_layer"] == [
        {"name": d.name, "unit": d.unit, "better": d.better} for d in metrics.PER_LAYER]
    assert len(listed["end_to_end"]) <= 16 and len(listed["per_layer"]) <= 128
    names = [m["name"] for m in listed["end_to_end"] + listed["per_layer"]]
    names += [w["name"] for w in listed["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    units = [m["unit"] for m in listed["end_to_end"] + listed["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in listed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in listed["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in listed["end_to_end"])


def test_compare_applies_direction_bound_and_spread():
    from bench import compare

    by_name = {d.name: d for d in metrics.END_TO_END}
    throughput, latency = by_name["throughput_ops_s"], by_name["op_p50_us"]
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(throughput, steady, [v * 0.97 for v in steady])[0] == "ok"
    assert compare.verdict(throughput, steady, [v * 0.70 for v in steady])[0] == "regressed"
    assert compare.verdict(throughput, steady, [v * 1.50 for v in steady])[0] == "ok"
    assert compare.verdict(latency, steady, [v * 1.50 for v in steady])[0] == "regressed"
    assert compare.verdict(latency, steady, [60.0, 100.0, 140.0, 180.0])[0] == "unresolved"


def test_traced_run_prints_every_per_layer_metric(capsys):
    assert run.main(["--workload", "ingest_delete", "--trace", "1", *SMOKE]) == 0
    line = last_json(capsys)
    assert list(line["metrics"]) == [d.name for d in metrics.PER_LAYER]

"""The benchmark's own tests: smoke runs of every workload and the output checks.

Run from the repository root:

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import check
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _bench(*args, cwd=run.ROOT):
    command = [sys.executable, str(run.BENCH / "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_is_correct(workload, seed):
    result = _result(_bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_traced_run_reports_every_layer(workload):
    args = ("--workload", workload, "--seed", "1", "--seconds", "1", "--size", "smoke", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == PER_LAYER
    for name in ("matcher.rows", "cli.output_bytes", "matcher.levels_tried"):
        assert first["metrics"][name] == second["metrics"][name]
    if workload == "adversarial":
        assert first["metrics"]["matcher.detect_s.star"]["value"] > 0
        assert first["metrics"]["matcher.detect_s.chain"]["value"] > 0


def test_golden_sample_closed_forms():
    system = check.read_model(run.SAMPLE.read_text(encoding="utf-8"))
    assert check.expected_builtins(system) == {
        name: check.Expected(*answer) for name, answer in run.GOLDEN.items()
    }


def test_star_and_chain_closed_forms_on_smoke_inputs():
    workload = workloads.generate("adversarial", 1, "smoke")
    # Three hubs of in-degree 3 and a width-2 DAG of in-degree 2.
    assert check.expected_star(workload.system, 6) == check.Expected("partial", 3, 3)
    assert check.expected_chain(6, 2, 4) == check.Expected("partial", 3, 16)


def test_generation_depends_only_on_seed():
    for name in workloads.NAMES:
        a, b = workloads.generate(name, 7, "smoke"), workloads.generate(name, 7, "smoke")
        assert a.model_text == b.model_text and a.patterns == b.patterns
        assert a.model_text != workloads.generate(name, 8, "smoke").model_text


def _sample_document():
    sys.path.insert(0, str(run.SRC))
    import dpdetect.cli

    _, code, out, _ = run.invoke(dpdetect.cli.main, ["detect", str(run.SAMPLE), "--format", "json"])
    assert code == 0
    return json.loads(out)


def _corrupt(document, edit):
    broken = json.loads(json.dumps(document))
    edit({r["pattern"]: r for r in broken["results"]})
    return broken


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["facade"].update(occurrences=4),
        lambda r: r["composite"].update(level=3, verdict="complete"),
        lambda r: r["prototype"]["rows"].pop(),
        lambda r: r["prototype"]["rows"].append(r["prototype"]["rows"][0]),
        lambda r: r["facade"]["rows"][0]["system_edges"][0].__setitem__(1, "e"),
        lambda r: r["facade"]["rows"][0]["system_edges"][0].__setitem__(3, 1),
        lambda r: r["prototype"]["rows"][0]["mapping"].update(c=r["prototype"]["rows"][0]["mapping"]["b"]),
        lambda r: r["composite"]["rows"][0]["system_edges"].reverse(),
    ],
)
def test_check_rejects_wrong_output(edit):
    system = check.read_model(run.SAMPLE.read_text(encoding="utf-8"))
    expected = check.expected_builtins(system)
    document = _sample_document()
    assert check.check_document(document, system, check.BUILTINS, expected) == []
    assert check.check_document(_corrupt(document, edit), system, check.BUILTINS, expected)


def test_check_rejects_disconnected_rows():
    system = frozenset({("a", "b", 1), ("c", "d", 1)})
    pattern = {"two": frozenset({("p", "q", 1), ("r", "s", 1)})}
    row = {
        "pattern_edges": [["p", "q", 1, 0], ["r", "s", 1, 0]],
        "system_edges": [["a", "b", 1, 0], ["c", "d", 1, 0]],
        "mapping": {"p": "a", "q": "b", "r": "c", "s": "d"},
    }
    document = {
        "catalog": ["two"],
        "results": [{"pattern": "two", "verdict": "complete", "level": 2, "occurrences": 1, "rows": [row]}],
    }
    problems = check.check_document(document, system, pattern, {})
    assert any("not weakly connected" in p for p in problems)


def test_tail_keeps_ten_samples_above():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_exits_nonzero_without_the_program():
    bare = run.ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "big-model", "--seed", "1", "--seconds", "1"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

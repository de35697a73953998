"""Benchmark of ``dpdetect detect --format json`` on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload big-model --seed 1 --seconds 30 --trace 0

The workloads (big-model, adversarial, many-patterns) are generated from the
seed by ``workloads.py`` and written under ``.bench_work/``; the detector sees
only those files.  Each invocation runs ``dpdetect.cli.main`` in this process
with stdout captured, one at a time, and every output is checked by
``check.py`` without using the detector.

``--trace 0`` reports the end-to-end metrics: wall_s (median invocation time),
wall_s_tail (highest percentile with at least ten samples above it), setup_s
(median over fresh processes of importing dpdetect and loading the catalog)
and peak_rss_mib (peak RSS of a fresh process running the CLI once).  The
three timings are host-normalised; see ``REFERENCE_S``.
``--trace 1`` alternates plain and traced invocations and reports the
per-layer metrics of ``spans.py``.  ``--size smoke`` runs the reduced inputs
the benchmark's own tests use.

A summary is printed first; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Results and spans are written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SAMPLE = ROOT / "demo" / "sample_system.cg"
PINS = BENCH / "pins.json"
SETUP_PROCESSES = 21
CHILD_TIMEOUT_S = 120

# Answers for demo/sample_system.cg (ROADMAP's golden sample).
GOLDEN = {
    "composite": ("partial", 2, 3),
    "facade": ("complete", 1, 3),
    "prototype": ("complete", 2, 3),
    "singleton": ("absent", None, 0),
}

# Host speed on a shared virtual machine drifts by 20-40% over tens of
# seconds, and raw run medians drift with it.  Every timing is therefore
# paired with the reference kernel below, timed just before and just after
# it, and reported in host-normalised seconds: the raw time scaled by
# REFERENCE_S over the kernel's mean time around it.  The kernel is plain
# stdlib work (hashing, sorting, dict building, JSON encoding, the same mix
# as the detector, plus a backtracking search) that no dpdetect change can
# affect.  REFERENCE_S is close to the kernel's median time on the machine
# the baseline was recorded on (2-vCPU x86_64 VM, Python 3.11.7).  Raw
# figures are kept in the results file.
REFERENCE_S = 0.05
_REFERENCE_EDGES = [
    (f"c{(i * 7919) % 4001:05d}", f"c{(i * 104729) % 3989:05d}", i % 3 + 1) for i in range(12000)
]
_REFERENCE_GRAPH = {n: ((n * 7 + 1) % 61, (n * 11 + 3) % 61, (n * 13 + 5) % 61) for n in range(61)}


def _paths(node: int, depth: int, seen: set[int]):
    """Yield once per simple path of ``depth`` more edges, by backtracking."""
    if depth == 0:
        yield node
        return
    for successor in _REFERENCE_GRAPH[node]:
        if successor not in seen:
            seen.add(successor)
            yield from _paths(successor, depth - 1, seen)
            seen.discard(successor)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of stdlib work, after a collection."""
    gc.collect()
    start = time.perf_counter()
    groups: dict[str, list] = {}
    for edge in sorted(frozenset(_REFERENCE_EDGES)):
        groups.setdefault(edge[1], []).append(edge)
    json.dumps([[list(e) for e in group] for group in groups.values()])
    sum(1 for node in _REFERENCE_GRAPH for _ in _paths(node, 6, {node}))
    return time.perf_counter() - start


class _Sink:
    """Stands in for stdout/stderr and keeps everything written to it."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


def invoke(main, argv: list[str]) -> tuple[float, object, str, str]:
    """Time one in-process CLI invocation: (seconds, exit code, stdout, stderr).

    A raised exception takes the place of the exit code.
    """
    out, err = _Sink(), _Sink()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed detection, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Verifier:
    """Checks every output of one input and counts detections and failures.

    Identical stdout bytes get an identical verdict, so each distinct output
    is checked once, by its SHA-256.  Every output must equal the first one
    and, when the inputs have a pinned digest, that digest.
    """

    def __init__(self, system, patterns, expected, pinned: str | None) -> None:
        self.system, self.patterns, self.expected, self.pinned = system, patterns, expected, pinned
        self.first: str | None = None
        self._verdicts: dict[str, list[str]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, code, stdout: str, stderr: str, label: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {stderr.strip()[:300]}"]
        else:
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            self.first = self.first or digest
            if digest not in self._verdicts:
                self._verdicts[digest] = self._check(stdout, digest)
            problems = self._verdicts[digest]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def _check(self, stdout: str, digest: str) -> list[str]:
        problems = []
        if digest != self.first:
            problems.append("stdout differs from the first invocation's")
        if self.pinned is not None and digest != self.pinned:
            problems.append(f"stdout sha256 {digest} differs from the pinned {self.pinned}")
        if self.patterns is not None:
            try:
                problems += check.check_document(
                    json.loads(stdout), self.system, self.patterns, self.expected
                )
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed report: {type(exc).__name__}: {exc}")
        return problems


def detect_argv(model: Path, catalog: Path | None) -> list[str]:
    return ["detect", str(model), "--format", "json"] + (["--catalog", str(catalog)] if catalog else [])


def expected_answers(workload: workloads.Workload) -> dict[str, check.Expected]:
    answers = check.expected_builtins(workload.system)
    p = workload.params
    if workload.name == "adversarial":
        answers["star"] = check.expected_star(workload.system, p["star_leaves"])
        answers["chain"] = check.expected_chain(p["chain_edges"], p["dag_width"], p["dag_depth"])
    for name, (_, edges) in workload.patterns.items():
        if workload.name == "many-patterns":
            if workloads.skeleton_of(name) in workloads.COMPLETE:
                answers[name] = check.Expected(verdict="complete")
            else:
                answers[name] = check.Expected(min_level=len(edges) - 1)
    return answers


def workload_verifier(workload: workloads.Workload, pinned: str | None) -> Verifier:
    patterns = {**check.BUILTINS, **{n: e for n, (_, e) in workload.patterns.items()}}
    return Verifier(workload.system, patterns, expected_answers(workload), pinned)


def golden_checks(main, pins: dict) -> list[Verifier]:
    """Run the sample model in JSON and text form against the golden answers."""
    system = check.read_model(SAMPLE.read_text(encoding="utf-8"))
    expected = {name: check.Expected(*answer) for name, answer in GOLDEN.items()}
    as_json = Verifier(system, check.BUILTINS, expected, pins.get("sample/json"))
    as_text = Verifier(None, None, None, pins.get("sample/text"))
    for verifier, argv, label in (
        (as_json, ["detect", str(SAMPLE), "--format", "json"], "sample json"),
        (as_text, ["detect", str(SAMPLE)], "sample text"),
    ):
        _, code, out, err = invoke(main, argv)
        verifier.record(code, out, err, label)
    return [as_json, as_text]


def setup_seconds(catalog: Path | None, processes: int) -> tuple[list[float], list[float]]:
    """Set-up time in each of ``processes`` fresh interpreters, one at a time:
    (raw seconds, host-normalised seconds).

    One unmeasured process runs first so that bytecode caches exist, as they
    do for an installed package.
    """
    command = [sys.executable, str(BENCH / "child.py"), "setup", str(SRC)]
    command += [str(catalog)] if catalog else []
    raw, normalised = [], []
    before = reference_kernel()
    for i in range(processes + 1):
        done = subprocess.run(
            command, capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        after = reference_kernel()
        if i:
            raw.append(float(done.stdout))
            normalised.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return raw, normalised


def peak_rss(argv: list[str], work: Path, verifier: Verifier) -> float:
    """Peak RSS in MiB of one fresh process running the CLI with ``argv``.

    The child reports its own high-water mark: the rusage of a child
    started from this process would also count this process's pages, which
    it shares until exec.  Its output goes through the same checks as the
    in-process invocations.
    """
    out_path = work / "rss.out"
    with out_path.open("wb") as out:
        done = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "rss", str(SRC), *argv],
            stdout=out, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    *stderr, peak = done.stderr.splitlines() or [""]
    verifier.record(
        done.returncode, out_path.read_text(encoding="utf-8"), "\n".join(stderr), "fresh process"
    )
    # A child that fails is already counted; 0 keeps the result valid JSON.
    return float(peak.split()[-1]) / 1024 if peak.startswith("peak_rss_kib") else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it.

    With ten samples or fewer no percentile qualifies; the minimum is used.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[0], 0.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(main, argv, seconds: float, verifier: Verifier, tracer=None):
    """Closed loop of one invocation at a time for ``seconds`` seconds.

    With a tracer, invocations alternate between plain and traced, and only
    the plain ones are returned as timings.  Returns (raw seconds,
    host-normalised seconds, reference kernel times around them, stdout
    bytes of the last output).
    """
    raw: list[float] = []
    normalised: list[float] = []
    kernel = [reference_kernel()]
    output_bytes = 0
    deadline = time.perf_counter() + seconds
    traced_turn = False
    last = 0.0
    # Stop when the next invocation would likely end past the deadline, so a
    # run takes ``seconds`` rather than up to one invocation more.
    while not raw or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        if traced_turn:
            _, code, out, err = invoke(lambda a: tracer.call(main, a), argv)
        else:
            elapsed, code, out, err = invoke(main, argv)
            kernel.append(reference_kernel())
            raw.append(elapsed)
            normalised.append(elapsed * 2 * REFERENCE_S / (kernel[-2] + kernel[-1]))
        last = time.perf_counter() - start
        verifier.record(code, out, err, "traced" if traced_turn else "timed")
        output_bytes = len(out.encode("utf-8"))
        traced_turn = tracer is not None and not traced_turn
    if tracer is not None and not tracer.requests:
        _, code, out, err = invoke(lambda a: tracer.call(main, a), argv)
        verifier.record(code, out, err, "traced")
    return raw, normalised, kernel, output_bytes


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dpdetect" / "__init__.py").is_file():
        print(f"bench: dpdetect sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import dpdetect.cli

    cli_main = dpdetect.cli.main
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    environment = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "platform": platform.platform(), "commit": commit(),
    }
    workload = workloads.generate(args.workload, args.seed, args.size)
    environment["params"] = workload.params
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        model, catalog = workload.write(work)
        argv = detect_argv(model, catalog)
        golden = golden_checks(cli_main, pins)
        verifier = workload_verifier(workload, pins.get(f"{args.workload}/{args.size}/{args.seed}"))
        notes = {}
        samples: dict[str, list[float]] = {}
        _, code, out, err = invoke(cli_main, argv)  # warm-up: lazy imports, first-call costs
        verifier.record(code, out, err, "warm-up")
        if args.trace:
            import spans

            tracer = spans.Tracer()
            plain, _, _, output_bytes = measure(cli_main, argv, args.seconds, verifier, tracer)
            metrics = spans.per_layer(tracer, output_bytes, plain)
            samples["plain_s"] = plain
            tracer.write(out_dir / f"{args.workload}.spans.jsonl")
            notes["trace.overhead_s"] = f"traced minus plain median, {len(tracer.requests)} traced"
        else:
            setup_raw, setup = setup_seconds(catalog, SETUP_PROCESSES)
            rss = peak_rss(argv, work, verifier)
            wall_raw, wall, kernel, _ = measure(cli_main, argv, args.seconds, verifier)
            samples = {"wall_s": wall_raw, "wall_s_normalised": wall, "kernel_s": kernel,
                       "setup_s": setup_raw, "setup_s_normalised": setup}
            tail_value, tail_pct = tail(wall)
            raw_tail, _ = tail(wall_raw)
            metrics = {
                "wall_s": statistics.median(wall),
                "wall_s_tail": tail_value,
                "setup_s": statistics.median(setup),
                "peak_rss_mib": rss,
            }
            notes = {
                "wall_s": f"median of {len(wall)} invocations; raw {statistics.median(wall_raw):.6g} s",
                "wall_s_tail": f"p{tail_pct:.0f} of {len(wall)} samples; raw {raw_tail:.6g} s",
                "setup_s": f"median of {len(setup)} fresh processes; raw {statistics.median(setup_raw):.6g} s",
                "peak_rss_mib": "one fresh process, one invocation",
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verifiers = [*golden, verifier]
    attempted = sum(v.attempted for v in verifiers)
    failed = sum(v.failed for v in verifiers)
    problems = [p for v in verifiers for p in v.problems]
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**environment, **result, "notes": notes, "samples": samples, "problems": problems}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(" ".join(f"{k}={environment[k]}" for k in environment if k != "params"))
    print(f"params {json.dumps(workload.params)}")
    for name, value in metrics.items():
        print(f"{name:<26} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"{'error_rate':<26} {failed / attempted:>14.6g} {'ratio':<6} {failed} failed of {attempted} attempted")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


def _units() -> dict[str, str]:
    """Metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

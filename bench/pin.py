"""Pin the SHA-256 of ``dpdetect detect`` stdout in ``pins.json``.

Covers the golden sample (JSON and text) and every workload at both sizes
for seeds 0-31.  Every output is checked before it is pinned.  Run from the
repository root, at the commit whose output is the reference:

    python3 bench/pin.py
"""

import hashlib
import json
import shutil
import sys

import run
import workloads

SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import dpdetect.cli

    cli_main = dpdetect.cli.main
    pins = {}
    for key, argv in (
        ("sample/json", ["detect", str(run.SAMPLE), "--format", "json"]),
        ("sample/text", ["detect", str(run.SAMPLE)]),
    ):
        _, code, out, err = run.invoke(cli_main, argv)
        if code != 0:
            sys.exit(f"{key}: exit {code}: {err}")
        pins[key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    for verifier in run.golden_checks(cli_main, pins):
        if verifier.failed:
            sys.exit("\n".join(verifier.problems))
    for name in workloads.NAMES:
        for size in ("smoke", "full"):
            for seed in SEEDS:
                workload = workloads.generate(name, seed, size)
                work = run.ROOT / ".bench_work" / f"pin-{name}-{size}-{seed}"
                try:
                    model, catalog = workload.write(work)
                    _, code, out, err = run.invoke(cli_main, run.detect_argv(model, catalog))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                verifier = run.workload_verifier(workload, None)
                verifier.record(code, out, err, f"{name}/{size}/{seed}")
                if verifier.failed:
                    sys.exit("\n".join(verifier.problems))
                pins[f"{name}/{size}/{seed}"] = verifier.first
                print(name, size, seed, verifier.first, flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

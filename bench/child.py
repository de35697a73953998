"""Fresh-process probes, run one at a time by ``run.py``.

    python3 bench/child.py setup <src dir> [<catalog path>]
        Prints the seconds taken to import ``dpdetect.cli`` and load the
        catalog (built-ins only when no path is given): the work a
        ``dpdetect detect`` process pays before its first detection.

    python3 bench/child.py rss <src dir> <dpdetect arguments...>
        Runs the dpdetect CLI once, exits with its code, and ends stderr with
        ``peak_rss_kib <n>``, this process's resident-set high-water mark.
"""

import sys
import time


def _peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    start = time.perf_counter()
    mode, src, *rest = sys.argv[1:]
    sys.path.insert(0, src)
    import dpdetect.cli

    if mode == "setup":
        catalog = dpdetect.cli.load_catalog(rest[0] if rest else None)
        print(repr(time.perf_counter() - start))
    else:
        code = dpdetect.cli.main(rest)
        sys.stdout.flush()
        print(f"peak_rss_kib {_peak_rss_kib()}", file=sys.stderr)
        sys.exit(code)

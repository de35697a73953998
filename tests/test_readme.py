"""The README's library snippet runs as written, and its key entry points
name every exported function."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import dpdetect

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"^```python\n(.*?)^```$", readme, re.M | re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "partial 2 3"


def test_key_entry_points_name_every_exported_function():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    entry_points = re.search(r"^Key entry points:(.*?)\n\n", readme, re.M | re.S).group(1)
    functions = [name for name in dpdetect.__all__ if inspect.isfunction(getattr(dpdetect, name))]
    assert "detect" in functions
    assert [name for name in functions if f"`{name}`" not in entry_points] == []

"""Each demo script prints exactly its pinned output, and so does the
README's library quick start wherever its comments give the output."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_pinned(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, check=True)
    expected = (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
    assert run.stdout == expected


def test_readme_quick_start_prints_what_its_comments_say():
    # each print of the block prints one line; a comment holding "..."
    # abbreviates its line and is not compared
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    printed = [re.fullmatch(r"print\(.*\)\s+#\s*(.*)", line)
               for line in block.splitlines() if line.startswith("print(")]
    assert printed and all(printed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {"__name__": "quick_start"})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(printed)
    pinned = [(m.group(1), line) for m, line in zip(printed, lines) if "..." not in m.group(1)]
    assert len(pinned) == 3
    for want, got in pinned:
        assert got == want

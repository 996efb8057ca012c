"""The README's code runs as written."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import qsearch

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_loads_no_scipy() -> None:
    section = README.read_text().split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsearch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = block + "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

"""Every fenced ``python`` block of the README runs as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (_ROOT / "README.md").read_text(), re.M | re.S
)


def test_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_block_runs(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr

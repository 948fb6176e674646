"""README examples run as written."""

import os
import re
import shlex
import subprocess
import sys

import pytest

from conftest import child_env
from pfzeros.oracle import brute_force_Z

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _section_code(heading, language):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _cli_examples():
    """Each `pfzeros ...` command of the CLI section, continuation lines joined."""
    code = _section_code("CLI", "bash").replace("\\\n", " ")
    return [shlex.split(line) for line in code.splitlines() if line.startswith("pfzeros ")]


def test_library_quick_start():
    namespace = {}
    exec(_section_code("Library quick start", "python"), namespace)
    expected = abs(brute_force_Z(namespace["model"])) ** 2
    assert namespace["z2"] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[argv.index("--task") + 1])
def test_cli_example(tmp_path, argv):
    proc = subprocess.run([sys.executable, "-m", "pfzeros", *argv[1:]], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr

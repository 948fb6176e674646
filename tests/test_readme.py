"""README examples run as written."""

import os
import re

import pytest

from pfzeros.oracle import brute_force_Z

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    expected = abs(brute_force_Z(namespace["model"])) ** 2
    assert namespace["z2"] == pytest.approx(expected, rel=1e-10)

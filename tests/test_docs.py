"""The package doctest and the README's library quick start run as written."""

import contextlib
import doctest
import io
import re
from pathlib import Path

import modembed

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_doctest_passes():
    results = doctest.testmod(modembed)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_quick_start_prints_the_two_triangles():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "[1 1 1 0 0 0]\n"

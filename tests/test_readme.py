"""The README's library example runs as printed, so a renamed or removed name fails here."""

import re
from pathlib import Path

from gasket_fgf.constants import hurst_from_s

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the example prints the exact variogram slope, within the 7c band of 2H
    assert abs(float(capsys.readouterr().out) - 2 * hurst_from_s(0.5)) <= 0.1

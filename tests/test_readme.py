"""The README's Python session runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_api_session_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    # it prints the worst relative gap and the two drifts of a Born pipeline run
    assert len([float(word) for word in capsys.readouterr().out.split()]) == 3
    assert namespace["report"].sup_relative_error < 1e-2

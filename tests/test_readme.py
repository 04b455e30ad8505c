"""The README's documented library use runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    result, truth = namespace["result"], namespace["truth"]
    stop_reason, rre = capsys.readouterr().out.split()
    assert stop_reason == result.stop_reason
    assert float(rre) < 1.0
    assert result.u.shape == truth.shape

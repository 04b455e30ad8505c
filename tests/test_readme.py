"""The README's documented library and command-line use runs as written."""

import json
import re
from pathlib import Path

from dyntv import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def library_use_block():
    return re.search(r"```python\n(.*?)```", readme_section("Library use"), re.S).group(1)


def test_readme_library_use_runs(capsys):
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    result, truth = namespace["result"], namespace["truth"]
    stop_reason, rre = capsys.readouterr().out.split()
    assert stop_reason == result.stop_reason
    assert float(rre) < 1.0
    assert result.u.shape == truth.shape


def test_readme_example_config_runs(tmp_path):
    example = re.search(r"```json\n(.*?)```", readme_section("Command-line use"), re.S)
    cfg = json.loads(example.group(1))
    cfg["solver"]["max_iters"] = 3  # every key is read before the solve starts
    path = tmp_path / "example.json"
    path.write_text(json.dumps(cfg))
    assert cli.main_reconstruct(["--config", str(path), "--out", str(tmp_path / "run")]) == 0


def table_keys(table):
    """Every key of a config key table and of its sub-tables."""
    for key, kinds in table.items():
        yield key
        for kind in kinds if isinstance(kinds, tuple) else (kinds,):
            kind = kind[0] if isinstance(kind, list) else kind
            if isinstance(kind, dict):
                yield from table_keys(kind)


def test_readme_names_every_config_key():
    named = set(re.findall(r"`(\w+)`", readme_section("Command-line use")))
    tables = [cli.CONFIG_KEYS, *cli.FORWARD_KEYS.values()]
    assert {key for table in tables for key in table_keys(table)} <= named

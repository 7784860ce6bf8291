"""The README's model table lists exactly the models of the registry, its
config key tables state exactly the rows of ``cli.KEYS``, and its example
config loads under those tables."""

import re
from pathlib import Path

import pytest

from casimetry import cli
from casimetry.lifshitz import MODELS

README = Path(__file__).resolve().parents[1] / "README.md"
TYPES = {float: "number", int: "integer", str: "text", cli._list: "list",
         cli._path: "path"}


def section(title):
    return README.read_text().split(f"\n{title}\n", 1)[1].split("\n#", 1)[0]


def test_model_table_matches_registry():
    text = README.read_text()
    body = text.split("## The six reflection models", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([a-z]+)` +\|", body, flags=re.MULTILINE)
    assert tuple(keys) == tuple(MODELS)


def shown(default):
    """A default as the README's tables write it."""
    if default is cli._REQUIRED:
        return "required"
    if default is None:
        return "—"
    if isinstance(default, tuple):
        return ", ".join(default)
    return default if isinstance(default, str) else f"{default:g}"


@pytest.mark.parametrize("command", cli.KEYS)
def test_key_table_matches_cli_keys(command):
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \| (.+?) \|$",
                      section(f"#### `{command}`"), flags=re.MULTILINE)
    written = {key: (kind, check, default) for key, kind, check, default in rows}
    assert len(written) == len(rows)
    assert written == {key: (TYPES[parse], "—" if check is None else check[1],
                             shown(default))
                       for key, (parse, check, default) in cli.KEYS[command].items()}


@pytest.mark.parametrize("command", ["exclusion", "constraints"])
def test_example_config_loads_under_the_key_tables(tmp_path, command):
    example = section("## Command line").split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "run.ini"
    ini.write_text(example)
    cfg = cli.load_run_config(ini, command)
    assert cfg.values and set(cfg.values) <= {k.lower() for k in cli.KEYS[command]}

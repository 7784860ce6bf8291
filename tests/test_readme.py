"""The README's model table lists exactly the models of the registry."""

import re
from pathlib import Path

from casimetry.lifshitz import MODELS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_model_table_matches_registry():
    text = README.read_text()
    section = text.split("## The six reflection models", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([a-z]+)` +\|", section, flags=re.MULTILINE)
    assert tuple(keys) == tuple(MODELS)

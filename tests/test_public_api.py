"""The README's "Public API" list is the package's public surface."""

import inspect
import re
from pathlib import Path

import erasurekit

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_api() -> dict[str, list[str]]:
    """Module -> names, from the lines "- `module`: `name`, ..." of the Public API section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        match = re.fullmatch(r"- `(\w+)`: (.*)", line)
        if match:
            listed[match[1]] = re.findall(r"`(\w+)`", match[2])
    return listed


def test_readme_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(erasurekit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    listed = [name for names in _readme_api().values() for name in names]
    assert len(listed) == len(set(listed))
    assert set(listed) == public


def test_each_name_is_listed_under_its_module():
    for module, names in _readme_api().items():
        for name in names:
            assert getattr(erasurekit, name).__module__ == f"erasurekit.{module}", name

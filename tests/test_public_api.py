"""The README's "Public API" list is the package's public surface, its
"Presets" list is the preset table, and its quickstart runs as its comments say."""

import ast
import inspect
import json
import re
from pathlib import Path

import numpy as np

import erasurekit
from erasurekit.channels import PRESETS
from erasurekit.cli import _resolve_channel, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_api() -> dict[str, list[str]]:
    """Module -> names, from the lines "- `module`: `name`, ..." of the Public API section."""
    listed = {}
    for line in _section("Public API").splitlines():
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


def _readme_presets() -> dict[str, dict[str, tuple]]:
    """Preset -> {parameter: (default, flag)}, from the lines
    "- `preset`: `parameter` = `default` (`--flag`), ..." of the Presets section."""
    listed = {}
    for line in _section("Presets").splitlines():
        match = re.fullmatch(r"- `(\w+)`: (.*)", line)
        if match:
            params = re.findall(r"`(\w+)` = `([^`]+)` \(`--(\w+)`\)", match[2])
            listed[match[1]] = {k: (json.loads(v), flag) for k, v, flag in params}
    return listed


def test_readme_lists_each_preset_with_its_defaults_and_flags():
    listed = _readme_presets()
    assert list(listed) == list(PRESETS)
    for name, (defaults, _) in PRESETS.items():
        assert {k: default for k, (default, _) in listed[name].items()} == defaults, name
        for k, (default, flag) in listed[name].items():
            value = 3 if isinstance(default, int) else 0.25
            args = build_parser().parse_args(["analyze", "--preset", name, f"--{flag}", str(value)])
            assert _resolve_channel(args)[1]["params"][k] == value, (name, flag)


def _quickstart_values() -> tuple[dict[str, object], dict[str, object]]:
    """Run the "Library quickstart" block: its namespace, and each bare expression's value
    keyed by its source."""
    code = _section("Library quickstart").split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(code, node.value)
            values[source] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return namespace, values


def test_readme_quickstart_gives_the_values_its_comments_state():
    namespace, values = _quickstart_values()
    assert abs(values["ek.entanglement_fidelity(channel, rho)"] - 0.5) < 1e-12
    assert abs(values["ek.assisted_fidelity(channel, rho)"] - 0.5) < 1e-12
    assert abs(values["ek.assisted_fidelity(channel, rho, meas)"] - 1.0) < 1e-12
    assert values['ek.channels_equal(corrected, ek.preset("identity"))'] is True

    verdict = namespace["verdict"]
    assert verdict.is_random_unitary and len(verdict.witness) == 2
    found = set()
    for weight, u in verdict.witness:
        assert abs(weight - 0.5) < 1e-12
        # u is I or Z up to a phase: |Tr P^dag u| = 2 for exactly that P
        for name, p in (("I", np.eye(2)), ("Z", np.diag([1.0, -1.0]))):
            if abs(abs(np.trace(p.conj().T @ u)) - 2) < 1e-9:
                found.add(name)
    assert found == {"I", "Z"}

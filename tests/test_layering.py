"""The stack imports downward only.

``repro.rdf``, ``repro.net`` and ``repro.solid`` are the substrate the
engine runs over; they must not reach up into the benchmark generator,
the engine or the service — not even through an import inside a
function, which is how such a dependency usually sneaks in.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
LOWER = ("rdf", "net", "solid")
UPPER = {"repro.solidbench", "repro.ltqp", "repro.service"}


def imported_modules(source: str, package: str):
    """``(line, absolute module)`` for every import in ``source`` — a
    module of ``package`` — nested ones included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield node.lineno, module


def is_upper(module: str) -> bool:
    return ".".join(module.split(".")[:2]) in UPPER


def test_the_scan_resolves_relative_imports_inside_functions():
    source = "import repro.rdf\n\ndef f():\n    from ..ltqp.engine import X\n    from . import pod\n"
    assert list(imported_modules(source, "repro.solid")) == [
        (1, "repro.rdf"),
        (4, "repro.ltqp.engine"),
        (5, "repro.solid"),
    ]
    assert [is_upper(module) for _, module in imported_modules(source, "repro.solid")] == [
        False,
        True,
        False,
    ]


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layers_import_nothing_above_them(layer):
    upward = []
    for path in sorted((SRC / layer).rglob("*.py")):
        package = ".".join(["repro", *path.relative_to(SRC).parent.parts])
        for line, module in imported_modules(path.read_text(encoding="utf-8"), package):
            if is_upper(module):
                upward.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert upward == []

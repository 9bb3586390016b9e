"""The package trains on hand-derived gradients: no autodiff in ``src``.

The reverse-mode graph lives in ``tests/nn/tensor.py`` as the oracle
the trainers are checked against.  This guard parses every module of
``src/repro`` and fails if one imports from ``tests`` or from a
``repro.nn.tensor`` module, so the oracle cannot creep back into the
product.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(
    path: pathlib.Path, src: pathlib.Path
) -> Iterator[Tuple[int, str]]:
    """``(line, absolute module name)`` of every import in *path*;
    ``from package import name`` yields ``package.name`` as well, so
    importing a submodule by name is seen too."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = _module_name(path, src).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _forbidden(module: str) -> bool:
    return (
        module == "tests"
        or module.startswith("tests.")
        or module == "repro.nn.tensor"
        or module.startswith("repro.nn.tensor.")
    )


def violations(src: pathlib.Path = SRC) -> List[str]:
    """Every import statement under ``src/repro`` that reaches a
    forbidden module, one line each."""
    found: List[str] = []
    for path in sorted((src / "repro").rglob("*.py")):
        for line, module in imported_modules(path, src):
            problem = f"{path.relative_to(src)}:{line}"
            if _forbidden(module) and not (found and found[-1].startswith(problem + ":")):
                found.append(f"{problem}: imports {module}")
    return found


def test_no_src_module_imports_the_oracle():
    problems = violations()
    assert problems == [], "\n".join(problems)


def test_no_tensor_module_in_src():
    assert not (SRC / "repro" / "nn" / "tensor.py").exists()


def test_guard_sees_relative_and_absolute_imports(tmp_path):
    package = tmp_path / "repro" / "nn"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("from . import tensor\n")
    (package / "layers.py").write_text("from .tensor import Tensor\n")
    (tmp_path / "repro" / "models.py").write_text(
        "import numpy\nfrom .nn import layers\nfrom tests.nn import tensor\n"
    )
    problems = violations(tmp_path)
    flagged = sorted(p.split(": ")[0] for p in problems)
    assert flagged == [
        "repro/models.py:3",
        "repro/nn/__init__.py:1",
        "repro/nn/layers.py:1",
    ], problems

"""Public API surface: exports resolve and stay importable."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent


SUBPACKAGES = [
    "repro.analysis",
    "repro.characterization",
    "repro.cluster",
    "repro.control",
    "repro.core",
    "repro.datacenter",
    "repro.exec",
    "repro.faults",
    "repro.gpu",
    "repro.models",
    "repro.obs",
    "repro.server",
    "repro.telemetry",
    "repro.training",
    "repro.workloads",
]


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_root_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (
            f"{module_name}.{name} in __all__ but missing"
        )


def test_headline_objects_reachable_from_root():
    # A user should be able to run the headline experiment from the root
    # namespace alone.
    assert repro.DualThresholdPolicy
    assert repro.EvaluationHarness
    assert repro.get_model("BLOOM-176B").n_inference_gpus == 8
    assert repro.A100_80GB.tdp_w == 400.0
    assert repro.POLCA_DEFAULTS.t1 == 0.80


def test_docstrings_on_public_api():
    """Every public item carries documentation."""
    for name in repro.__all__:
        if name == "__version__":
            continue
        item = getattr(repro, name)
        assert getattr(item, "__doc__", None), f"{name} lacks a docstring"


#: Re-export hubs whose ``__all__`` must list only names someone uses.
SURFACES = ("repro", "repro.obs", "repro.exec")


def _record_uses(tree, found):
    """Add to ``found[pkg]`` each name imported or read through ``pkg``."""
    bound = {}  # local name -> the dotted module it refers to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in found:
                found[node.module].update(a.name for a in node.names)
            for alias in node.names:
                module = f"{node.module}.{alias.name}"
                if module in found:
                    bound[alias.asname or alias.name] = module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bound[root] = root
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            continue
        dotted = bound[node.id].split(".") + chain[::-1]
        for package in found:
            parts = package.split(".")
            if dotted[:len(parts)] == parts and len(dotted) > len(parts):
                found[package].add(dotted[len(parts)])


def test_reexport_surfaces_list_only_used_names():
    """Every name in a hub's ``__all__`` is imported through that hub
    by code in the repo or by a documented example, so the trimmed
    surfaces do not regrow."""
    found = {package: set() for package in SURFACES}
    for folder in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((REPO / folder).rglob("*.py")):
            _record_uses(ast.parse(path.read_text(encoding="utf-8")), found)
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md"):
        text = (REPO / doc).read_text(encoding="utf-8")
        for block in re.findall(r"```\w*\n(.*?)```", text, re.S):
            try:
                _record_uses(ast.parse(block), found)
            except SyntaxError:
                continue  # shell sessions, output listings
    for package in SURFACES:
        exported = set(importlib.import_module(package).__all__)
        unused = sorted(exported - found[package])
        assert not unused, (
            f"{package}.__all__ lists names nothing imports through "
            f"{package}: {unused}"
        )

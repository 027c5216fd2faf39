"""The documentation must not rot: links resolve, fenced examples run.

Wraps ``tools/check_docs.py`` (the same checker CI's docs job runs) so a
plain ``pytest`` run catches broken docs before they land.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_docs_exist(check_docs):
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "reproduction.md").exists()


def test_all_docs_pass_the_checker(check_docs):
    problems = []
    for path in check_docs.DOC_FILES:
        problems.extend(check_docs.check_links(path))
        problems.extend(check_docs.run_examples(path))
    assert problems == []


def test_checker_catches_broken_links(check_docs, tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see [nothing](missing.md) and [gone](page.md#no-such-heading)\n")
    problems = check_docs.check_links(page)
    assert len(problems) == 2


def test_checker_catches_failing_examples(check_docs, tmp_path):
    page = tmp_path / "page.md"
    page.write_text("```python\n>>> 1 + 1\n3\n```\n")
    problems = check_docs.run_examples(page)
    assert len(problems) == 1


def test_checker_catches_stale_imports(check_docs, tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```python\n"
        "from repro.grid import GridSimulator, PoissonArrivalModel\n"
        "from repro.traces import generate_trace\n"
        "import repro.grid.workload\n"
        "jobs = PoissonArrivalModel().generate(rng=7)\n"
        "```\n"
    )
    problems = check_docs.run_examples(page)
    assert len(problems) == 2
    assert "PoissonArrivalModel from repro.grid" in problems[0]
    assert "repro.grid.workload" in problems[1]


@pytest.mark.parametrize(
    "path",
    sorted((REPO_ROOT / "examples").glob("*.py")),
    ids=lambda path: path.stem,
)
def test_example_imports(path, monkeypatch):
    """Every example module loads (its imports resolve) without running main()."""
    from repro.core import local_search
    from repro.heuristics import base as heuristics_base

    # Examples may register operators at import; keep the registries as
    # they were for the rest of the session.
    monkeypatch.setattr(heuristics_base, "_REGISTRY", dict(heuristics_base._REGISTRY))
    monkeypatch.setattr(local_search, "_REGISTRY", dict(local_search._REGISTRY))
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_anchor_slugs_match_github_rules(check_docs):
    assert check_docs.github_slug("Engine throughput trajectory") == (
        "engine-throughput-trajectory"
    )
    assert check_docs.github_slug("The SoA `BatchEvaluator` data layout") == (
        "the-soa-batchevaluator-data-layout"
    )

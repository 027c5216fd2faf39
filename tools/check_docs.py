#!/usr/bin/env python
"""Documentation checker: internal links and runnable fenced examples.

Guards ``docs/*.md`` (and the README) against rot:

* **links** — every relative markdown link must point at an existing file,
  and every ``#anchor`` (own-page or cross-page) must match a heading;
* **examples** — every fenced ```python block containing ``>>>`` prompts is
  executed with :mod:`doctest`.  Blocks within one file share a namespace,
  in order, so later examples can build on earlier ones exactly as a reader
  would run them.  The other python blocks are not run (they may lean on
  names a reader supplies), but every ``repro`` name they import must
  still exist.

Run from the repository root (CI does)::

    python tools/check_docs.py

Exits non-zero listing every failure; prints a one-line summary otherwise.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links and examples are checked.
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")


def _label(path: Path) -> str:
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_anchors(markdown: str) -> set[str]:
    return {github_slug(match) for match in _HEADING.findall(markdown)}


def check_links(path: Path) -> list[str]:
    """Problems with the relative links of one markdown file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for target in _LINK.findall(text):
        if target.startswith(_EXTERNAL):
            continue
        base, _, anchor = target.partition("#")
        destination = (path.parent / base).resolve() if base else path
        if not destination.exists():
            problems.append(f"{_label(path)}: broken link -> {target}")
            continue
        if anchor and destination.suffix == ".md":
            anchors = heading_anchors(destination.read_text(encoding="utf-8"))
            if anchor not in anchors:
                problems.append(
                    f"{_label(path)}: missing anchor -> {target}"
                )
    return problems


def _missing_imports(name: str, block: str) -> list[str]:
    """The ``repro`` imports of one python block that no longer resolve."""
    try:
        tree = ast.parse(block)
    except SyntaxError as error:
        return [f"{name}: python block does not parse: {error}"]
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, attribute in imports:
            if module.partition(".")[0] != "repro":
                continue
            try:
                loaded = importlib.import_module(module)
                if attribute not in (None, "*") and not hasattr(loaded, attribute):
                    # `from package import submodule` loads the submodule.
                    importlib.import_module(f"{module}.{attribute}")
            except ImportError:
                target = module if attribute is None else f"{attribute} from {module}"
                problems.append(f"{name}: stale import: {target}")
    return problems


def run_examples(path: Path) -> list[str]:
    """Doctest failures and stale imports of the fenced python blocks of one file."""
    text = path.read_text(encoding="utf-8")
    name = _label(path)
    results: list[str] = []
    blocks = []
    for block in _FENCED_PYTHON.findall(text):
        if ">>>" in block:
            blocks.append(block)
        else:
            results.extend(_missing_imports(name, block))
    if not blocks:
        return results
    source = "\n".join(blocks)
    parser = doctest.DocTestParser()
    test = parser.get_doctest(source, {}, name, name, 0)

    class _Collector(doctest.DocTestRunner):
        def report_failure(self, out, test, example, got):  # noqa: N802
            results.append(
                f"{name}: example failed\n  >>> {example.source.strip()}\n"
                f"  expected: {example.want.strip()!r}\n  got:      {got.strip()!r}"
            )

        def report_unexpected_exception(self, out, test, example, exc_info):  # noqa: N802
            results.append(
                f"{name}: example raised\n  >>> {example.source.strip()}\n"
                f"  {exc_info[0].__name__}: {exc_info[1]}"
            )

    _Collector(verbose=False).run(test, clear_globs=False)
    return results


def main() -> int:
    problems: list[str] = []
    for path in DOC_FILES:
        if not path.exists():
            problems.append(f"missing documentation file: {path}")
            continue
        problems.extend(check_links(path))
        problems.extend(run_examples(path))
    if problems:
        print("\n".join(problems))
        return 1
    print(f"docs OK: {len(DOC_FILES)} files, links and fenced examples verified")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())

#!/usr/bin/env python
"""Dependency-free validator for the documentation site.

Sphinx only runs in the CI ``docs`` job (it is not a runtime dependency),
so this script checks the structural invariants a broken docs build would
trip over — with nothing beyond the standard library and docutils:

1. every ``.rst`` page parses cleanly (sphinx-specific directives/roles
   are registered as inert stubs first);
2. every ``toctree`` entry points at an existing page, and every page is
   reachable from the root toctree (no orphans);
3. every ``automodule``/``autoclass``/``autofunction`` target imports;
4. every ``literalinclude`` path resolves;
5. the public runtime surface (``run``, ``compile_tasks``, ``Sweep``,
   ``Backend``, ``ExecutionPlan``, ``configure``) carries real
   docstrings with documented arguments.

Run directly (``python docs/check_docs.py``) or via the test suite
(``tests/test_docs.py``). Exit code 0 = healthy.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import List, Set, Tuple

DOCS = Path(__file__).resolve().parent
ROOT = DOCS.parent

_DIRECTIVE = re.compile(r"^\s*\.\.\s+([\w:-]+)::\s*(.*)$")

#: Symbols whose docstrings form the documented public contract; each must
#: exist, be non-trivially documented, and (for callables) describe its
#: arguments.
PUBLIC_SURFACE = [
    ("repro.runtime.run", "run"),
    ("repro.runtime.run", "configure"),
    ("repro.runtime.plan", "compile_tasks"),
    ("repro.runtime.plan", "ExecutionPlan"),
    ("repro.runtime.sweep", "Sweep"),
    ("repro.runtime.sweep", "SweepResult"),
    ("repro.runtime.backends", "Backend"),
    ("repro.runtime.distributed", "DistributedBackend"),
    ("repro.runtime.plan", "shard_plans"),
    ("repro.runtime.task", "Task"),
    ("repro.runtime.pipeline", "Pipeline"),
]


def rst_pages() -> List[Path]:
    return sorted(p for p in DOCS.rglob("*.rst") if "_build" not in p.parts)


def scan_directives(page: Path) -> List[Tuple[str, str]]:
    """All ``(directive, argument)`` pairs in a page, in order."""
    found = []
    for line in page.read_text().splitlines():
        match = _DIRECTIVE.match(line)
        if match:
            found.append((match.group(1), match.group(2).strip()))
    return found


def toctree_entries(page: Path) -> List[str]:
    """Document names listed under the page's ``toctree`` directives."""
    entries = []
    lines = page.read_text().splitlines()
    index = 0
    while index < len(lines):
        match = _DIRECTIVE.match(lines[index])
        if match and match.group(1) == "toctree":
            index += 1
            while index < len(lines):
                line = lines[index]
                if line.strip() and not line.startswith((" ", "\t")):
                    break
                entry = line.strip()
                if entry and not entry.startswith(":"):
                    entries.append(entry)
                index += 1
        else:
            index += 1
    return entries


def check_rst_syntax(errors: List[str]) -> None:
    """Parse every page with docutils; report parse-level errors."""
    try:
        from docutils import nodes
        from docutils.core import publish_doctree
        from docutils.parsers.rst import directives, roles
        from docutils.parsers.rst.directives.misc import Include
    except ImportError:  # docutils is optional; the CI docs job still gates
        print("  (docutils unavailable; skipping rst syntax parse)")
        return

    class _Inert(Include):
        """Swallow a sphinx-only directive and its body."""

        required_arguments = 0
        optional_arguments = 1
        final_argument_whitespace = True
        option_spec = {}
        has_content = True

        def run(self):
            return []

    for name in (
        "toctree", "automodule", "autoclass", "autofunction", "autosummary",
        "literalinclude", "currentmodule", "module",
    ):
        directives.register_directive(name, _Inert)
    for role in ("class", "func", "mod", "meth", "attr", "data", "obj",
                 "doc", "ref", "term", "exc"):
        roles.register_local_role(
            role, lambda r, t, text, l, i, options={}, content=[]:
            ([nodes.literal(text, text)], [])
        )

    for page in rst_pages():
        doctree = publish_doctree(
            page.read_text(),
            source_path=str(page),
            settings_overrides={
                "report_level": 2,  # warnings and up
                "halt_level": 5,
                "warning_stream": False,
            },
        )
        for problem in doctree.findall(nodes.system_message):
            if problem["level"] >= 2:  # sphinx -W fails on warnings, not INFO
                errors.append(f"{page.relative_to(ROOT)}: {problem.astext()}")


def check_toctrees(errors: List[str]) -> None:
    """Toctree targets exist; every page is reachable from index."""
    known: Set[str] = {
        str(p.relative_to(DOCS)).removesuffix(".rst") for p in rst_pages()
    }
    reachable: Set[str] = {"index"}
    for page in rst_pages():
        base = page.parent.relative_to(DOCS)
        for entry in toctree_entries(page):
            target = str(base / entry) if str(base) != "." else entry
            target = target.replace("\\", "/")
            if target not in known:
                errors.append(
                    f"{page.relative_to(ROOT)}: toctree entry {entry!r} has no page"
                )
            else:
                reachable.add(target)
    for orphan in sorted(known - reachable):
        errors.append(f"docs/{orphan}.rst is not reachable from any toctree")


def check_autodoc_targets(errors: List[str]) -> None:
    """Every automodule/autoclass/autofunction target must import."""
    for page in rst_pages():
        for directive, argument in scan_directives(page):
            if directive == "automodule":
                try:
                    importlib.import_module(argument)
                except Exception as exc:
                    errors.append(
                        f"{page.relative_to(ROOT)}: automodule {argument!r} "
                        f"failed to import: {exc}"
                    )
            elif directive in ("autoclass", "autofunction"):
                module_name, _, symbol = argument.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                    getattr(module, symbol)
                except Exception as exc:
                    errors.append(
                        f"{page.relative_to(ROOT)}: {directive} {argument!r} "
                        f"unresolvable: {exc}"
                    )


def check_literalincludes(errors: List[str]) -> None:
    for page in rst_pages():
        for directive, argument in scan_directives(page):
            if directive == "literalinclude":
                target = (page.parent / argument).resolve()
                if not target.is_file():
                    errors.append(
                        f"{page.relative_to(ROOT)}: literalinclude "
                        f"{argument!r} does not exist"
                    )


def check_public_docstrings(errors: List[str]) -> None:
    """The documented public surface has real, argument-level docstrings."""
    import inspect

    for module_name, symbol in PUBLIC_SURFACE:
        module = importlib.import_module(module_name)
        obj = getattr(module, symbol, None)
        if obj is None:
            errors.append(f"{module_name}.{symbol} is missing")
            continue
        doc = inspect.getdoc(obj) or ""
        if len(doc.strip()) < 40:
            errors.append(f"{module_name}.{symbol} has no substantive docstring")
            continue
        if callable(obj) and not inspect.isclass(obj):
            takes_args = any(
                p.name not in ("self", "cls")
                for p in inspect.signature(obj).parameters.values()
            )
            if takes_args and "Args:" not in doc and ":param" not in doc:
                errors.append(
                    f"{module_name}.{symbol} docstring documents no arguments"
                )


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    errors: List[str] = []
    checks = [
        ("rst syntax", check_rst_syntax),
        ("toctrees", check_toctrees),
        ("autodoc targets", check_autodoc_targets),
        ("literalinclude paths", check_literalincludes),
        ("public docstrings", check_public_docstrings),
    ]
    for label, check in checks:
        before = len(errors)
        check(errors)
        status = "ok" if len(errors) == before else f"{len(errors) - before} problem(s)"
        print(f"  {label:>20s}: {status}")
    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(f"docs healthy: {len(rst_pages())} pages")
    return 0


if __name__ == "__main__":
    sys.exit(main())

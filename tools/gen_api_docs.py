#!/usr/bin/env python3
"""Generate docs/api.md from the package's public surface.

Walks every ``repro`` module, lists its ``__all__`` (or public toplevel
names) with the first line of each docstring.  Deterministic output, so
``tests/test_api_docs.py`` can assert the committed file is current::

    python tools/gen_api_docs.py          # rewrite docs/api.md
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

__all__ = ["generate"]


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0].strip() if doc else ""
    return line


def _public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return sorted(names)


def generate() -> str:
    """Render the API reference as Markdown."""
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand;",
        "regenerate after changing any public API.",
        "",
    ]
    modules = [repro]
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda m: m.name,
    ):
        if ".harness.cli" in info.name or info.name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(info.name))

    for module in modules:
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        summary = _first_line(module)
        if summary:
            lines.append(summary)
            lines.append("")
        rows = []
        for name in _public_names(module):
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if inspect.ismodule(obj):
                continue
            # Only document items defined here (skip re-exports in
            # subpackage __init__; keep them in the top-level summary).
            defined_in = getattr(obj, "__module__", module.__name__)
            if (
                module.__name__ != "repro"
                and not module.__name__.endswith("__init__")
                and inspect.isclass(obj) or inspect.isfunction(obj)
            ):
                if defined_in != module.__name__ and module.__name__ != "repro":
                    continue
            kind = (
                "class"
                if inspect.isclass(obj)
                else "function"
                # a decorated function (e.g. memoized) is still a function
                if inspect.isfunction(inspect.unwrap(obj))
                else "data"
            )
            rows.append((name, kind, _first_line(obj)))
        if not rows:
            lines.append("(re-exports only)")
            lines.append("")
            continue
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        for name, kind, summary in rows:
            lines.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    out = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    out.write_text(generate())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

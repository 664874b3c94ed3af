#!/usr/bin/env python
"""Generate docs/API.md: a reference of every public item in the library.

Walks the ``repro`` package, collects each subpackage's ``__all__``
exports (plus top-level modules), and emits one markdown section per
module with the first docstring line of every class/function.

Run:  python tools/gen_api_docs.py            (rewrite docs/API.md)
      python tools/gen_api_docs.py --check    (exit 1 if docs/API.md is stale)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

OUT = ROOT / "docs" / "API.md"

HEADER = """# API reference

Generated by ``python tools/gen_api_docs.py`` — do not edit by hand.
One section per module; each entry shows the public item's signature (for
callables) and the first line of its docstring.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.splitlines()[0] if doc else "(undocumented)"


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe_module(module) -> list[str]:
    lines = []
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
        names = [
            n for n in names
            if getattr(getattr(module, n), "__module__", "").startswith("repro")
        ]
    for name in sorted(names):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.append(f"- **class `{name}`** — {first_line(obj)}")
            for mname, method in sorted(inspect.getmembers(obj, inspect.isfunction)):
                if mname.startswith("_") or method.__qualname__.split(".")[0] != obj.__name__:
                    continue
                lines.append(f"  - `{mname}{signature_of(method)}` — {first_line(method)}")
        elif inspect.isfunction(obj):
            lines.append(f"- `{name}{signature_of(obj)}` — {first_line(obj)}")
        elif not inspect.ismodule(obj):
            lines.append(f"- `{name}` — constant ({type(obj).__name__})")
    return lines


def render() -> str:
    """The full text of docs/API.md for the current source tree."""
    sections = [HEADER]
    packages = [repro] + [
        importlib.import_module(f"repro.{m.name}")
        for m in pkgutil.iter_modules(repro.__path__)
        if not m.name.startswith("_")
    ]
    for module in packages:
        doc = inspect.getdoc(module) or ""
        sections.append(f"\n## `{module.__name__}`\n")
        if doc:
            sections.append(doc.splitlines()[0] + "\n")
        entries = describe_module(module)
        if entries:
            sections.append("\n".join(entries) + "\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate docs/API.md.")
    parser.add_argument("--check", action="store_true",
                        help="compare instead of writing; exit 1 if docs/API.md is stale")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        name = OUT.relative_to(ROOT)
        if not OUT.exists() or OUT.read_text() != text:
            print(f"{name} is stale: run python tools/gen_api_docs.py", file=sys.stderr)
            return 1
        print(f"{name} is current")
        return 0
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

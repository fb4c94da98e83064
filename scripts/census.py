#!/usr/bin/env python
"""Function census: which functions under ``src/repro`` never run.

A pytest plugin records every code object executed from ``src/repro``
(all threads, via ``sys.setprofile``); the report lists the functions
that never ran, as ``file:line name``.  It finds deletion candidates --
it is not a gate: a function can be live yet unexercised by the suite.

    PYTHONPATH=src:scripts python -m pytest -q -p census --census=census.json
    PYTHONPATH=src:scripts python -m pytest -q -p census --census=census.json \\
        benchmarks/ --benchmark-only
    python scripts/census.py census.json

Records merge into the file, so several runs add up.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _key(code) -> str:
    return f"{Path(code.co_filename).resolve()}:{code.co_firstlineno}:{code.co_name}"


def pytest_addoption(parser) -> None:
    parser.addoption("--census", metavar="PATH", help="merge executed functions into PATH")


def pytest_configure(config) -> None:
    path = config.getoption("--census")
    if not path:
        return
    root, seen, known = str(SRC), set(), set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in known:
            known.add(code)
            if Path(code.co_filename).resolve().is_relative_to(root):
                seen.add(_key(code))

    config._census = (Path(path), seen)
    threading.setprofile(profile)
    sys.setprofile(profile)


def pytest_unconfigure(config) -> None:
    if not hasattr(config, "_census"):
        return
    sys.setprofile(None)
    threading.setprofile(None)
    path, seen = config._census
    if path.exists():
        seen |= set(json.loads(path.read_text()))
    path.write_text(json.dumps(sorted(seen), indent=0))


def functions(code):
    """Every function (not module, class body or lambda) nested in ``code``."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from functions(const)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="census files written by the plugin")
    args = parser.parse_args(argv)
    seen: set[str] = set()
    for record in args.records:
        seen |= set(json.loads(Path(record).read_text()))
    total, never = 0, []
    for source in sorted(SRC.rglob("*.py")):
        for code in functions(compile(source.read_text(), str(source.resolve()), "exec")):
            total += 1
            if _key(code) not in seen:
                never.append((source.relative_to(SRC.parent.parent), code))
    outside = [(f, c) for f, c in never if "repro/bench/" not in f.as_posix()]
    for file, code in never:
        print(f"{file}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}")
    print(f"{total} functions, {len(never)} never executed, "
          f"{len(outside)} of them outside src/repro/bench/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

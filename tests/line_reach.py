"""Executable lines of the ``trimarket`` package that no run reaches.

    PYTHONPATH=src python tests/line_reach.py tier1 [PYTEST_ARGS...]
    PYTHONPATH=src python tests/line_reach.py corpus
    PYTHONPATH=src python tests/line_reach.py both [PYTEST_ARGS...]
    PYTHONPATH=src python tests/line_reach.py count

``tier1`` runs pytest on ``tests/`` in this process, ``corpus`` runs
``solver_corpus.py dump`` into a temporary file, and ``both`` runs one
after the other; every thread runs under a line tracer that records the
lines executed in the package's modules.  The package is the
``trimarket`` found on the import path, and it is first imported under
the tracer, so its module-level lines count.  A line is executable when
some bytecode of its module maps to it (``co_lines``).  The report lists,
per module, each executable line that no line event reached, with its
source, then the counts by module and the total.  ``count`` traces
nothing: it prints each module's executable-line count, largest first,
then the total.

Child processes are not traced: a line that only a ``python -m
trimarket.cli`` child runs reads as unreached.  Tracing makes tier-1
several times slower.  Not collected by pytest (the file name does not
match test_*).
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
import threading
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _modules() -> dict[str, Path]:
    """Each module file of the package, by name, found without importing it."""
    spec = importlib.util.find_spec("trimarket")
    if spec is None or not spec.submodule_search_locations:
        sys.exit("trimarket is not importable; set PYTHONPATH")
    root = Path(list(spec.submodule_search_locations)[0])
    return {p.stem: p for p in sorted(root.glob("*.py"))}


def _executable(path: Path) -> set[int]:
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        # None marks bytecode with no line; 0, a module's entry before its first line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _trace(hits: dict[str, set[int]]):
    """A global trace function that records line events in the files of ``hits``."""

    def call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return call


def _tier1(args: list[str]) -> None:
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS), *args])
    print(f"tier-1 exit status {int(status)}")


def _corpus() -> None:
    sys.path.insert(0, str(TESTS))
    import solver_corpus

    with tempfile.TemporaryDirectory() as tmp:
        solver_corpus.dump(str(Path(tmp) / "corpus.json"))


def main(argv: list[str]) -> None:
    if not argv or argv[0] not in ("tier1", "corpus", "both", "count"):
        sys.exit(__doc__)
    modules = _modules()
    if argv[0] == "count":
        sizes = {name: len(_executable(path)) for name, path in modules.items()}
        for name, n in sorted(sizes.items(), key=lambda item: -item[1]):
            print(f"{name} {n}")
        print(f"total {sum(sizes.values())}")
        return
    hits = {str(path): set() for path in modules.values()}
    tracer = _trace(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if argv[0] in ("tier1", "both"):
            _tier1(argv[1:])
        if argv[0] in ("corpus", "both"):
            _corpus()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = {}
    for name, path in modules.items():
        missed = sorted(_executable(path) - hits[str(path)])
        counts[name] = len(missed)
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{name}.py:{line}: {source[line - 1].strip()}")
    print("unreached executable lines: "
          + ", ".join(f"{name} {n}" for name, n in counts.items() if n)
          + f"; total {sum(counts.values())}")


if __name__ == "__main__":
    main(sys.argv[1:])

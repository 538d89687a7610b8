"""No function in ``src/repro`` reads a global that nothing binds.

CI's ``ruff check`` selects the pyflakes rule for this (F821), but neither
ruff, pyflakes nor mypy is installed where the code is written, and a
missing ``import math`` in a branch no test enters (``mode="model"`` GER,
SYR and SYR2, for five PRs) is invisible to everything else.  The stdlib
``symtable`` knows how the compiler resolved every name; that is enough.
"""

import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULE_ATTRIBUTES = {"__file__", "__name__", "__doc__", "__package__",
                     "__spec__", "__builtins__", "__class__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def unbound_globals(path):
    """``(scope, name)`` for every name a function scope resolves globally
    that is neither bound at module level, a builtin nor a module
    attribute."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    scopes = list(_scopes(top))
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    # ``global x`` + assignment inside a function binds x at module level.
    bound |= {s.get_name() for t in scopes for s in t.get_symbols()
              if s.is_declared_global() and s.is_assigned()}
    known = bound | set(dir(builtins)) | MODULE_ATTRIBUTES
    return [(t.get_name(), s.get_name()) for t in scopes
            if t.get_type() == "function"
            for s in t.get_symbols()
            if s.is_global() and s.is_referenced()
            and s.get_name() not in known]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")),
    ids=lambda p: str(p.relative_to(SRC)))
def test_every_global_a_function_reads_is_bound(path):
    assert "import *" not in path.read_text()   # would blind the check
    assert unbound_globals(path) == []

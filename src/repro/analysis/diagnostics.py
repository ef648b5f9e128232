"""Diagnostic records emitted by the :mod:`repro.analysis` lint engine.

A diagnostic pins one finding to a ``path:line`` location together with the
rule id (``MV001`` ...), a human-readable message and a severity.  The
records are plain frozen dataclasses so rules stay trivially testable and
the CLI can sort/format them without knowing anything about the rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Sequence


class Severity(enum.Enum):
    """How bad a finding is; only ``ERROR`` affects the exit code."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding at ``path:line``."""

    path: str
    line: int
    rule_id: str
    message: str = field(compare=False)
    severity: Severity = field(default=Severity.ERROR, compare=False)
    column: int = field(default=0, compare=False)

    def format(self) -> str:
        """GCC-style one-line rendering: ``path:line:col: SEV MVxxx message``."""
        tag = self.severity.value.upper()
        return f"{self.path}:{self.line}:{self.column}: {tag} {self.rule_id} {self.message}"

    def with_path(self, path: str) -> "Diagnostic":
        """Copy of this diagnostic re-anchored to ``path``."""
        return replace(self, path=path)


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Stable ordering for reports: by path, then line, then rule id."""
    return sorted(diagnostics)


def render_report(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line report plus a one-line summary (empty string when clean)."""
    if not diagnostics:
        return ""
    lines = [diagnostic.format() for diagnostic in sort_diagnostics(diagnostics)]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def normalize_path(path: str) -> str:
    """Posix separators, minus a leading ``./`` (``./a/b.py`` -> ``a/b.py``).

    Only the literal ``./`` prefix goes: ``../x.py`` and ``.hidden/x.py``
    keep their dots, so a normalised path still names the same file.
    """
    path = path.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    return path

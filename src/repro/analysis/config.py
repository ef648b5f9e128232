"""Configuration for the lint engine: ``[tool.repro.analysis]`` in pyproject.

Supported keys::

    [tool.repro.analysis]
    disable = ["MV006"]            # rule ids switched off everywhere
    enable  = ["MV001"]            # explicit allow-list (optional; default: all)
    ignore  = ["src/repro/_gen/*"] # fnmatch path patterns skipped entirely

    [tool.repro.analysis.per-rule-ignore]
    MV002 = ["repro/chain/measurement.py"]   # rule id -> path patterns

The file is decoded with :mod:`tomllib`.  A bare string counts as a
one-item list.  An undecodable file, or a rule id that no registered rule
carries, is a :class:`ConfigError` naming the file and key, so a typo
never switches linting off silently.  Inline ``# repro: ignore[MVxxx]``
pragmas (see :mod:`repro.analysis.engine`) are the only way to suppress a
single finding.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Iterable, List, Optional

from repro.analysis.diagnostics import normalize_path

CONFIG_SECTION = ("tool", "repro", "analysis")


class ConfigError(ValueError):
    """A pyproject ``[tool.repro.analysis]`` table the linter cannot honour."""


@dataclass
class AnalysisConfig:
    """Effective lint configuration after reading pyproject.toml."""

    disabled_rules: frozenset = frozenset()
    enabled_rules: Optional[frozenset] = None  # None -> every registered rule
    ignore_paths: List[str] = field(default_factory=list)
    per_rule_ignores: Dict[str, List[str]] = field(default_factory=dict)
    source: Optional[str] = None  # pyproject path the config came from

    def rule_enabled(self, rule_id: str) -> bool:
        """Is ``rule_id`` globally switched on?"""
        if rule_id in self.disabled_rules:
            return False
        if self.enabled_rules is not None:
            return rule_id in self.enabled_rules
        return True

    def path_ignored(self, path: str, rule_id: Optional[str] = None) -> bool:
        """Is ``path`` excluded — entirely, or for one specific rule?"""
        normalized = normalize_path(path)
        for pattern in self.ignore_paths:
            if _match(normalized, pattern):
                return True
        if rule_id is not None:
            for pattern in self.per_rule_ignores.get(rule_id, ()):
                if _match(normalized, pattern):
                    return True
        return False


def _match(path: str, pattern: str) -> bool:
    pattern = normalize_path(pattern)
    return fnmatch(path, pattern) or fnmatch(path, "*/" + pattern)


def find_pyproject(start: Optional[str] = None) -> Optional[str]:
    """Walk up from ``start`` (default: cwd) to the nearest pyproject.toml."""
    directory = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str] = None, start: Optional[str] = None) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]``; missing file/section yields defaults.

    Raises :class:`ConfigError` when the file is not valid TOML or the
    section names an unknown rule.
    """
    path = pyproject_path or find_pyproject(start)
    if path is None or not os.path.isfile(path):
        return AnalysisConfig()
    with open(path, "rb") as handle:
        try:
            section = tomllib.load(handle)
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(f"{path}: invalid TOML: {error}") from error
    for key in CONFIG_SECTION:
        section = section.get(key, {})
        if not isinstance(section, dict):
            return AnalysisConfig(source=path)
    return config_from_section(section, source=path)


def config_from_section(section: dict, source: Optional[str] = None) -> AnalysisConfig:
    """Build an :class:`AnalysisConfig` from the decoded TOML section.

    Raises :class:`ConfigError` when ``disable``, ``enable`` or
    ``per-rule-ignore`` names a rule id that is not registered.
    """
    from repro.analysis.engine import registered_rules  # engine imports this module

    known = registered_rules()
    where = f"{source}: " if source else ""

    def rule_ids(key: str, values: Iterable) -> List[str]:
        ids = [rule_id.upper() for rule_id in _strings(values)]
        unknown = [rule_id for rule_id in ids if rule_id not in known]
        if unknown:
            raise ConfigError(
                f"{where}[tool.repro.analysis] {key}: unknown rule id(s) "
                f"{', '.join(unknown)} (known: {', '.join(known)})"
            )
        return ids

    enable = section.get("enable")
    per_rule = {
        rule_id: _strings(patterns)
        for key, patterns in (section.get("per-rule-ignore") or {}).items()
        for rule_id in rule_ids("per-rule-ignore", key)
    }
    return AnalysisConfig(
        disabled_rules=frozenset(rule_ids("disable", section.get("disable", ()))),
        enabled_rules=None if enable is None else frozenset(rule_ids("enable", enable)),
        ignore_paths=_strings(section.get("ignore", ())),
        per_rule_ignores=per_rule,
        source=source,
    )


def _strings(value: Iterable) -> List[str]:
    """A TOML string or array of strings as a list; a bare string is one item."""
    if isinstance(value, str):
        return [value]
    return [str(item) for item in value]

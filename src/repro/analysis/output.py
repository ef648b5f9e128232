"""Output renderers for the linter: JSON, SARIF 2.1.0 and graph dumps.

Every renderer is **byte-deterministic**: all iteration happens over sorted
keys, ``json.dumps`` uses ``sort_keys=True``, and nothing depends on hash
ordering, so the same tree produces the same bytes under any
``PYTHONHASHSEED`` (a subprocess test asserts this).

The SARIF output targets the `SARIF 2.1.0
<https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_ shape
consumed by GitHub code scanning.  The container has no ``jsonschema``, so
:func:`validate_sarif` is a stdlib structural validator covering the subset
of the schema the upload path actually rejects on; CI runs it against the
generated artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity, normalize_path, sort_diagnostics

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro.analysis"
TOOL_URI = "https://github.com/mvcom/mvcom-repro"


# ---------------------------------------------------------------------- #
# JSON
# ---------------------------------------------------------------------- #
def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Machine-readable report; one object per finding plus a summary."""
    ordered = sort_diagnostics(diagnostics)
    errors = sum(1 for d in ordered if d.severity is Severity.ERROR)
    document = {
        "diagnostics": [
            {
                "path": normalize_path(d.path),
                "line": d.line,
                "column": d.column,
                "rule": d.rule_id,
                "severity": d.severity.value,
                "message": d.message,
            }
            for d in ordered
        ],
        "summary": {"errors": errors, "warnings": len(ordered) - errors},
        "tool": TOOL_NAME,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------- #
# SARIF
# ---------------------------------------------------------------------- #
def render_sarif(diagnostics: Sequence[Diagnostic]) -> str:
    """SARIF 2.1.0 report for CI upload / GitHub annotations."""
    from repro.analysis.engine import registered_rules

    ordered = sort_diagnostics(diagnostics)
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": rule_class.description or rule_id},
            "defaultConfiguration": {
                "level": rule_class.severity.value
                if rule_class.severity is Severity.WARNING
                else "error"
            },
        }
        for rule_id, rule_class in registered_rules().items()
    ]
    results = [
        {
            "ruleId": d.rule_id,
            "level": "error" if d.severity is Severity.ERROR else "warning",
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": normalize_path(d.path),
                            "uriBaseId": "ROOT",
                        },
                        "region": {
                            "startLine": max(d.line, 1),
                            "startColumn": d.column + 1,
                        },
                    }
                }
            ],
        }
        for d in ordered
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": TOOL_URI,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"ROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


_SARIF_LEVELS = ("none", "note", "warning", "error")


def validate_sarif(document: Any) -> List[str]:
    """Structural SARIF 2.1.0 validation; returns a list of problems.

    Covers the invariants GitHub's upload endpoint and the published JSON
    schema enforce on the subset of SARIF we emit: top-level version/runs,
    driver name + rule ids, and per-result ruleId/message/level/location
    shapes with 1-based regions.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("version") != SARIF_VERSION:
        problems.append(f"version must be {SARIF_VERSION!r}")
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty array"]
    for run_index, run in enumerate(runs):
        where = f"runs[{run_index}]"
        if not isinstance(run, dict):
            problems.append(f"{where} is not an object")
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            problems.append(f"{where}.tool.driver.name missing or not a string")
            rule_ids: set = set()
        else:
            rules = driver.get("rules", [])
            if not isinstance(rules, list):
                problems.append(f"{where}.tool.driver.rules is not an array")
                rules = []
            rule_ids = set()
            for rule_index, rule in enumerate(rules):
                if not isinstance(rule, dict) or not isinstance(rule.get("id"), str):
                    problems.append(
                        f"{where}.tool.driver.rules[{rule_index}].id missing"
                    )
                else:
                    rule_ids.add(rule["id"])
        results = run.get("results")
        if not isinstance(results, list):
            problems.append(f"{where}.results is not an array")
            continue
        for result_index, result in enumerate(results):
            rwhere = f"{where}.results[{result_index}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere} is not an object")
                continue
            if not isinstance(result.get("ruleId"), str):
                problems.append(f"{rwhere}.ruleId missing or not a string")
            elif rule_ids and result["ruleId"] not in rule_ids:
                problems.append(f"{rwhere}.ruleId {result['ruleId']!r} not declared")
            message = result.get("message")
            if not isinstance(message, dict) or not isinstance(message.get("text"), str):
                problems.append(f"{rwhere}.message.text missing or not a string")
            level = result.get("level")
            if level is not None and level not in _SARIF_LEVELS:
                problems.append(f"{rwhere}.level {level!r} not one of {_SARIF_LEVELS}")
            locations = result.get("locations", [])
            if not isinstance(locations, list):
                problems.append(f"{rwhere}.locations is not an array")
                continue
            for loc_index, location in enumerate(locations):
                lwhere = f"{rwhere}.locations[{loc_index}]"
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict)
                    else None
                )
                if not isinstance(physical, dict):
                    problems.append(f"{lwhere}.physicalLocation missing")
                    continue
                artifact = physical.get("artifactLocation")
                if not isinstance(artifact, dict) or not isinstance(
                    artifact.get("uri"), str
                ):
                    problems.append(f"{lwhere}...artifactLocation.uri missing")
                region = physical.get("region")
                if region is not None:
                    start = region.get("startLine") if isinstance(region, dict) else None
                    if not isinstance(start, int) or start < 1:
                        problems.append(f"{lwhere}...region.startLine must be >= 1")
                    column = region.get("startColumn") if isinstance(region, dict) else None
                    if column is not None and (not isinstance(column, int) or column < 1):
                        problems.append(f"{lwhere}...region.startColumn must be >= 1")
    return problems


# ---------------------------------------------------------------------- #
# GitHub workflow annotations
# ---------------------------------------------------------------------- #
def render_annotations(diagnostics: Sequence[Diagnostic]) -> str:
    """``::error file=...`` workflow commands; GitHub turns these into PR
    annotations without needing the code-scanning upload permission."""
    lines = []
    for d in sort_diagnostics(diagnostics):
        kind = "error" if d.severity is Severity.ERROR else "warning"
        message = d.message.replace("%", "%25").replace("\n", "%0A")
        lines.append(
            f"::{kind} file={normalize_path(d.path)},line={d.line},"
            f"col={d.column + 1},title={d.rule_id}::{message}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# graph dump (``mvcom lint --graph``)
# ---------------------------------------------------------------------- #
def render_graph(graph) -> str:
    """Human-readable call/stream-graph dump for debugging the MV1xx rules."""
    from repro.analysis.streamkeys import collect_key_sites

    lines: List[str] = []
    modules = graph.modules
    lines.append(f"# modules ({len(modules)})")
    for name in sorted(modules):
        lines.append(f"{name}  {normalize_path(modules[name].path)}")

    edges: List[str] = []
    for function in graph.iter_functions():
        for site in function.calls:
            if site.target is None:
                continue
            marker = " [loop]" if site.in_loop else ""
            edges.append(
                f"{function.qualname} -> {site.target}  "
                f"{normalize_path(function.path)}:{site.line}{marker}"
            )
    lines.append("")
    lines.append(f"# call edges ({len(edges)})")
    lines.extend(sorted(edges))

    sites = collect_key_sites(graph)
    lines.append("")
    lines.append(f"# stream key sites ({len(sites)})")
    for site in sites:
        flags = []
        if site.in_loop:
            flags.append("loop")
        if site.registry_is_param:
            flags.append("param-registry")
        if site.registry_local_ctor:
            flags.append("local-registry")
        if site.via:
            flags.append("via=" + ",".join(site.via))
        suffix = f" [{' '.join(flags)}]" if flags else ""
        lines.append(
            f"{normalize_path(site.path)}:{site.line} {site.family} "
            f"{site.pattern.display()!r} registry={site.registry or '?'}{suffix}"
        )
    return "\n".join(lines) + "\n"

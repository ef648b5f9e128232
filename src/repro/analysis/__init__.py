"""Static analysis & runtime contracts for the MVCom reproduction.

Two halves, one goal — machine-checked determinism and constraint safety:

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an AST lint
  pass (per-file rules MV001-MV009) enforcing the named-RNG-stream
  discipline, the no-wall-clock rule and the paper-contract documentation
  convention — plus :mod:`repro.analysis.rules_graph`, the whole-program
  MV101-MV104 passes over :mod:`repro.analysis.graph`.  Run it as
  ``python -m repro.analysis src/`` or ``mvcom lint src/``; findings are
  suppressed only inline, with ``# repro: ignore[MVxxx]``.
* :mod:`repro.analysis.contracts` — opt-in runtime assertions
  (``REPRO_CONTRACTS=1``) that solver results satisfy const. (3)-(4).

Everything here is stdlib-only so the linter runs in bare CI images.
"""

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.contracts import (
    ContractViolation,
    check_result_feasible,
    check_solution_feasible,
    contracts_enabled,
    feasible_result,
    finite_utility,
    sane_instance,
)
from repro.analysis.diagnostics import Diagnostic, Severity, render_report
from repro.analysis.engine import LintEngine, registered_rules, run_analysis

__all__ = [
    "AnalysisConfig",
    "ContractViolation",
    "Diagnostic",
    "LintEngine",
    "Severity",
    "check_result_feasible",
    "check_solution_feasible",
    "contracts_enabled",
    "feasible_result",
    "finite_utility",
    "load_config",
    "registered_rules",
    "render_report",
    "run_analysis",
    "sane_instance",
]

"""partmon: synthesis and execution of partial runtime-verification monitors.

From an LTL property over named, mutually exclusive events, partmon builds a
Moore machine whose per-state verdict is TOP (every continuation satisfies the
property), BOT (every continuation violates it), UNKNOWN (still undecided) or,
after :func:`partialize`, GIVEUP for states from which no verdict can ever be
reached.  Monitors can be classified, serialized, rendered and replayed over
event traces.
"""

from .ltl import (
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    FormulaSyntaxError,
    FormulaTooDeepError,
    Implies,
    LassoWord,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueFormula,
    UnknownAtomError,
    UnknownEventError,
    Until,
    atoms_in_order,
    format_formula,
    lasso_eval,
    negate_nnf,
    nnf,
    parse_formula,
    validate_formula,
)
from .buchi import Nba, ltl_to_nba, nba_accepts_lasso
from .fsm import (
    MooreMonitor,
    Verdict,
    minimize_moore,
    monitor_verdict,
    per_state_nonempty,
    synthesize_monitor,
)
from .partial import (
    Monitorability,
    MonitorabilityReport,
    classify,
    partialize,
)
from .runtime import MonitorSession, run_trace, start
from .formats import (
    FormatError,
    ValidationError,
    emit_dot,
    emit_monitor,
    parse_monitor,
    parse_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Always",
    "And",
    "Atom",
    "Eventually",
    "FALSE",
    "FalseFormula",
    "Formula",
    "FormatError",
    "FormulaSyntaxError",
    "FormulaTooDeepError",
    "Implies",
    "LassoWord",
    "Monitorability",
    "MonitorabilityReport",
    "MonitorSession",
    "MooreMonitor",
    "Nba",
    "Next",
    "Not",
    "Or",
    "Release",
    "TRUE",
    "TrueFormula",
    "UnknownAtomError",
    "UnknownEventError",
    "Until",
    "ValidationError",
    "Verdict",
    "atoms_in_order",
    "classify",
    "emit_dot",
    "emit_monitor",
    "format_formula",
    "lasso_eval",
    "ltl_to_nba",
    "minimize_moore",
    "monitor_verdict",
    "nba_accepts_lasso",
    "negate_nnf",
    "nnf",
    "parse_formula",
    "parse_monitor",
    "parse_trace",
    "partialize",
    "per_state_nonempty",
    "run_trace",
    "start",
    "synthesize_monitor",
    "validate_formula",
]

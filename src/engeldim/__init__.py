"""Exact Engel expansion geometry, digit-window constructions, and
dimension estimates.

The engel module expands rationals, reconstructs them, and gives the exact
cylinder interval of a digit prefix.  The construction module builds nested
unions of closed basic intervals from a pair of window sequences, with the
exact diameter and gap bounds that control them.  The dimension module
turns those exact quantities into three convergent quotient sequences and
an empirical cover fit.  The cli module wraps it all for the shell.
"""

from .construction import (
    DEFAULT_LEVEL_LIMIT,
    ConditionReport,
    LevelQuantities,
    SequenceFamily,
)
from .dimension import (
    DEFAULT_FIT_LIMIT,
    PROXY_CAVEAT,
    CoverFitResult,
    DimensionReport,
    empirical_cover_fit,
    estimate_dimension,
    formula_quotient,
)
from .engel import (
    DigitWord,
    ExpansionResult,
    RatInterval,
    cylinder_interval,
    cylinder_length,
    engel_digits,
    is_admissible,
    reconstruct,
)
from .errors import (
    ConditionError,
    DomainError,
    EngelDimError,
    EvaluationError,
    InternalError,
    InvalidWordError,
    SizeLimitError,
    UsageError,
)
from .ratmath import log_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FIT_LIMIT",
    "DEFAULT_LEVEL_LIMIT",
    "PROXY_CAVEAT",
    "ConditionError",
    "ConditionReport",
    "CoverFitResult",
    "DigitWord",
    "DimensionReport",
    "DomainError",
    "EngelDimError",
    "EvaluationError",
    "ExpansionResult",
    "InternalError",
    "InvalidWordError",
    "LevelQuantities",
    "RatInterval",
    "SequenceFamily",
    "SizeLimitError",
    "UsageError",
    "cylinder_interval",
    "cylinder_length",
    "empirical_cover_fit",
    "engel_digits",
    "estimate_dimension",
    "formula_quotient",
    "is_admissible",
    "log_rational",
    "parse_rational",
    "reconstruct",
    "__version__",
]

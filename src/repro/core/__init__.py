"""QCFE core: the paper's primary contribution."""

from .formulas import FORMULAS, LINEAR, NESTED_LOOP, NLOGN, LogicalFormula, operator_inputs
from .snapshot import (
    MIN_SAMPLES,
    FeatureSnapshot,
    SnapshotSet,
    collect_operator_samples,
    fit_snapshot,
    fit_snapshot_from_queries,
)
from .templates import (
    SimplifiedTemplate,
    TemplateInfo,
    generate_simplified_queries,
    generate_simplified_templates,
    instantiate_simplified,
    parse_template_info,
)
from .reduction import (
    difference_importance,
    difference_multipliers,
    keep_mask_from_scores,
)
from .greedy import greedy_reduction
from .gradient import gradient_importance
from .granularity import (
    FineGrainedSnapshot,
    fit_fine_grained,
    residual_improvement,
)
from .recall import FeatureRecall, collect_baselines
from .pipeline import QCFE, QCFEConfig, QCFEResult

__all__ = [
    "FORMULAS",
    "LINEAR",
    "NLOGN",
    "NESTED_LOOP",
    "LogicalFormula",
    "operator_inputs",
    "FeatureSnapshot",
    "SnapshotSet",
    "MIN_SAMPLES",
    "collect_operator_samples",
    "fit_snapshot",
    "fit_snapshot_from_queries",
    "TemplateInfo",
    "SimplifiedTemplate",
    "parse_template_info",
    "generate_simplified_templates",
    "instantiate_simplified",
    "generate_simplified_queries",
    "difference_importance",
    "difference_multipliers",
    "keep_mask_from_scores",
    "greedy_reduction",
    "gradient_importance",
    "FineGrainedSnapshot",
    "fit_fine_grained",
    "residual_improvement",
    "FeatureRecall",
    "collect_baselines",
    "QCFE",
    "QCFEConfig",
    "QCFEResult",
]

"""DIODE: the paper's primary contribution.

The modules in this package implement the Figure-1 pipeline:

* :mod:`repro.core.sites` — target site identification (taint stage).
* :mod:`repro.core.fieldmap` — byte-range → input-field mapping (Hachoir role).
* :mod:`repro.core.target` — target expression extraction (concolic stage).
* :mod:`repro.core.overflow` — ``overflow(B)``: the target constraint.
* :mod:`repro.core.branches` — branch constraint extraction, ``compress`` and
  ``relevant`` (Figure 8).
* :mod:`repro.core.inputs` — test input generation through :mod:`repro.formats`.
* :mod:`repro.core.detection` — error detection with seed-run filtering.
* :mod:`repro.core.enforcement` — the goal-directed conditional branch
  enforcement algorithm (Figure 7).
* :mod:`repro.core.group` — seed-path groups: sites sharing relevant bytes,
  and the concolic run, branch constraints and candidate witness runs
  they share.
* :mod:`repro.core.engine` — the :class:`~repro.core.engine.Diode` front end
  and the per-site analysis :func:`~repro.core.engine.analyze_site`.
* :mod:`repro.core.campaign` — the parallel analysis campaign engine:
  every seed-path group scheduled as one unit over a pluggable execution
  backend (:mod:`repro.sched`: serial / thread / process), backed by a
  shared solver-result cache with optional cross-run persistence
  (:mod:`repro.smt.cachestore`).
* :mod:`repro.core.baselines` — the comparison strategies evaluated in
  Sections 5.4–5.6 (target-constraint-only sampling, full-path enforcement,
  random and taint-directed fuzzing).
* :mod:`repro.core.report` — result records and site classification.
"""

from repro.core.sites import TargetSite, identify_target_sites
from repro.core.fieldmap import FieldMapper
from repro.core.target import TargetObservation, extract_target_observations
from repro.core.overflow import overflow_constraint, OverflowSpec
from repro.core.branches import BranchConstraint, compress_branches, relevant_branches, extract_branch_constraints
from repro.core.inputs import InputGenerator
from repro.core.detection import CandidateEvaluation, ErrorDetector
from repro.core.enforcement import EnforcementConfig, EnforcementOutcome, EnforcementResult, GoalDirectedEnforcer
from repro.core.report import (
    SiteClassification,
    SiteResult,
    ApplicationResult,
    OverflowBugReport,
)
from repro.core.engine import Diode, DiodeConfig, analyze_site
from repro.core.campaign import (
    CampaignConfig,
    CampaignEngine,
    CampaignResult,
    run_campaign,
)
from repro.core.baselines import (
    BaselineResult,
    TargetOnlySampling,
    EnforcedSampling,
    FullPathEnforcement,
    RandomByteFuzzer,
    TaintDirectedFuzzer,
)

__all__ = [
    "TargetSite",
    "identify_target_sites",
    "FieldMapper",
    "TargetObservation",
    "extract_target_observations",
    "overflow_constraint",
    "OverflowSpec",
    "BranchConstraint",
    "compress_branches",
    "relevant_branches",
    "extract_branch_constraints",
    "InputGenerator",
    "CandidateEvaluation",
    "ErrorDetector",
    "EnforcementConfig",
    "EnforcementOutcome",
    "EnforcementResult",
    "GoalDirectedEnforcer",
    "SiteClassification",
    "SiteResult",
    "ApplicationResult",
    "OverflowBugReport",
    "Diode",
    "DiodeConfig",
    "analyze_site",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignResult",
    "run_campaign",
    "BaselineResult",
    "TargetOnlySampling",
    "EnforcedSampling",
    "FullPathEnforcement",
    "RandomByteFuzzer",
    "TaintDirectedFuzzer",
]

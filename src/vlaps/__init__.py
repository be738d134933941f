"""Macro-action tree search guided by a pluggable prior policy.

Core pieces: deterministic world models and tasks (``world``), the macro
library and its distance metric (``macrolib``), prior-guided candidate
sampling and selection priors (``prior``), the search itself plus the
receding-horizon episode runner (``search``), and a reproducible benchmark
harness (``harness``).
"""

from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateLibraryError,
    PriorQueryError,
    VlapsError,
)
from .harness import RunRecord, SuiteConfig, aggregate, render_report, run_suite
from .macrolib import (
    MacroLibrary,
    Trajectory,
    build_library,
    segment_trajectories,
)
from .prior import (
    PriorPolicy,
    UniformLibraryPrior,
    beta_distribution,
    psi_prior,
    sample_candidates,
)
from .search import (
    EpisodeResult,
    SearchConfig,
    SearchOutcome,
    TreeNode,
    run_episode,
    search_once,
)
from .world import (
    BlockNavEnv,
    ScriptedExpertPrior,
    StateVec,
    TaskSpec,
    WorldModel,
    step_macro,
)

__version__ = "0.1.0"

__all__ = [
    "BlockNavEnv",
    "ConfigurationError",
    "ContractViolationError",
    "DegenerateLibraryError",
    "EpisodeResult",
    "MacroLibrary",
    "PriorPolicy",
    "PriorQueryError",
    "RunRecord",
    "ScriptedExpertPrior",
    "SearchConfig",
    "SearchOutcome",
    "StateVec",
    "SuiteConfig",
    "TaskSpec",
    "Trajectory",
    "TreeNode",
    "UniformLibraryPrior",
    "VlapsError",
    "WorldModel",
    "aggregate",
    "beta_distribution",
    "build_library",
    "psi_prior",
    "render_report",
    "run_episode",
    "run_suite",
    "sample_candidates",
    "search_once",
    "segment_trajectories",
    "step_macro",
]

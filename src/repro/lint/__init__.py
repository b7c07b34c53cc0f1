"""Domain-aware static analysis for the 60 GHz reproduction toolkit.

``python -m repro lint`` runs an AST-based rule engine over the source
tree, enforcing the two properties everything downstream depends on:

* **determinism** — the campaign engine's content-addressed cache and
  worker-count invariance are sound only if cells are bit-for-bit functions
  of their spec and seed (RL001 unseeded RNG, RL002 wall-clock reads,
  RL006 frozen-spec mutation, RL007 unordered iteration into hashes,
  RL008 swallowed errors);
* **dB-unit safety** — link-budget math mixes log and linear domains
  at its peril (RL003 inline conversions, RL004 suffix mixing, RL005
  float equality).

See the "Linting" section of the README and CONTRIBUTING.md for the
rule catalog, suppression syntax, and baseline workflow.
"""

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import (
    Finding,
    RULES,
    lint_paths,
    lint_source,
)
# Importing the rules module populates the registry.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "LintConfig",
    "RULES",
    "apply_baseline",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_config",
    "write_baseline",
]

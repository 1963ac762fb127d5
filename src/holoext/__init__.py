"""Numerical laboratory for weighted L2-minimal holomorphic extensions.

The package builds model domains and their Hartogs lifts, evaluates
closed-form pluricomplex Green functions with their gap functions and Azukawa
indicatrices, computes true least-norm extensions in truncated weighted
Bergman spaces, and compares the resulting norms against the available
extension bounds.  The package root exports the scenario runner and its
config and report types; everything else is imported from the submodules.
"""

from ._version import __version__
from .scenarios import Report, ScenarioConfig, run_scenario

__all__ = ["__version__", "Report", "ScenarioConfig", "run_scenario"]

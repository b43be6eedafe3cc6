"""Names the command line needs before it loads the numeric layer.

Pure Python: importing this module loads neither numpy nor scipy, so
``build_parser`` and the error handling of ``cli.main`` cost nothing on
the graph commands.
"""

from __future__ import annotations

# The effect measures of a stratified table, in report order.
MEASURES = ("risk_difference", "risk_ratio", "odds_ratio")


class NumericalError(RuntimeError):
    """A fit, a draw or a study could not be completed (exit 3)."""

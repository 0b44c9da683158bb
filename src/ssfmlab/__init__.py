"""Split-step fiber channel simulation with low-pass-filtered linear steps.

The package propagates 16-QAM test signals through a scalar nonlinear
Schrodinger channel, measures accuracy against fine-grid benchmark runs via
a normalized square difference, and searches for the filter bandwidth that
minimizes that error.  ``ssfmlab.cli`` exposes the experiment harness.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

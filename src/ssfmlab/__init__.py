"""Split-step fiber channel simulation with low-pass-filtered linear steps.

The package propagates 16-QAM test signals through a scalar nonlinear
Schrodinger channel, measures accuracy against fine-grid benchmark runs via
a normalized square difference, and searches for the filter bandwidth that
minimizes that error.  ``ssfmlab.cli`` exposes the experiment harness.
"""

from .bandwidth import BandwidthSweep, default_fractions, sweep_bandwidth
from .engine import (
    BENCHMARK_DZ_KM,
    BENCHMARK_SPP,
    FiberParams,
    NumericalOverflowError,
    SsfmConfig,
    linear_multiplier,
    propagate,
)
from .harness import (
    AXES,
    PRESETS,
    Scenario,
    ScenarioError,
    SweepResult,
    emit_csv,
    load_scenario,
    parse_scenario,
    preset_jobs,
    reproduce_fig2,
    sweep,
    write_trace_csv,
)
from .metrics import DegenerateInputError, nsd
from .signals import (
    QAM16,
    LaunchSpec,
    SamplingGrid,
    SymbolSequence,
    Waveform,
    dbm_to_watts,
    gen_symbols,
    make_grid,
    resample_bandlimited,
    shape_pulse,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "BENCHMARK_DZ_KM",
    "BENCHMARK_SPP",
    "BandwidthSweep",
    "DegenerateInputError",
    "FiberParams",
    "LaunchSpec",
    "NumericalOverflowError",
    "PRESETS",
    "QAM16",
    "SamplingGrid",
    "Scenario",
    "ScenarioError",
    "SsfmConfig",
    "SweepResult",
    "SymbolSequence",
    "Waveform",
    "dbm_to_watts",
    "default_fractions",
    "emit_csv",
    "gen_symbols",
    "linear_multiplier",
    "load_scenario",
    "make_grid",
    "nsd",
    "parse_scenario",
    "preset_jobs",
    "propagate",
    "reproduce_fig2",
    "resample_bandlimited",
    "shape_pulse",
    "sweep",
    "sweep_bandwidth",
    "write_trace_csv",
    "__version__",
]

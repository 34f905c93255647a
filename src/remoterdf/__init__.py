"""Conditional rate-distortion for Gaussian remote sources with decoder side information.

The package computes the rate-distortion function of a Gaussian source X that
the encoder observes only through a correlated measurement S, while the
decoder holds side information Y.  It synthesizes the optimal linear-plus-noise
test channels, solves the spectral water-filling problem for the rate, and
ships independent oracles (brute-force search and closed-form degenerate
limits) that everything is verified against.  All rates are in nats unless a
caller converts; the CLI reports both nats and bits.
"""

from .channel import (
    ChannelRate,
    SimulationResult,
    StructuralReport,
    TestChannel,
    build_channel,
    distortion_covariance,
    joint_with_reproduction,
    rate_of_channel,
    simulate_channel,
    verify_structure,
)
from .core import (
    ConditionalStats,
    GaussianSourceSpec,
    conditional_stats,
    symmetric_sqrt,
    validate_spec,
)
from .oracle import (
    OracleResolution,
    OracleResult,
    Remark3Row,
    brute_force_rdf,
    classical_scalar_rdf,
    remark3_discrepancy,
    wyner_scalar_rdf,
)
from .specfile import (
    SourceSpecFile,
    dump_spec_document,
    load_spec_file,
    parse_spec_document,
)
from .waterfill import (
    CurvePoint,
    RdfCurve,
    SpectralSetup,
    WaterfillSolution,
    distortion_range,
    rdf_curve,
    solve_waterfill,
    spectral_setup,
)

__all__ = [
    "ChannelRate",
    "ConditionalStats",
    "CurvePoint",
    "GaussianSourceSpec",
    "OracleResolution",
    "OracleResult",
    "RdfCurve",
    "Remark3Row",
    "SimulationResult",
    "SourceSpecFile",
    "SpectralSetup",
    "StructuralReport",
    "TestChannel",
    "WaterfillSolution",
    "brute_force_rdf",
    "build_channel",
    "classical_scalar_rdf",
    "conditional_stats",
    "distortion_covariance",
    "distortion_range",
    "dump_spec_document",
    "joint_with_reproduction",
    "load_spec_file",
    "parse_spec_document",
    "rate_of_channel",
    "rdf_curve",
    "remark3_discrepancy",
    "simulate_channel",
    "solve_waterfill",
    "spectral_setup",
    "symmetric_sqrt",
    "validate_spec",
    "verify_structure",
    "wyner_scalar_rdf",
]

__version__ = "0.1.0"

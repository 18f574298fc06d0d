"""Bit commitment over misaligned-reference-frame channels.

The package models a channel that applies one random rotation, drawn from a
known distribution over SO(3), to every direction-carrying message of a
two-party session.  It provides:

- `so3`: rotation geometry and the channel distribution variants;
- `simple`: the four-symbol and continuous-angle warm-up schemes;
- `lattice`: the lattice-coordinate scheme whose security sharpens with its
  dimension d and range L;
- `engine`: generic sessions and parties, transcripts, the group-twirl
  compiler and budgeted exact transcript laws;
- `analysis`: exact (rational) and Monte Carlo security figures plus
  `SecurityReport`, the one formatter of the `key = value` text reports;
- `cli`: the `framebc` command with analyze / simulate / twirl-check /
  mingap / sweep subcommands.
"""

from .so3 import (
    CyclicZ,
    FiniteSupport,
    HaarSO3,
    MisalignmentDistribution,
    TwoPointAngleMixture,
    UniformSegment,
    enumerate_support,
    planar_unit,
    rot_z,
    sample,
    unit3,
)
from .lattice import (
    AngleBasis,
    BudgetExceededError,
    LatticeParams,
    build_angle_basis,
    commit,
    decode_batch,
    decode_commit,
    encode,
    lattice_mu,
    lattice_protocol,
    make_params,
    verify_reveal,
)
from .simple import (
    FourSymbolCodeword,
    InterpolationStrategy,
    continuous_protocol,
    four_symbol_channel,
    four_symbol_protocol,
    four_symbol_verify,
)
from .engine import (
    Accepted,
    Aborted,
    Message,
    Party,
    ProtocolSpec,
    Transcript,
    haar_twirl_moments,
    probe_protocol,
    run_session,
    transcript_distribution,
    compiled_transcript_distribution,
    twirl_compile,
)
from .analysis import (
    MonteCarloEstimate,
    SecurityReport,
    binding_search,
    binding_search_finite_precision,
    binding_sum_max,
    cheat_curve_continuous,
    concealing_bound_exact,
    concealing_exact,
    continuous_report,
    four_symbol_report,
    lattice_report,
    lattice_soundness_exact,
    lattice_soundness_mc,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

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

from . import so3, lattice, simple, engine, analysis

__version__ = "0.1.0"

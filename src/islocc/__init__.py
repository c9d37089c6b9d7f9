"""Entanglement preparation with spatially indistinguishable identical particles.

The package root is the production API: closed-form X-state rows of noisy
Werner preparations (:mod:`islocc.xstate`, numpy only) and the
deterministic sweeps and threshold searches built on them
(:mod:`islocc.sweeps`).  Importing it loads nothing else.

The oracle follows the physics end to end, and its names are imported from
the module that defines them: single-particle states as dense vectors on a
finite mode basis (:mod:`islocc.states`), permutation-sum amplitudes for
bosons and fermions (:mod:`islocc.amplitudes`), superpositions and
ensembles (:mod:`islocc.ensembles`), post-selection of one particle per
separated region in one pass over the Fock basis (:mod:`islocc.slocc`), the
entropic degree of spatial indistinguishability
(:mod:`islocc.indistinguishability`), concurrence / entanglement of
formation / CHSH diagnostics (:mod:`islocc.entanglement`) and noisy Werner
preparation through the amplitude engine (:mod:`islocc.werner`).
:mod:`islocc.verify` checks every step against an independent computation;
only ``islocc verify`` loads the oracle.
"""

from .xstate import (BOSON, FERMION, ParticleStatistics, WernerFamily, XStateRows,
                     binary_entropy, canonical_theta)
from .sweeps import (ROW_DTYPE, ConfigError, GridSpec, SweepConfig,
                     ThresholdResult, find_threshold, indist_on_family,
                     l_for_indist, records_to_csv, records_to_json, run_sweep)

__version__ = "0.1.0"

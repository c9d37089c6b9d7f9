"""Entanglement preparation with spatially indistinguishable identical particles.

The production path is small: closed-form X-state rows of noisy Werner
preparations (:mod:`islocc.xstate`, numpy only) and the deterministic
sweeps and threshold searches built on them (:mod:`islocc.sweeps`).  Its
oracle follows the physics end to end: single-particle states as dense
vectors on a finite mode basis (:mod:`islocc.states`), permutation-sum
amplitudes for bosons and fermions (:mod:`islocc.amplitudes`),
superpositions and ensembles (:mod:`islocc.ensembles`), post-selection of
one particle per separated region in one pass over the Fock basis
(:mod:`islocc.slocc`), the entropic degree of spatial indistinguishability
(:mod:`islocc.indistinguishability`), concurrence / entanglement of
formation / CHSH diagnostics (:mod:`islocc.entanglement`) and noisy Werner
preparation through the amplitude engine (:mod:`islocc.werner`).
:mod:`islocc.verify` checks every step against an independent computation.
"""

from .xstate import (BOSON, FERMION, ParticleStatistics, WernerFamily, XStateRows,
                     binary_entropy, canonical_theta)
from .states import (DOWN, UP, ModeBasis, SingleParticleState, SpatialWave, Spin,
                     inner, make_peaked)
from .amplitudes import (ElementaryKet, PermutationCapExceeded, amplitude,
                         amplitude_fast, amplitude_permsum, overlap_matrix,
                         permanent_ryser)
from .ensembles import MixedState, PureNState, mixed_trace, pure_norm_sq, state_overlap
from .slocc import ProjectedDensityMatrix, ProjectionUndefinedError, project, spin_configurations
from .indistinguishability import (IndistinguishabilityBreakdown, degree_n,
                                   degree_two, region_probability)
from .entanglement import (EntanglementReport, NotXShapedError, analyze,
                           bell_horodecki, bell_xstate, concurrence,
                           correlation_matrix, eof, wootters_lambdas)
from .werner import (LR_BASIS, KrausSet, WernerSpec, bell_states,
                     closed_form_concurrence_minus, closed_form_concurrence_plus,
                     closed_form_probability_minus,
                     closed_form_probability_plus, depolarize_then_deform,
                     depolarizing_kraus, project_werner, spec_from_l,
                     werner_direct)
from .sweeps import (ROW_DTYPE, ConfigError, GridSpec, SweepConfig,
                     ThresholdResult, find_threshold, indist_on_family,
                     l_for_indist, records_to_csv, records_to_json, run_sweep)
from .verify import run_verify

__version__ = "0.1.0"

"""qcost: entanglement vs quantum-correlation cost on small composite systems.

Library and CLI for computing the relative entropy of entanglement, the
one-way information deficit, and their trace/Bures-distance variants, and
for auditing the cost inequalities that relate them: the central cost
bound, the collinearity identity, the monogamy sandwich, and the
multi-round distribution-protocol budget.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread for matrices of at most 64 x 64, unless the user set
# one.  OpenBLAS reads it once, when numpy loads, so it takes effect only if
# qcost is imported before numpy and scipy, as the qcost command does;
# forked campaign workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .measures import (DistanceKind, bures_distance, fidelity, purity,
                       relative_entropy, trace_distance, vn_entropy)
from .optim import OptimizerConfig, OptResult, minimize
from .qmat import (Bipartition, DensityMatrix, InputError, SubsystemDims,
                   embed_local, load_state, partial_trace, partial_transpose,
                   permute_subsystems, save_state, vector_state)
from .quantumness import (MeasurementBasis, computational_basis,
                          deficit_for_basis, measure_channel, one_way_deficit)
from .entanglement import (SeparableEnsemble, coherent_info_lower,
                           ensemble_to_state, measured_separable_upper,
                           ppt_min_eigenvalue, pure_state_entanglement,
                           ree_upper)
from .statezoo import (eta_state, ghz_state, ginibre_mixed, haar_pure,
                       haar_unitary)

__all__ = [name for name in dir() if not name.startswith("_")]

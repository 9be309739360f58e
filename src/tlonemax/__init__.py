"""Simulation and exact-analysis toolkit for a time-linkage OneMax variant.

The objective rewards ones in the current bit string but penalizes a stored
previous first-bit value of 1 by the full dimension, so single-individual
hill climbers stagnate with high probability while a large enough
population reaches the optimum.  The package ships the algorithms, exact
Markov absorption oracles, closed-form bounds, and a reproducible Monte
Carlo harness so each of those claims can be checked at desk scale.
"""

from .core import RandomStream, mutate_value_bitwise, mutate_value_one_bit
from .fitness import OutcomeKind, classify
from .algorithms import (
    CensusReport,
    MutationKind,
    Population,
    TrialOutcome,
    alg1_moves,
    population_census,
    run_alg1,
    run_alg2,
)
from .oracle import (
    AbsorptionResult,
    aux_ineq,
    chernoff_geometric,
    chernoff_lower,
    lemma2_bruteforce,
    lemma2_exact,
    markov_full_absorption,
    markov_lumped_absorption,
    min_population,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    runtime_scaling_check,
    wilson_interval,
)

__version__ = "0.1.0"

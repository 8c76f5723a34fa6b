"""Random plane trees with fixed degree statistics: exact counting and laws,
size-biased spine samplers, closed-form tail bounds on the depth of a random
node (mark depth, stopping index and Poisson repeat time), simply generated
models, and a reproducible experiment harness with a CLI."""

__version__ = "0.1.0"

from .trees import DegreeStatistics, MarkedTree, Norms, PlaneTree, build_tree
from .enumeration import (ENUMERATION_CAP, ExactDistribution, count_forests,
                          enumerate_degree_statistics, enumerate_trees,
                          exact_mark_height_distribution,
                          exact_stopping_index_distribution,
                          exact_threshold_sampler_distribution,
                          spine_probability)
from .samplers import (OffspringDistribution, sample_conditioned_bienayme,
                       sample_conditioned_bienayme_sequential,
                       sample_mark_height, sample_stopping_index,
                       sample_stopping_index_poissonized,
                       sample_uniform_marked_tree, sample_uniform_tree)
from .bounds import (BoundInput, height_tail_bound, height_tail_bound_no_ones,
                     pair_survival, pair_survival_log_series,
                     pair_survival_upper, poisson_tail_bound,
                     repeat_time_tail_bound, stopping_tail_bound_no_ones)
from .weights import (WeightSequence, exact_tree_law, limit_degree_law,
                      nu_sigma_sq, partition_function, sample_simply_generated,
                      tilt_invariance_check)
from .rng import RngStream
from .harness import (run_concentration, run_convergence,
                      run_equivalence_suite, run_tail_sweep)

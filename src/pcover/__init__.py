"""Exact-arithmetic laboratory for partial covering over totally balanced matrices."""

from .arith import DeltaRational, Rational, format_rational, parse_rational
from .errors import (AuditError, InfeasibleError, InputError,
                     InternalInvariantError, PCoverError, SizeGuardError)
from .generators import (BlackboxFamily, GapFamily, RectangleInstance,
                         TreeInstance, corpus_instance, gen_blackbox_family,
                         gen_gap_family, gen_random_descending_paths,
                         gen_random_path_hitting, gen_random_rectangles,
                         gen_random_tree_instance, reduce_multicut,
                         reduce_path_hitting, reduce_rectangle_stabbing)
from .kolen import DualSolution, KolenResult, audit_optimality, kolen
from .lp import DualFractional, FractionalSolution, solve_dual, solve_lp
from .merger import (MergeContext, MergerGraph, MergeTrace, audit_merge_bound,
                     build_merger_graph, merge)
from .model import (Cover, Decomposition, Instance, PermutationPair,
                    cover_cost, covered_profit, make_instance,
                    permute_instance, sub_instance)
from .pipeline import (BlackBoxTranscript, SolveReport, absorb_additive_error,
                       audit_corpus_entry, brute_force_partial,
                       brute_force_prize_collecting, equitable_coloring_check,
                       simulate_blackbox_lb, solve_partial_tbc,
                       solve_rho_separable, to_greedy_form)
from .tb import (GammaWitness, SgfResult, gamma_witness, is_gamma_free,
                 is_totally_balanced, standard_greedy_form)
from .threshold import (ThresholdResult, find_threshold, kolen_call_budget,
                        lower_envelope_breakpoints)

__version__ = "0.1.0"

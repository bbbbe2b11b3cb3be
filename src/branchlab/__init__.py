"""Branching populations under selection and heavy-tailed mutation.

Library layout:

* :mod:`branchlab.tails`      heavy-tailed fitness distributions (log domain)
* :mod:`branchlab.growth`     growth exponent nu(alpha) and its oracles
* :mod:`branchlab.recursion`  max-plus recursion solver, cycles, multipliers
* :mod:`branchlab.simulate`   stochastic FMM/MMM engine and Monte Carlo checks
* :mod:`branchlab.analysis`   frequency-distribution observables
* :mod:`branchlab.cli`        command line front end
"""
from .analysis import (
    FreqSnapshot,
    collapse_distance,
    freq_from_chi,
    freq_from_run,
    homogeneous_curve,
    loglog_slope,
)
from .growth import (
    GrowthLaw,
    alpha_critical,
    growth_law,
    nu,
    nu_bruteforce,
    nu_continuous_approx,
    period_T,
)
from .recursion import (
    ChiSeries,
    SeedSequence,
    build_ctex_seed,
    c_of_t,
    check_bounds,
    detect_period,
    extract_phi,
    nu_hat,
    solve_chi,
    verify_indu,
)
from .simulate import (
    PopulationState,
    RunRecord,
    SimConfig,
    fittest_mutant_ks,
    heuristic_wt,
    mc_verify_galton,
    mc_verify_tdg,
    run,
    sample_fittest_mutant,
    step_exact,
    step_logdet,
)
from .tails import (
    TailModel,
    inverse_log_tail,
    log_tail,
    parse_tail_model,
    sample_fitness,
    sample_max_of_n,
    tail,
)

__all__ = [
    "ChiSeries",
    "FreqSnapshot",
    "GrowthLaw",
    "PopulationState",
    "RunRecord",
    "SeedSequence",
    "SimConfig",
    "TailModel",
    "alpha_critical",
    "build_ctex_seed",
    "c_of_t",
    "check_bounds",
    "collapse_distance",
    "detect_period",
    "extract_phi",
    "freq_from_chi",
    "freq_from_run",
    "growth_law",
    "heuristic_wt",
    "homogeneous_curve",
    "inverse_log_tail",
    "log_tail",
    "loglog_slope",
    "mc_verify_galton",
    "mc_verify_tdg",
    "nu",
    "nu_bruteforce",
    "nu_continuous_approx",
    "nu_hat",
    "parse_tail_model",
    "period_T",
    "run",
    "sample_fitness",
    "sample_fittest_mutant",
    "sample_max_of_n",
    "solve_chi",
    "step_exact",
    "step_logdet",
    "tail",
    "verify_indu",
]

__version__ = "0.1.0"

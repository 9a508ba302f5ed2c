"""Workload definitions: the generated input and the fixed job of each.

The method list of each workload is fixed here; the benchmark checks that
the advisor still marks every listed method viable and never lets it choose
the list. Panel sizes are chosen so that the super-linear refit loops
(imputation jackknife, SCM placebo and ridge-CV refits) already dominate
while one pass still takes a few seconds.
"""

DYNAMIC = {"kind": "dynamic", "base": 1.0, "slope": 0.1}

WORKLOADS = {
    # 80 units x 24 periods, two cohorts of 20, 40 never-treated units.
    # The imputation jackknife's 81 dense build_design + ols_fit calls
    # dominate. STAGGERED_ASCM is left out: its cost is heavy-tailed across
    # draws of this DGP (median 1.5k lstsq calls, but 35k-256k on 5 of 48
    # draws, where the active-set polish keeps failing), so a run that drew
    # such a panel would exceed its time budget.
    "did_staggered": {
        "dgp": {"n_units": 80, "n_periods": 24, "cohorts": {8: 20, 16: 20},
                "effect": DYNAMIC},
        "methods": ("GROUP_TIME_DID", "IMPUTATION_DID", "DEBIASED_AR"),
    },
    # One treated unit adopting at t=16 and 80 never-treated donors. The
    # SCM placebo loop and the ASCM ridge-CV loop load the simplex solver;
    # linreg sees only a few small designs.
    "scm_single": {
        "dgp": {"n_units": 81, "n_periods": 24, "cohorts": {16: 1},
                "effect": DYNAMIC},
        "methods": ("SCM", "ASCM", "DID_TWFE", "EVENT_STUDY", "CITS"),
    },
    # Thousands of small calls: per-call overhead in design assembly, FE
    # absorption, the multiplier bootstrap and the harness loop. No SCM.
    "mc_small": {
        "dgp": {"n_units": 40, "n_periods": 12, "cohorts": {4: 10, 8: 10},
                "effect": DYNAMIC, "ar_coef": 0.5, "name": "mc_small"},
        "methods": ("DID_TWFE", "EVENT_STUDY", "GROUP_TIME_DID",
                    "DEBIASED_AR"),
        "reps": 200,
    },
}


# A run draws this many inputs from its seed and its passes cycle through
# them. The work of one input varies with the draw (DEBIASED_AR's
# fixed point takes 20 to 28 passes), so a run's median over several draws
# is what stays steady from seed to seed.
INPUTS_PER_RUN = 8


def is_simulation(workload: str) -> bool:
    return "reps" in WORKLOADS[workload]


def input_seed(seed: int, k: int) -> int:
    """DGP seed of input k of a run; distinct across runs with seeds >= 0."""
    return seed * INPUTS_PER_RUN + k


def input_name(workload: str, k: int) -> str:
    """File the set-up writes: a panel CSV, or a DGP config for simulate."""
    return f"dgp{k}.json" if is_simulation(workload) else f"panel{k}.csv"

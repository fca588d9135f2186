"""Allocation of indivisible items under price rigidities.

An ascending mechanism raises the prices of minimal over-demanded item
sets and rations capped items by fair lottery; every run ends in a
constrained Walrasian equilibrium.  The package also evaluates the
mechanism's lottery tree exactly (expected profits and prices as
rationals) and analyses strategic misreporting.
"""

from .errors import (
    DummyInSet,
    EconomyValidationError,
    InvalidMatching,
    NoEntrants,
    NotTwoBuyers,
    RoundLimitExceeded,
    ScriptError,
    SizeGuard,
    TreeSizeExceeded,
    UpperBoundViolation,
)
from .model import (
    DUMMY,
    DUMMY_NAME,
    Allocation,
    Economy,
    RationingSystem,
    demand_set,
    demand_situation,
    economy_from_dict,
    indirect_utility,
    is_admissible,
    validate_economy,
)
from .matching import (
    Matching,
    augment,
    build_graph,
    equilibrium_allocation_exists,
    matching_to_allocation,
    max_matching,
    maximum_matching,
)
from .overdemand import (
    grow_over_demanded,
    is_not_under_demanded,
    is_over_demanded,
    mods,
)
from .equilibrium import (
    CONDITION_NAMES,
    EquilibriumCertificate,
    brute_force_equilibrium_allocation,
    check_cwe,
    minimal_over_demanded_sets,
    over_demanded_sets,
)
from .mechanism import (
    DEFAULT_ROUND_LIMIT,
    LotteryEvent,
    MaprOutcome,
    MechanismState,
    ScriptedLottery,
    SeededLottery,
    Trace,
    TraceRow,
    initial_state,
    lottery_step,
    price_increase_step,
    refresh_demands,
    rm,
    run_mapr,
)
from .expectation import (
    ExpectationReport,
    HistoryLeaf,
    TreeStats,
    aggregate_histories,
    enumerate_histories,
    expected_values,
)
from .strategy import (
    ContestDetails,
    ManipulationProblem,
    SearchResult,
    Strategy,
    TwoBuyerVerdict,
    default_value_cap,
    expected_profit_under_strategy,
    optimal_strategy_search,
    two_buyer_case_analysis,
)

__version__ = "0.1.0"

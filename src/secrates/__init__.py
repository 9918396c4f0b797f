"""Secrecy rates for block-fading wiretap channels with a hybrid adversary."""

__version__ = "0.1.0"

from .adversary import CsiRegime, JammingRule, best_response  # noqa: F401
from .channels import (  # noqa: F401
    ChannelTriple,
    GainDistribution,
    MonteCarlo,
    SampleBatch,
    expect,
    sample,
)
from .delay_limited import (  # noqa: F401
    FeasibilityReport,
    SearchConfig,
    SecrecySolution,
    c_min_closed_form,
    evaluate_constraint,
    optimize_policy_packet,
    solve,
)
from .ergodic import (  # noqa: F401
    ErgodicConfig,
    dominance_region,
    rate_arq,
    rate_nocsi,
    rate_upper_bound,
)
from .phy_rates import SystemParams  # noqa: F401
from .policies import RatePolicy  # noqa: F401

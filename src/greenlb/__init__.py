"""greenlb: a discrete-event simulator and policy language for evaluating the
latency/power trade-off of load-balancing policies over power-managed servers.
"""

from .cluster import Cluster, ClusterInvariantError, PowerModel, Request, RequestLog, Server
from .design import (
    DEFAULT_Q_VALUES,
    DEFAULT_TIMEOUT_VALUES,
    Design,
    DesignSpace,
    enumerate_designs,
    run_sweep,
)
from .engine import (
    SimConfig,
    SimulationError,
    StopCriterion,
    generate_interarrival,
    run,
    simulate,
)
from .metrics import RunResult, batch_means, compute_al, compute_ap, summarize
from .policy import (
    EvaluationError,
    NdResolution,
    PolicyError,
    PolicySyntaxError,
    PowerState,
    ServerSnapshot,
    UndefinedDesignParamError,
    UnknownIdentifierError,
    evaluate,
    parse_policy,
    pretty_print,
    select_server,
)
from .validation import (
    ComparisonReport,
    compare_tables,
    delta,
    md1_mean_latency,
    replay_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Cluster",
    "ClusterInvariantError",
    "ComparisonReport",
    "DEFAULT_Q_VALUES",
    "DEFAULT_TIMEOUT_VALUES",
    "Design",
    "DesignSpace",
    "EvaluationError",
    "NdResolution",
    "PolicyError",
    "PolicySyntaxError",
    "PowerModel",
    "PowerState",
    "Request",
    "RequestLog",
    "RunResult",
    "Server",
    "ServerSnapshot",
    "SimConfig",
    "SimulationError",
    "StopCriterion",
    "UndefinedDesignParamError",
    "UnknownIdentifierError",
    "batch_means",
    "compare_tables",
    "compute_al",
    "compute_ap",
    "delta",
    "enumerate_designs",
    "evaluate",
    "generate_interarrival",
    "md1_mean_latency",
    "parse_policy",
    "pretty_print",
    "replay_oracle",
    "run",
    "run_sweep",
    "select_server",
    "simulate",
    "summarize",
]

"""Cost/deadline-aware placement of offloaded applications on a three-tier topology."""

from .model import (
    CLASS_ORDER,
    DeviceClass,
    DeviceNode,
    FleetSpec,
    InputNode,
    Link,
    LinkSpec,
    Site,
    Tier,
    TierSpec,
    Topology,
    TopologySpec,
    ValidationError,
    build_topology,
    root_path_sites,
    uplink_path,
)
from .pricing import (
    TOLERANCE,
    AppType,
    AppVariant,
    CandidatePlacement,
    fits,
    price,
    response_time,
    transfer_time,
)
from .solver import (
    Bound,
    Placement,
    PlacementRequest,
    Requirement,
    RequirementKind,
    RequestOutcome,
    ResidualState,
    apply_placement,
    feasible_candidates,
    solve_request,
    solve_with_escalation,
)
from .lp_export import IlpModel, LpRow, build_ilp, to_lp_text
from .scenario import (
    AppEntry,
    Scenario,
    ScenarioError,
    TierPlan,
    cost_performance_demo_scenario,
    paper_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
    validate_scenario,
)
from .simulator import (
    MetricsPoint,
    MetricsSeries,
    PatternKind,
    Trace,
    compute_metrics,
    generate_requests,
    run_simulation,
)

__version__ = "0.1.0"

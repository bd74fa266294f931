"""Exact engine for cops-and-robber games on oriented graphs where cops may
push vertices (reverse every arc at a vertex).

Highlights:
- orientations addressed by push parity, so a push class is one bit vector;
- an exhaustive backward-induction solver over the full game arena;
- constructive cop strategies (push to a DAG and chase; the 4-regular case
  machine; shortest-path capture of a trapped robber);
- graph family generators, batch sweeps, and named verification suites.
"""

from .engine import (
    Game,
    GameState,
    GameVariant,
    MoveTo,
    PlaceCops,
    PlaceRobber,
    Push,
    PushAbility,
    Stay,
    Trace,
    Turn,
    play_match,
)
from .errors import PushcopsError
from .four_regular import FourRegularStrategy
from .graph import (
    OrientedGraph,
    UnderlyingGraph,
    is_dag,
    is_trapped,
    parse_arcs,
    reachable_from,
    serialize_arcs,
    validate_graph,
)
from .pushdag import (
    dag_push_target,
    find_dag_push_set,
    growth_rounds,
    normalize_single_source,
    single_source,
)
from .solver import (
    Arena,
    OptimalCop,
    OptimalRobber,
    SolveResult,
    cop_numbers,
    solve_game,
)
from .strategies import (
    DagChaseStrategy,
    RandomRobber,
    StayRobber,
    Strategy,
    StrongPushDagStrategy,
    TrapCaptureStrategy,
)

__all__ = [
    "Arena",
    "DagChaseStrategy",
    "FourRegularStrategy",
    "Game",
    "GameState",
    "GameVariant",
    "MoveTo",
    "OptimalCop",
    "OptimalRobber",
    "OrientedGraph",
    "PlaceCops",
    "PlaceRobber",
    "Push",
    "PushAbility",
    "PushcopsError",
    "RandomRobber",
    "SolveResult",
    "Stay",
    "StayRobber",
    "Strategy",
    "StrongPushDagStrategy",
    "Trace",
    "TrapCaptureStrategy",
    "Turn",
    "UnderlyingGraph",
    "cop_numbers",
    "dag_push_target",
    "find_dag_push_set",
    "growth_rounds",
    "is_dag",
    "is_trapped",
    "normalize_single_source",
    "parse_arcs",
    "play_match",
    "reachable_from",
    "serialize_arcs",
    "single_source",
    "solve_game",
    "validate_graph",
]

__version__ = "0.1.0"

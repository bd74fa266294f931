"""One strong-push cop against any orientation of a 4-regular graph.

The cop keeps every robber-visited vertex at out-degree <= 1.  When that
invariant cannot be maintained, one of a family of short scripted trap
endgames fires.  A script plans all of its steps when it starts: while it
runs only the robber moves besides the cop, so the orientation and the cop's
vertex at every later step follow from the start, and each step names the
robber vertex it expects.  Any robber deviation from a forced move is an
immediate trap.  One endgame requires the cop to physically walk toward a
17-vertex gadget around the robber's camp before springing the trap.

A state outside a script's case analysis, or a script that ends without
trapping the robber, raises `InternalInvariantViolation` instead of guessing.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NotFourRegularError
from .engine import Game, GameState, MoveTo, PlaceCops, Push, Stay, Turn
from .graph import OrientedGraph, is_trapped
from .strategies import Strategy, trap_walk

# A plan is a tuple of steps (robber, script name, action, rest).  The first
# step whose robber is None or the robber's vertex is taken, and `rest`
# becomes the plan; an action that is a message string raises it instead.


def _line(name: str | None, *seq, rest=()):
    """The plan taking seq = act, robber, act, ... in turn: each act after the
    first once the robber stands on the vertex before it (None: anywhere)."""
    plan = rest
    for robber, act in reversed(list(zip((None,) + seq[1::2], seq[::2]))):
        plan = ((robber, name, act, plan),)
    return plan


def _double_push(name: str, x: int, y: int, x2: int, on_x2):
    """Push y twice, then answer a robber on x or x2.  The two pushes cancel,
    so `on_x2` is read off the orientation the script started from."""
    return _line(name, Push(y), x, Push(y), rest=(
        (x, name, Push(x2), ()),
        (x2, name, on_x2, ()),
        (None, name, "unexpected robber position after the double push", ()),
    ))


def _pushed(game: Game, og: OrientedGraph, *vs: int) -> OrientedGraph:
    """`og` after pushing vs in turn, from the game's orientation cache."""
    for v in vs:
        og = game.pushed(og.parity, v)
    return og


def _capture(og: OrientedGraph, a: int, b: int) -> tuple:
    """The cop's move a -> b onto the robber and the message if play goes on,
    for `_line`; or why a -> b is not an arc."""
    if not og.has_arc(a, b):
        return (f"expected arc {a}->{b} for the arrival endgame",)
    return MoveTo(b), None, "capture move did not end the match"


class FourRegularStrategy(Strategy):
    """Case machine keeping every robber-visited vertex at out-degree <= 1.
    The cop starts on vertex 0."""

    def __init__(self, og: OrientedGraph):
        for v in range(og.n):
            if og.graph.degree(v) != 4:
                raise NotFourRegularError(f"vertex {v} has degree {og.graph.degree(v)}")
        self.visited: set[int] = set()
        self.mode = "invariant"  # invariant | endgame
        self.endgame_moves = 0
        self.trap_path: tuple[int, ...] | None = None
        self.plan: tuple | None = None  # what is left of the running script
        self.audit_log: list[dict] = []

    # framework -----------------------------------------------------------

    @property
    def memory(self):
        """(visited, mode, endgame moves, trap path, plan); the plan is None
        when no script runs."""
        return (frozenset(self.visited), self.mode, self.endgame_moves, self.trap_path, self.plan)

    @memory.setter
    def memory(self, value):
        visited, self.mode, self.endgame_moves, self.trap_path, self.plan = value
        self.visited = set(visited)

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((0,) * game.variant.cops)
        og = game.orientation(state)
        r = state.robber
        self.visited.add(r)
        if self.trap_path is None and is_trapped(og, r):
            self.trap_path = tuple(og.graph.shortest_path(state.cops[0], r))
            self.plan = None  # never consulted again
        if self.trap_path is not None:
            return trap_walk(game, state, self.trap_path)
        if og.out_degree(r) == 1:
            # a push on the unique escape hatch traps the robber outright
            self.plan = None
            self._note_endgame()
            script, agent = None, Push(og.out_neighbors(r)[0])
        else:
            if self.plan is None:
                self.plan = self._dispatch(game, og, r, state.cops[0])
            script, agent = self._take_step(r)
        self._audit(game, og, agent, script)
        return (agent,) + (Stay(),) * (game.variant.cops - 1)

    def _note_endgame(self):
        if self.mode == "invariant":
            self.endgame_moves = 0
        self.mode = "endgame"

    def _audit(self, game: Game, og: OrientedGraph, agent, script: str | None):
        after = game.pushed(og.parity, agent.vertex) if isinstance(agent, Push) else og
        ok = all(after.out_degree(w) <= 1 for w in self.visited)
        self.audit_log.append({"mode": self.mode, "invariant": ok, "script": script})
        if self.mode == "invariant":
            if not ok:
                raise InternalInvariantViolation(
                    "visited-vertex out-degree invariant broken outside an endgame"
                )
        else:
            self.endgame_moves += 1
            if self.endgame_moves > 6 * og.n + 30:
                raise InternalInvariantViolation("trap endgame exceeded its move budget")

    def _take_step(self, r: int):
        """(script name, action) of the plan's first step open to a robber on r."""
        if not self.plan:
            raise InternalInvariantViolation("scripted endgame ended without trapping the robber")
        step = next((s for s in self.plan if s[0] is None or s[0] == r), None)
        if step is None:
            raise InternalInvariantViolation(f"robber expected at {self.plan[0][0]}, found at {r}")
        _, script, action, self.plan = step
        if isinstance(action, str):
            raise InternalInvariantViolation(action)
        return script, action

    def _start_script(self, plan: tuple) -> tuple:
        self._note_endgame()
        return plan

    # invariant-maintenance dispatch --------------------------------------

    def _dispatch(self, game: Game, og: OrientedGraph, u: int, cop: int) -> tuple:
        """The plan for the robber on u: a script's, or one push whose rest,
        None, leaves no script running."""
        d = og.out_degree(u)
        if d == 4:
            self._note_endgame()
            return _line(None, Push(u), rest=None)
        if d == 3:
            # base case restores the invariant; the induction case corners the
            # robber between u and its now-trapped predecessor
            after = game.pushed(og.parity, u)
            if all(after.out_degree(w) <= 1 for w in self.visited):
                self.mode = "invariant"
            else:
                self._note_endgame()
            return _line(None, Push(u), rest=None)
        x, y = sorted(og.out_neighbors(u))
        if og.graph.has_edge(x, y):
            if og.has_arc(y, x):
                x, y = y, x  # relabel so the arc runs x -> y
            return self._start_script(self._claim_edge(game, og, u, x, y))
        if og.out_degree(x) != 2 or og.out_degree(y) != 2:
            if og.out_degree(x) == 2:
                x, y = y, x  # x takes the off-degree role
            return self._start_script(self._claim_neighbor_visited(game, og, x, y))
        visx = [w for w in og.out_neighbors(x) if w in self.visited]
        visy = [w for w in og.out_neighbors(y) if w in self.visited]
        if not visx:
            self.mode = "invariant"
            return _line(None, Push(x), rest=None)
        if not visy:
            self.mode = "invariant"
            return _line(None, Push(y), rest=None)
        common = sorted(set(visx) & set(visy))
        if common:
            x1 = y1 = common[0]
        else:
            x1, y1 = min(visx), min(visy)
        x2 = next(w for w in og.out_neighbors(x) if w != x1)
        y2 = next(w for w in og.out_neighbors(y) if w != y1)
        if og.graph.has_edge(x1, x2) or og.graph.has_edge(y1, y2):
            if not og.graph.has_edge(x1, x2):
                x, y, x1, x2, y1, y2 = y, x, y1, y2, x1, x2
            return self._start_script(self._nonedge_case1(game, og, x, y, x1, x2, y1))
        return self._start_script(
            self._nonedge_case2(game, og, cop, u, x, y, x1, x2, y1, y2))

    # scripted endgames.  Each plans from the orientation it starts on, with
    # a message step for anything outside its case analysis.

    def _claim_edge(self, game, og, u, x, y):
        S = "_claim_edge"
        dx, dy = og.out_degree(x), og.out_degree(y)
        if dx <= 2:
            # robber forced to x with out-degree <= 1; the trap fires generically
            return _line(S, Push(y), None, "robber survived the one-push edge trap")
        if dy <= 1:
            outy = _pushed(game, og, x).out_neighbors(y)
            if len(outy) != 2 or x not in outy:
                return _line(S, Push(x), y, "expected the pushed x back among y's exits")
            w = next(q for q in outy if q != x)
            if set(_pushed(game, og, x, w).out_neighbors(x)) != {u, w}:
                return _line(S, Push(x), y, Push(w), x, "x's exits differ from {u, w}")
            return _line(S, Push(x), y, Push(w), x, Push(w))  # robber forced back to u, one exit
        # dx == 3, dy == 2: the robber is forced back to the now-sealed u
        last = (Push(y) if _pushed(game, og, x).out_degree(y) == 3
                else "y should have gained the flipped x arc")
        return _line(S, Push(x), y, last)

    def _claim_neighbor_visited(self, game, og, x, y):
        # x's out-degree differs from 2 and the x-y edge is absent; the robber
        # is forced to u, where both exits are spent
        last = (Push(x) if _pushed(game, og, y).out_degree(x) == 3
                else "off-degree exit should be 3 when not trapped outright")
        return _line("_claim_neighbor_visited", Push(y), x, last)

    def _nonedge_case1(self, game, og, x, y, x1, x2, y1):
        S = "_nonedge_case1"
        if og.has_arc(x1, x2):
            return _line(S, Push(y), x, Push(x2))  # robber forced to x1, back to out-degree <= 1
        # the x1-x2 edge points x2 -> x1
        d1 = og.out_degree(x1)
        if x1 == y1:
            if d1 == 1:
                return _line(S, Push(y), x, Push(x2), x1, Push(x1))  # x's exits both spent
            if d1 == 0:
                outs = og.out_neighbors(x2)
                on_x2 = "unexpected robber position after the double push"
                if len(outs) == 2:
                    on_x2 = (Push(next(q for q in outs if q != x1)) if x1 in outs
                             else "x1 should still be an exit of x2")
                elif len(outs) == 3:
                    on_x2 = Push(x2)
                return _double_push(S, x, y, x2, on_x2)
            raise InternalInvariantViolation("visited x1 should have out-degree <= 1")
        # x1 != y1
        if d1 == 0:
            return _line(S, Push(y), x, Push(x2))  # robber forced to x1 with at most one exit
        w1 = og.out_neighbors(x1)[0]
        d2 = og.out_degree(x2)
        if d2 == 1:
            # robber forced to x2, whose lone exit was spent
            return _line(S, Push(y), x, Push(y), rest=(
                (x, S, Push(x1), ()),
                (None, S, "x1/x2 moves should have been trapped generically", ()),
            ))
        if d2 == 2 and _pushed(game, og, y).out_degree(x2) == 3:
            outs = _pushed(game, og, y, x2, w1).out_neighbors(x2)
            last = (Push(next(q for q in outs if q != x)) if len(outs) == 2 and x in outs
                    else "x should be among x2's two exits")
            # robber forced back to x, nearly sealed
            return _line(S, Push(y), x, Push(x2), x1, Push(w1), x2, last)
        return _line(S, Push(y), x, Push(x1))  # robber forced to x2 with at most one exit

    def _nonedge_case2(self, game, og, cop, u, x, y, x1, x2, y1, y2):
        S = "_nonedge_case2"
        if x1 != y1:
            # x1 is not among y's exits, so neither push can raise its out-degree
            return _line(S, Push(y), x, Push(x2))
        d2, dy2 = og.out_degree(x2), og.out_degree(y2)
        if d2 != 2 or dy2 != 2:
            if d2 == 2:
                x, y, x2, y2 = y, x, y2, x2
            # on x2 the robber is forced back to x with one spent exit
            on_x2 = (Push(x2) if og.out_degree(x2) == 3
                     else "unexpected robber position after the double push")
            return _double_push(S, x, y, x2, on_x2)
        if x2 == y2:
            return _line(S, Push(y), x, Push(x1), x2, Push(x2))  # x's exits both spent
        if og.graph.has_edge(y, x2):
            # the edge must run x2 -> y, so pushing y spends one of x2's exits
            return _line(S, Push(y), x, Push(x1))  # robber forced to x2 with at most one exit
        if og.out_degree(x1) == 0:
            return _line(S, Push(y), x, Push(x2))
        return self._walk_to_gadget(game, og, cop, u, x, y, x1, x2, y2)

    def _walk_to_gadget(self, game, og, z, u, x, y, x1, x2, y2):
        S = "_walk_to_gadget"
        g = og.graph
        v_in = og.in_neighbors(u)
        x_in = [w for w in og.in_neighbors(x) if w != u]
        y_in = [w for w in og.in_neighbors(y) if w != u]
        outs_x1 = og.out_neighbors(x1)
        if len(v_in) != 2 or len(x_in) != 1 or len(y_in) != 1 or len(outs_x1) != 1:
            raise InternalInvariantViolation("gadget cast does not have the expected degrees")
        xp, yp = x_in[0], y_in[0]
        w4 = outs_x1[0]
        rest = [w for w in g.adj[x1] if w not in (x, y, w4)]
        if len(rest) != 1:
            raise InternalInvariantViolation("x1's fourth neighbor is not unique")
        w5 = rest[0]
        w1s = [w for w in og.in_neighbors(x2) if w != x]
        w8s = [w for w in og.in_neighbors(y2) if w != y]
        if len(w1s) != 1 or len(w8s) != 1:
            raise InternalInvariantViolation("x2/y2 in-neighborhoods do not match the gadget")
        w1, w8 = w1s[0], w8s[0]
        w2, w3 = sorted(og.out_neighbors(x2))
        w6, w7 = sorted(og.out_neighbors(y2))
        gadget = {v_in[0], v_in[1], u, xp, x, yp, y, x1, x2, y2, w1, w2, w3, w4, w5, w6, w7, w8}

        # every walk step moves the cop closer or turns the next arc its way
        walk = []
        while z not in gadget:
            nxt = g.path_to_nearest(z, gadget)[1]
            if og.has_arc(z, nxt):
                walk.append(MoveTo(nxt))
                z = nxt
            else:
                walk.append(Push(z))
                og = game.pushed(og.parity, z)
        # the robber left its camp while no gadget vertex was pushed: on x or
        # y it is forced to x1, whose lone exit w4 is next
        left = (
            (x, S, Push(x2), ()),
            (y, S, Push(y2), ()),
            (None, S, "robber left the camp through an unexpected exit", ()),
        )
        # the arrival plan's one first step, taken while the robber stays on u
        (_, name, act, then), = self._gadget_arrival(
            game, og, z, u, x, y, x1, x2, y2, v_in, xp, yp, w1, w2, w3, w4, w5, w6, w7, w8)
        plan = ((u, name, act, then),) + left
        for act in reversed(walk):
            plan = ((u, S, act, plan),) + left
        return plan

    def _gadget_arrival(self, game, og, t, u, x, y, x1, x2, y2, v_in, xp, yp,
                        w1, w2, w3, w4, w5, w6, w7, w8):
        A = "_gadget_arrival"
        if t in v_in:
            return _line(A, *_capture(og, t, u))
        if t == x or t == xp or t == x1 or t == x2 or t in (w5, w1, w4, w2, w3):
            if t == x:
                return _line(A, Push(y), None, "robber should have run onto the cop at x")
            og = game.pushed(og.parity, y)
            if t == xp:
                return _line(A, Push(y), x, *_capture(og, t, x))
            if t == x1:
                return _line(A, Push(y), x, Push(x2))  # robber forced onto the cop or trapped
            if t == w5:
                return _line(A, Push(y), x, Push(x2), x1, *_capture(_pushed(game, og, x2), t, x1))
            if t == w4:
                # restores x1's lone exit toward the cop
                return _line(A, Push(y), x, Push(x2), x1, Push(y))
            if t == x2:
                return _line(A, Push(y), x, Push(x1))
            if t == w1:
                return _line(A, Push(y), x, Push(x1), x2, *_capture(_pushed(game, og, x1), t, x2))
            # robber forced onto the cop or trapped generically
            return _line(A, Push(y), x, Push(x1), x2, Push(w3 if t == w2 else w2))
        if t == y or t == yp or t == y2 or t in (w8, w6, w7):
            if t == y:
                return _line(A, Push(x), None, "robber should have run onto the cop at y")
            og = game.pushed(og.parity, x)
            if t == yp:
                return _line(A, Push(x), y, *_capture(og, t, y))
            if t == y2:
                return _line(A, Push(x), y, Push(x1))
            if t == w8:
                return _line(A, Push(x), y, Push(x1), y2, *_capture(_pushed(game, og, x1), t, y2))
            return _line(A, Push(x), y, Push(x1), y2, Push(w7 if t == w6 else w6))
        return ((None, A, f"arrival vertex {t} has no scripted role", ()),)

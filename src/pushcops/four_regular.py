"""One strong-push cop against any orientation of a 4-regular graph.

The cop keeps every robber-visited vertex at out-degree <= 1.  When that
invariant cannot be maintained, one of a family of short scripted trap
endgames fires; the scripts re-read the live orientation at every step and
treat any robber deviation from a forced move as an immediate trap.  One
endgame requires the cop to physically walk toward a 17-vertex gadget around
the robber's camp before springing the trap.

A state outside a script's case analysis, or a script that ends without
trapping the robber, raises `InternalInvariantViolation` instead of guessing.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation, NotFourRegularError
from .engine import Game, GameState, MoveTo, PlaceCops, Push, Stay, Turn
from .graph import OrientedGraph, is_trapped
from .strategies import Strategy, trap_walk


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
        self.script = None  # the running script generator
        self.script_call: tuple | None = None  # its (method name, args)
        self.views: list[tuple] = []  # the live view at each of its advances
        self.audit_log: list[dict] = []
        # live view refreshed on every cop turn, read by the script generators
        self.cur_game: Game | None = None
        self.cur_og: OrientedGraph | None = None
        self.cur_robber: int | None = None
        self.cur_cop: int | None = None

    # framework -----------------------------------------------------------

    @property
    def memory(self):
        """(visited, mode, endgame moves, trap path, script); the script is None
        or (method name, args, the live view at each advance)."""
        script = self.script and (*self.script_call, tuple(self.views))
        return (frozenset(self.visited), self.mode, self.endgame_moves, self.trap_path, script)

    @memory.setter
    def memory(self, value):
        visited, self.mode, self.endgame_moves, self.trap_path, script = value
        self.visited = set(visited)
        self.script = None
        if script is not None:
            self._load_script(*script)

    def __call__(self, game: Game, state: GameState):
        if state.turn is Turn.COP_PLACEMENT:
            return PlaceCops((0,) * game.variant.cops)
        og = game.orientation(state)
        r = state.robber
        self.visited.add(r)
        self.cur_game, self.cur_og = game, og
        self.cur_robber, self.cur_cop = r, state.cops[0]
        if self.trap_path is None and is_trapped(og, r):
            self.trap_path = tuple(og.graph.shortest_path(state.cops[0], r))
            self.script = None  # never consulted again
        if self.trap_path is not None:
            return trap_walk(game, state, self.trap_path)
        if og.out_degree(r) == 1:
            # a push on the unique escape hatch traps the robber outright
            self.script = None
            self._note_endgame()
            agent = Push(og.out_neighbors(r)[0])
        elif self.script is not None:
            agent = self._advance_script()
        else:
            agent = self._dispatch(og, r)
        self._audit(og, agent)
        return (agent,) + (Stay(),) * (game.variant.cops - 1)

    def _note_endgame(self):
        if self.mode == "invariant":
            self.endgame_moves = 0
        self.mode = "endgame"

    def _audit(self, og: OrientedGraph, agent):
        after = self.cur_game.pushed(og.parity, agent.vertex) if isinstance(agent, Push) else og
        ok = all(after.out_degree(w) <= 1 for w in self.visited)
        gen = self.script  # the innermost running script, or None for a dispatch push
        while getattr(gen, "gi_yieldfrom", None) is not None:
            gen = gen.gi_yieldfrom
        self.audit_log.append({"mode": self.mode, "invariant": ok, "script": gen and gen.__name__})
        if self.mode == "invariant":
            if not ok:
                raise InternalInvariantViolation(
                    "visited-vertex out-degree invariant broken outside an endgame"
                )
        else:
            self.endgame_moves += 1
            if self.endgame_moves > 6 * og.n + 30:
                raise InternalInvariantViolation("trap endgame exceeded its move budget")

    def _start_script(self, method, *args):
        self._note_endgame()
        self._load_script(method.__name__, args)
        return self._advance_script()

    def _load_script(self, name: str, args: tuple, views=()):
        """Build the script `name(*args)` and replay the live views it has seen."""
        self.script, self.script_call, self.views = getattr(self, name)(*args), (name, args), []
        for view in views:
            self.cur_og, self.cur_robber, self.cur_cop = view
            self._advance_script()

    def _advance_script(self):
        self.views.append((self.cur_og, self.cur_robber, self.cur_cop))
        try:
            return next(self.script)
        except StopIteration:
            raise InternalInvariantViolation(
                "scripted endgame ended without trapping the robber"
            ) from None

    # invariant-maintenance dispatch --------------------------------------

    def _dispatch(self, og: OrientedGraph, u: int):
        d = og.out_degree(u)
        if d == 4:
            self._note_endgame()
            return Push(u)
        if d == 3:
            # base case restores the invariant; the induction case corners the
            # robber between u and its now-trapped predecessor
            after = self.cur_game.pushed(og.parity, u)
            if all(after.out_degree(w) <= 1 for w in self.visited):
                self.mode = "invariant"
            else:
                self._note_endgame()
            return Push(u)
        x, y = sorted(og.out_neighbors(u))
        if og.graph.has_edge(x, y):
            if og.has_arc(y, x):
                x, y = y, x  # relabel so the arc runs x -> y
            return self._start_script(self._claim_edge, u, x, y)
        if og.out_degree(x) != 2 or og.out_degree(y) != 2:
            if og.out_degree(x) == 2:
                x, y = y, x  # x takes the off-degree role
            return self._start_script(self._claim_neighbor_visited, u, x, y)
        visx = [w for w in og.out_neighbors(x) if w in self.visited]
        visy = [w for w in og.out_neighbors(y) if w in self.visited]
        if not visx:
            self.mode = "invariant"
            return Push(x)
        if not visy:
            self.mode = "invariant"
            return Push(y)
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
            return self._start_script(self._nonedge_case1, u, x, y, x1, x2, y1, y2)
        return self._start_script(self._nonedge_case2, u, x, y, x1, x2, y1, y2)

    # scripted endgames.  Each generator reads the live view between yields
    # and raises on anything outside its case analysis.

    def _expect_robber(self, v: int):
        if self.cur_robber != v:
            raise InternalInvariantViolation(f"robber expected at {v}, found at {self.cur_robber}")

    def _claim_edge(self, u, x, y):
        og = self.cur_og
        dx, dy = og.out_degree(x), og.out_degree(y)
        if dx <= 2:
            yield Push(y)
            # robber forced to x with out-degree <= 1; the trap fires generically
            raise InternalInvariantViolation("robber survived the one-push edge trap")
        if dy <= 1:
            yield Push(x)
            self._expect_robber(y)
            outy = self.cur_og.out_neighbors(y)
            if len(outy) != 2 or x not in outy:
                raise InternalInvariantViolation("expected the pushed x back among y's exits")
            w = next(q for q in outy if q != x)
            yield Push(w)
            self._expect_robber(x)
            if set(self.cur_og.out_neighbors(x)) != {u, w}:
                raise InternalInvariantViolation("x's exits differ from {u, w}")
            yield Push(w)
            return  # robber forced back to u with a single exit
        # dx == 3, dy == 2
        yield Push(x)
        self._expect_robber(y)
        if self.cur_og.out_degree(y) != 3:
            raise InternalInvariantViolation("y should have gained the flipped x arc")
        yield Push(y)
        return  # robber forced back to the now-sealed u

    def _claim_neighbor_visited(self, u, x, y):
        # x's out-degree differs from 2 and the x-y edge is absent
        yield Push(y)
        self._expect_robber(x)
        if self.cur_og.out_degree(x) != 3:
            raise InternalInvariantViolation(
                "off-degree exit should be 3 when not trapped outright"
            )
        yield Push(x)
        return  # robber forced to u, where both exits are spent

    def _nonedge_case1(self, u, x, y, x1, x2, y1, y2):
        og = self.cur_og
        if og.has_arc(x1, x2):
            yield Push(y)
            self._expect_robber(x)
            yield Push(x2)
            return  # robber forced to x1, back to out-degree <= 1
        # the x1-x2 edge points x2 -> x1
        d1 = og.out_degree(x1)
        if x1 == y1:
            if d1 == 1:
                yield Push(y)
                self._expect_robber(x)
                yield Push(x2)
                self._expect_robber(x1)
                yield Push(x1)
                return  # robber forced to x, where both exits are spent
            if d1 == 0:
                yield Push(y)
                self._expect_robber(x)
                yield Push(y)
                r = self.cur_robber
                if r == x:
                    yield Push(x2)
                    return
                if r == x2:
                    d2 = self.cur_og.out_degree(x2)
                    if d2 == 2:
                        outs = self.cur_og.out_neighbors(x2)
                        if x1 not in outs:
                            raise InternalInvariantViolation("x1 should still be an exit of x2")
                        yield Push(next(q for q in outs if q != x1))
                        return
                    if d2 == 3:
                        yield Push(x2)
                        return
                raise InternalInvariantViolation("unexpected robber position after the double push")
            raise InternalInvariantViolation("visited x1 should have out-degree <= 1")
        # x1 != y1
        if d1 == 0:
            yield Push(y)
            self._expect_robber(x)
            yield Push(x2)
            return  # robber forced to x1 with at most one exit
        w1 = og.out_neighbors(x1)[0]
        d2 = og.out_degree(x2)
        if d2 == 1:
            yield Push(y)
            self._expect_robber(x)
            yield Push(y)
            if self.cur_robber == x:
                yield Push(x1)
                return  # robber forced to x2, whose lone exit was spent
            raise InternalInvariantViolation("x1/x2 moves should have been trapped generically")
        if d2 == 2:
            yield Push(y)
            self._expect_robber(x)
            if self.cur_og.out_degree(x2) == 3:
                yield Push(x2)
                self._expect_robber(x1)
                yield Push(w1)
                self._expect_robber(x2)
                outs = self.cur_og.out_neighbors(x2)
                if len(outs) != 2 or x not in outs:
                    raise InternalInvariantViolation("x should be among x2's two exits")
                yield Push(next(q for q in outs if q != x))
                return  # robber forced back to x, nearly sealed
            yield Push(x1)
            return  # robber forced to x2 with at most one exit
        # d2 == 3
        yield Push(y)
        self._expect_robber(x)
        yield Push(x1)
        return  # robber forced to x2 with at most one exit

    def _nonedge_case2(self, u, x, y, x1, x2, y1, y2):
        og = self.cur_og
        if self.cur_robber != u:
            raise InternalInvariantViolation("case 2 script must start at the robber's vertex")
        if x1 != y1:
            # x1 is not among y's exits, so neither push can raise its out-degree
            yield Push(y)
            self._expect_robber(x)
            yield Push(x2)
            return
        d2, dy2 = og.out_degree(x2), og.out_degree(y2)
        if d2 != 2 or dy2 != 2:
            if d2 == 2:
                x, y, x2, y2 = y, x, y2, x2
            yield Push(y)
            self._expect_robber(x)
            yield Push(y)
            r = self.cur_robber
            if r == x:
                yield Push(x2)
                return
            if r == x2:
                if self.cur_og.out_degree(x2) == 3:
                    yield Push(x2)
                    return  # robber forced back to x with one spent exit
            raise InternalInvariantViolation("unexpected robber position after the double push")
        if x2 == y2:
            yield Push(y)
            self._expect_robber(x)
            yield Push(x1)
            self._expect_robber(x2)
            yield Push(x2)
            return  # robber forced to x, where both exits are spent
        if og.graph.has_edge(y, x2):
            # the edge must run x2 -> y, so pushing y spends one of x2's exits
            yield Push(y)
            self._expect_robber(x)
            yield Push(x1)
            return  # robber forced to x2 with at most one exit
        if og.out_degree(x1) == 0:
            yield Push(y)
            self._expect_robber(x)
            yield Push(x2)
            return
        yield from self._walk_to_gadget(u, x, y, x1, x2, y2)

    def _walk_to_gadget(self, u, x, y, x1, x2, y2):
        og = self.cur_og
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

        while self.cur_robber == u:
            z = self.cur_cop
            if z in gadget:
                yield from self._gadget_arrival(
                    z, u, x, y, x1, x2, y2, v_in, xp, yp, w1, w2, w3, w4, w5, w6, w7, w8
                )
                return
            nxt = g.path_to_nearest(z, gadget)[1]
            if self.cur_og.has_arc(z, nxt):
                yield MoveTo(nxt)
            else:
                yield Push(z)
        # the robber left its camp while no gadget vertex was pushed
        r = self.cur_robber
        if r == x:
            yield Push(x2)
            return  # robber forced to x1, whose lone exit w4 is next
        if r == y:
            yield Push(y2)
            return  # robber forced to x1 likewise
        raise InternalInvariantViolation("robber left the camp through an unexpected exit")

    def _gadget_arrival(self, t, u, x, y, x1, x2, y2, v_in, xp, yp, w1, w2, w3, w4, w5, w6, w7, w8):
        def check_arc(a, b):
            if not self.cur_og.has_arc(a, b):
                raise InternalInvariantViolation(f"expected arc {a}->{b} for the arrival endgame")

        if t in v_in:
            check_arc(t, u)
            yield MoveTo(u)  # capture
            raise InternalInvariantViolation("capture move did not end the match")
        if t == x or t == xp or t == x1 or t == x2 or t in (w5, w1, w4, w2, w3):
            yield Push(y)
            if t == x:
                raise InternalInvariantViolation("robber should have run onto the cop at x")
            self._expect_robber(x)
            if t == xp:
                check_arc(t, x)
                yield MoveTo(x)  # capture
                raise InternalInvariantViolation("capture move did not end the match")
            if t in (x1, w5, w4):
                yield Push(x2)
                if t == x1:
                    return  # robber forced onto the cop or trapped generically
                self._expect_robber(x1)
                if t == w5:
                    check_arc(t, x1)
                    yield MoveTo(x1)  # capture
                    raise InternalInvariantViolation("capture move did not end the match")
                yield Push(y)  # t == w4: restores x1's lone exit toward the cop
                return
            # t in (x2, w1, w2, w3)
            yield Push(x1)
            if t == x2:
                return
            self._expect_robber(x2)
            if t == w1:
                check_arc(t, x2)
                yield MoveTo(x2)  # capture
                raise InternalInvariantViolation("capture move did not end the match")
            yield Push(w3 if t == w2 else w2)
            return  # robber forced onto the cop or trapped generically
        if t == y or t == yp or t == y2 or t in (w8, w6, w7):
            yield Push(x)
            if t == y:
                raise InternalInvariantViolation("robber should have run onto the cop at y")
            self._expect_robber(y)
            if t == yp:
                check_arc(t, y)
                yield MoveTo(y)  # capture
                raise InternalInvariantViolation("capture move did not end the match")
            yield Push(x1)
            if t == y2:
                return
            self._expect_robber(y2)
            if t == w8:
                check_arc(t, y2)
                yield MoveTo(y2)  # capture
                raise InternalInvariantViolation("capture move did not end the match")
            yield Push(w7 if t == w6 else w6)
            return
        raise InternalInvariantViolation(f"arrival vertex {t} has no scripted role")


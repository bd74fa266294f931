"""Exception hierarchy shared by all pushcops modules."""


class PushcopsError(Exception):
    """Base class for every error raised by this package."""


# graph construction / validation

class GraphError(PushcopsError):
    pass


class SelfLoopError(GraphError):
    def __init__(self, v):
        super().__init__(f"self-loop at vertex {v}")
        self.vertex = v


class DuplicateEdgeError(GraphError):
    def __init__(self, u, v):
        super().__init__(f"duplicate edge {u}-{v}")
        self.edge = (u, v)


class TwoCycleError(GraphError):
    def __init__(self, u, v):
        super().__init__(f"both arcs {u}->{v} and {v}->{u} present")
        self.edge = (u, v)


class DisconnectedError(GraphError):
    def __init__(self, component):
        super().__init__(f"graph is disconnected; one component is {sorted(component)}")
        self.component = frozenset(component)


class NoVertexError(GraphError):
    def __init__(self, n):
        super().__init__(f"a graph needs at least one vertex, got n={n}")
        self.n = n


class VertexOutOfRangeError(GraphError):
    def __init__(self, v, n):
        super().__init__(f"vertex {v} out of range for n={n}")
        self.vertex = v


# push-to-DAG constructions

class NotADagError(PushcopsError):
    pass


class NotPushableToDagError(PushcopsError):
    pass


class TooLargeError(PushcopsError):
    def __init__(self, msg, size=None):
        super().__init__(msg)
        self.size = size


# game engine

class BadVariantError(PushcopsError):
    pass


class WrongTurnError(PushcopsError):
    pass


class IllegalActionError(PushcopsError):
    pass


class IllegalStrategyActionError(PushcopsError):
    def __init__(self, actor, round_no, reason):
        super().__init__(f"{actor} produced an illegal action in round {round_no}: {reason}")
        self.actor = actor
        self.round_no = round_no


# solver

class QueriedOnWrongArenaError(PushcopsError):
    pass


# strategies

class RobberNotTrappedError(PushcopsError):
    pass


class NotSingleSourceDagError(PushcopsError):
    pass


class NotFourRegularError(PushcopsError):
    pass


class NotCopWinError(PushcopsError):
    pass


class InternalInvariantViolation(PushcopsError):
    """A strategy reached a state its case analysis cannot justify.

    This is a bug surfaced loudly, never silently worked around.
    """


# generators

class BadFamilyParamsError(PushcopsError):
    pass

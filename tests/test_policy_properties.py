"""Property tests for the policy language."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from greenlb.policy import (
    LEAVES,
    OPERATORS,
    BinOp,
    DSpace,
    EvaluationError,
    IntLit,
    Leaf,
    NdResolution,
    Neg,
    PowerState,
    ServerSnapshot,
    draws_random,
    evaluate,
    parse_policy,
    pretty_print,
    select_server,
)

# Drawn from the vocabulary table, so a new leaf or operator is covered
# without touching this file.
_LEAVES = st.one_of(
    st.sampled_from(sorted(LEAVES)).map(Leaf),
    st.integers(min_value=0, max_value=99).map(IntLit),
    st.sampled_from(["q", "TO", "x7"]).map(DSpace),
)


def _compound(children):
    binary = [st.builds(BinOp, st.just(op), children, children) for op in sorted(OPERATORS)]
    return st.one_of(children.map(Neg), *binary)


ASTS = st.recursive(_LEAVES, _compound, max_leaves=25)

SNAPSHOTS = st.builds(
    ServerSnapshot,
    id=st.just(0),
    num_servers=st.just(1),
    queue_size=st.integers(min_value=0, max_value=50),
    power_state=st.sampled_from(list(PowerState)),
    design_params=st.just({"q": 5.0, "TO": 7.5, "x7": 0.25}),
)


@given(ASTS)
def test_pretty_print_round_trip(ast):
    assert parse_policy(pretty_print(ast)) == ast


def _random_leaves(ast) -> int:
    if isinstance(ast, Leaf):
        return int(ast.name == "random")
    children = [getattr(ast, f) for f in ("operand", "left", "right") if hasattr(ast, f)]
    return sum(map(_random_leaves, children))


class CountingRng:
    """A seeded generator that counts its draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()


@given(ASTS, SNAPSHOTS, st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluation_draws_once_per_random_leaf(ast, snap, seed):
    # the engine's memo scores a policy once per server state exactly when
    # draws_random says the policy draws nothing
    leaves = _random_leaves(ast)
    assert draws_random(ast) == (leaves > 0)
    rng = CountingRng(seed)
    try:
        evaluate(ast, snap, rng)
    except EvaluationError:
        return
    assert rng.draws == leaves


def _queue_cluster(queues):
    n = len(queues)
    return [
        ServerSnapshot(id=i, num_servers=n, queue_size=queues[i],
                       power_state=PowerState.ON)
        for i in range(n)
    ]


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
    st.sampled_from(list(NdResolution)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_unique_integer_maximum_always_wins(queues, nd, seed):
    # fractions in [0,1) cannot close an integer gap of >= 1
    assume(queues.count(min(queues)) == 1)
    expect = queues.index(min(queues))
    got = select_server(parse_policy("-queueSize"), _queue_cluster(queues),
                        nd, np.random.default_rng(seed))
    assert got == expect


@given(st.integers(min_value=1, max_value=8))
def test_fixed_order_tie_takes_highest_id(n):
    got = select_server(parse_policy("0"), _queue_cluster([0] * n),
                        NdResolution.FIXED_ORDER, None)
    assert got == n - 1


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
    st.sampled_from(list(NdResolution)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_selection_is_deterministic_per_seed(queues, nd, seed):
    expr = parse_policy("-queueSize + random")
    snaps = _queue_cluster(queues)
    a = select_server(expr, snaps, nd, np.random.default_rng(seed))
    b = select_server(expr, snaps, nd, np.random.default_rng(seed))
    assert a == b

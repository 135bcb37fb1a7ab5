"""Parser, evaluator, and selection golden tests."""

import math

import numpy as np
import pytest

from greenlb.policy import (
    LEAVES,
    BinOp,
    DSpace,
    EvaluationError,
    IntLit,
    Leaf,
    NdResolution,
    Neg,
    PolicySyntaxError,
    PowerState,
    ServerSnapshot,
    UndefinedDesignParamError,
    UnknownIdentifierError,
    evaluate,
    format_ast,
    parse_policy,
    pretty_print,
    select_server,
)


def snap(sid=0, n=1, queue=0, state=PowerState.ON, **kw):
    return ServerSnapshot(id=sid, num_servers=n, queue_size=queue, power_state=state, **kw)


class ScriptedRng:
    """Feeds a fixed sequence of uniform draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestParse:
    def test_shortest_queue_with_threshold(self):
        ast = parse_policy('-queueSize - dspace("q") * (1 - stateOn)')
        assert ast == BinOp(
            "-",
            Neg(Leaf("queueSize")),
            BinOp("*", DSpace("q"), BinOp("-", IntLit(1), Leaf("stateOn"))),
        )

    def test_zero_literal(self):
        assert parse_policy("0") == IntLit(0)

    def test_precedence(self):
        ast = parse_policy("1+2*3")
        assert ast == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))
        assert evaluate(ast, snap(), None) == 7.0

    def test_left_associativity(self):
        assert parse_policy("1-2-3") == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))
        assert evaluate(parse_policy("1-2-3"), snap(), None) == -4.0

    def test_parentheses(self):
        assert evaluate(parse_policy("(1+2)*3"), snap(), None) == 9.0

    def test_mod_keyword(self):
        assert parse_policy("7 mod 3") == BinOp("mod", IntLit(7), IntLit(3))

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse_policy("-2*3") == BinOp("*", Neg(IntLit(2)), IntLit(3))

    def test_double_unary_minus(self):
        assert parse_policy("--2") == Neg(Neg(IntLit(2)))

    def test_comments_and_whitespace(self):
        ast = parse_policy("# prefer short queues\n-queueSize  # per server\n")
        assert ast == Neg(Leaf("queueSize"))

    def test_all_terminals(self):
        text = (
            "ID + numServers + queueSize + stateOn + stateSleep + stateSuspend"
            " + stateWakeup + powerOn + powerSleep + powerSuspend + powerWakeup"
            " + timeWakeup + timeSuspend + timeOutTime + random + 3"
        )
        parse_policy(text)  # must not raise

    def test_id_both_spellings(self):
        assert parse_policy("id") == parse_policy("ID") == Leaf("ID")

    def test_syntax_error_has_position(self):
        with pytest.raises(PolicySyntaxError) as err:
            parse_policy("1 +\n* 2")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError, match="busyness"):
            parse_policy("busyness + 1")

    def test_unexpected_character(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("1 ? 2")

    def test_trailing_input(self):
        with pytest.raises(PolicySyntaxError, match="trailing"):
            parse_policy("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("(1 + 2")

    def test_dspace_needs_string(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("dspace(q)")
        with pytest.raises(PolicySyntaxError):
            parse_policy('dspace("")')

    def test_empty_input(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("")


class TestPrettyPrint:
    @pytest.mark.parametrize(
        "text",
        [
            "-queueSize",
            '-queueSize - dspace("q") * (1 - stateOn)',
            "1 - (2 - 3)",
            "(1 + 2) * 3",
            "2 * (3 mod 2)",
            "-(1 + 2)",
            "1 - -2",
            "ID / numServers",
        ],
    )
    def test_round_trip(self, text):
        ast = parse_policy(text)
        assert parse_policy(pretty_print(ast)) == ast

    def test_format_ast_shape(self):
        out = format_ast(parse_policy("1+2"))
        assert out.splitlines() == ["Add", "  IntLit 1", "  IntLit 2"]


class TestEvaluate:
    def test_shortest_queue_value(self):
        # shortest-queue policy on a queue of 2
        assert evaluate(parse_policy("-queueSize"), snap(queue=2), None) == -2.0

    def test_threshold_policy_sleeping_server(self):
        expr = parse_policy("-queueSize - 5*(1-stateOn)")
        assert evaluate(expr, snap(queue=0, state=PowerState.SLEEP), None) == -5.0

    def test_threshold_policy_on_server(self):
        expr = parse_policy("-queueSize - 5*(1-stateOn)")
        assert evaluate(expr, snap(queue=1, state=PowerState.ON), None) == -1.0

    def test_state_indicators_sum_to_one(self):
        expr = parse_policy("stateOn + stateSleep + stateSuspend + stateWakeup")
        for state in PowerState:
            assert evaluate(expr, snap(state=state), None) == 1.0

    def test_constants(self):
        s = snap(sid=2, n=4, power_sleep=14.0, time_wakeup=10.0, timeout_time=7.5)
        assert evaluate(parse_policy("ID"), s, None) == 2.0
        assert evaluate(parse_policy("numServers"), s, None) == 4.0
        assert evaluate(parse_policy("powerSleep"), s, None) == 14.0
        assert evaluate(parse_policy("timeWakeup"), s, None) == 10.0
        assert evaluate(parse_policy("timeOutTime"), s, None) == 7.5

    def test_random_consumes_stream(self):
        rng = ScriptedRng([0.25, 0.5])
        expr = parse_policy("random + random")
        assert evaluate(expr, snap(), rng) == 0.75

    def test_dspace_lookup(self):
        s = snap(design_params={"q": 5.0})
        assert evaluate(parse_policy('dspace("q")'), s, None) == 5.0

    def test_dspace_undefined(self):
        with pytest.raises(UndefinedDesignParamError, match="q"):
            evaluate(parse_policy('dspace("q")'), snap(), None)

    def test_division(self):
        assert evaluate(parse_policy("1/4"), snap(), None) == 0.25

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_policy("1/0"), snap(), None)

    def test_mod_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_policy("1 mod 0"), snap(), None)

    @pytest.mark.parametrize("policy", ["timeOutTime mod 3", "-timeOutTime mod 3"])
    def test_mod_of_infinite_dividend(self, policy):
        # math.fmod raises a bare ValueError here; evaluate wraps it
        with pytest.raises(EvaluationError, match="infinite dividend"):
            evaluate(parse_policy(policy), snap(timeout_time=math.inf), None)

    def test_mod_sign_follows_dividend(self):
        assert evaluate(parse_policy("-7 mod 3"), snap(), None) == math.fmod(-7, 3) == -1.0
        assert evaluate(parse_policy("7 mod -3"), snap(), None) == 1.0

    def test_threshold_policy_with_random_leaf(self):
        expr = parse_policy('-queueSize - dspace("q") * (1 - stateOn) + random')
        s = snap(queue=3, state=PowerState.SLEEP, design_params={"q": 5.0})
        assert evaluate(expr, s, ScriptedRng([0.125])) == -8.0 + 0.125


# One row per vocabulary leaf: its value on LEAF_SNAP (with the random leaf
# drawing 0.375) and its format_ast label.
LEAF_SNAP = dict(sid=2, n=4, queue=3, state=PowerState.WAKEUP, power_on=201.0,
                 power_sleep=14.5, power_suspend=190.0, power_wakeup=180.0,
                 time_wakeup=11.0, time_suspend=9.0, timeout_time=7.5)
LEAF_EXPECTED = {
    "ID": (2.0, "Id"),
    "numServers": (4.0, "NumServers"),
    "queueSize": (3.0, "QueueSize"),
    "stateOn": (0.0, "StateOn"),
    "stateSleep": (0.0, "StateSleep"),
    "stateSuspend": (0.0, "StateSuspend"),
    "stateWakeup": (1.0, "StateWakeup"),
    "powerOn": (201.0, "PowerOn"),
    "powerSleep": (14.5, "PowerSleep"),
    "powerSuspend": (190.0, "PowerSuspend"),
    "powerWakeup": (180.0, "PowerWakeup"),
    "timeWakeup": (11.0, "TimeWakeup"),
    "timeSuspend": (9.0, "TimeSuspend"),
    "timeOutTime": (7.5, "TimeOutTime"),
    "random": (0.375, "Random"),
}


@pytest.mark.parametrize("name", sorted(set(LEAVES) | set(LEAF_EXPECTED)))
def test_leaf_table(name):
    value, label = LEAF_EXPECTED[name]
    ast = parse_policy(name)
    assert ast == Leaf(name)
    s = snap(**LEAF_SNAP)
    assert evaluate(ast, s, ScriptedRng([0.375])) == value
    assert pretty_print(ast) == name
    assert format_ast(ast) == label


@pytest.mark.parametrize("field", ["power_on", "power_sleep", "power_suspend", "power_wakeup",
                                   "time_wakeup", "time_suspend", "timeout_time"])
@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_snapshot_rejects_negative_or_nan_constants(field, value):
    with pytest.raises(ValueError, match=f"{field} must be non-negative"):
        snap(**{field: value})


class TestSelectServer:
    def cluster(self, queues, states=None, n=None, params=None):
        n = n or len(queues)
        states = states or [PowerState.ON] * n
        params = params or {}
        return [
            snap(sid=i, n=n, queue=queues[i], state=states[i], design_params=params)
            for i in range(n)
        ]

    def test_fixed_order_all_equal_prefers_highest_id(self):
        # fractions 0, 0.25, 0.5, 0.75 on equal base values
        snaps = self.cluster([0, 0, 0, 0])
        got = select_server(parse_policy("0"), snaps, NdResolution.FIXED_ORDER, None)
        assert got == 3

    def test_random_draws_as_values(self):
        # the draws are the policy values; the highest one wins
        snaps = self.cluster([0, 0, 0, 0])
        rng = ScriptedRng([0.61, 0.46, 0.70, 0.76])
        got = select_server(parse_policy("0"), snaps, NdResolution.RANDOM_FRACTION, rng)
        assert got == 3

    def test_random_policy_leaf_selects_highest_draw(self):
        snaps = self.cluster([0, 0, 0, 0])
        rng = ScriptedRng([0.61, 0.46, 0.70, 0.76])
        got = select_server(parse_policy("random"), snaps, NdResolution.FIXED_ORDER, rng)
        assert got == 3

    def test_single_server(self):
        for nd in NdResolution:
            got = select_server(parse_policy("0"), self.cluster([5]),
                                nd, np.random.default_rng(7))
            assert got == 0

    def test_unique_max_wins_under_both_modes(self):
        snaps = self.cluster([2, 0, 3, 1])
        for nd in NdResolution:
            got = select_server(parse_policy("-queueSize"), snaps,
                                nd, np.random.default_rng(11))
            assert got == 1

    def test_evaluation_errors_propagate(self):
        with pytest.raises(EvaluationError):
            select_server(parse_policy("1/0"), self.cluster([0]),
                          NdResolution.FIXED_ORDER, None)

    def test_requires_complete_id_range(self):
        bad = [snap(sid=1, n=3, queue=0), snap(sid=2, n=3, queue=0)]
        with pytest.raises(ValueError):
            select_server(parse_policy("0"), bad, NdResolution.FIXED_ORDER, None)
        with pytest.raises(ValueError):
            select_server(parse_policy("0"), [], NdResolution.FIXED_ORDER, None)

    def test_snapshot_order_does_not_matter(self):
        snaps = self.cluster([3, 1, 2, 0])
        got = select_server(parse_policy("-queueSize"), list(reversed(snaps)),
                            NdResolution.FIXED_ORDER, None)
        assert got == 3

    def test_residual_exact_tie_goes_to_lowest_id(self):
        # base value -id/numServers cancels the fixed-order fraction exactly,
        # leaving every resolved value at 0.0
        expr = parse_policy("0 - ID / numServers")
        got = select_server(expr, self.cluster([0, 0, 0, 0]),
                            NdResolution.FIXED_ORDER, None)
        assert got == 0

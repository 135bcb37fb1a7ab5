"""Event-loop tests: arrivals, ordering, stop criteria, determinism."""

import csv
import itertools
import logging
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenlb.cluster
import greenlb.engine
from greenlb.cluster import PowerModel
from greenlb.engine import (
    SimConfig,
    SimulationError,
    StopCriterion,
    UniformBlocks,
    generate_interarrival,
    run,
    simulate,
)
from greenlb.events import EventKind
from greenlb.metrics import summarize
from greenlb.policy import (
    EvaluationError,
    NdResolution,
    PowerState,
    ServerSnapshot,
    UndefinedDesignParamError,
    parse_policy,
    select_server,
)
from greenlb.validation import replay_oracle

from helpers import assert_timeline_wellformed, reference_simulate
from test_policy_properties import ASTS


class ScriptedRng:
    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


def config(**kw):
    defaults = dict(
        num_servers=4,
        arrival_rate=1.0,
        service_time=1.0,
        policy=parse_policy('-queueSize - dspace("q") * (1 - stateOn)'),
        design_params={"q": 5.0},
        stop=StopCriterion(max_requests=200),
        warmup=0.0,
        seed=42,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestInterarrival:
    def test_inverse_cdf_identity(self):
        gap = generate_interarrival(ScriptedRng([1 - math.exp(-1)]), rate=1.0)
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_zero_draw_is_redrawn(self):
        gap = generate_interarrival(ScriptedRng([0.0, 0.5]), rate=1.0)
        assert gap == pytest.approx(math.log(2), abs=1e-12)
        assert gap > 0

    def test_rate_scales_gaps(self):
        u = 0.5
        assert generate_interarrival(ScriptedRng([u]), rate=2.0) == pytest.approx(
            generate_interarrival(ScriptedRng([u]), rate=1.0) / 2
        )

    def test_empirical_mean_near_one(self):
        # law of large numbers: a million unit-rate draws average to ~1
        rng = np.random.default_rng(7)
        total = 0.0
        n = 1_000_000
        for _ in range(n):
            total += generate_interarrival(rng, rate=1.0)
        assert total / n == pytest.approx(1.0, abs=0.01)

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            generate_interarrival(ScriptedRng([0.5]), rate=0.0)


class ScriptedGenerator:
    """A stand-in ``Generator`` whose ``random(k)`` hands out scripted blocks."""

    def __init__(self, blocks):
        self._blocks = [np.array(b, dtype=float) for b in blocks]

    def random(self, size):
        block = self._blocks.pop(0)
        assert len(block) == size
        return block


class TestUniformBlocks:
    """Block draws yield exactly the values of scalar ``Generator.random()`` calls."""

    BLOCK = 1024  # the refill size of UniformBlocks

    def test_random_and_take_match_scalar_draws_across_blocks(self):
        blocks = UniformBlocks(np.random.default_rng(11))
        scalar = np.random.default_rng(11)
        got = []
        while len(got) < 4 * self.BLOCK:  # 3 block boundaries, crossed by both calls
            got.append(blocks.random())
            got.extend(blocks.take(7))  # 7 does not divide the block size
        assert got == [scalar.random() for _ in got]
        assert all(type(u) is float for u in got)

    def test_interarrival_gaps_match_plain_generator(self):
        blocks = UniformBlocks(np.random.default_rng(13))
        plain = np.random.default_rng(13)
        for _ in range(3 * self.BLOCK + 50):
            assert generate_interarrival(blocks, 0.7) == generate_interarrival(plain, 0.7)

    def test_zero_at_block_boundary_is_redrawn(self):
        draws = [0.25] * (self.BLOCK - 1) + [0.0] + [0.75, 0.375] + [0.5] * (self.BLOCK - 2)
        blocks = UniformBlocks(ScriptedGenerator([draws[:self.BLOCK], draws[self.BLOCK:]]))
        scripted = ScriptedRng(draws)
        count = self.BLOCK + 1
        gaps = [generate_interarrival(blocks, 2.0) for _ in range(count)]
        assert gaps == [generate_interarrival(scripted, 2.0) for _ in range(count)]
        assert gaps[self.BLOCK - 1] == -math.log1p(-0.75) / 2.0
        assert gaps[self.BLOCK] == -math.log1p(-0.375) / 2.0


class TestEventOrdering:
    def test_tie_rank_settles_state_before_arrivals(self):
        ranked = sorted(EventKind, key=int)
        assert ranked == [
            EventKind.SERVICE_COMPLETE,
            EventKind.SUSPEND_DONE,
            EventKind.WAKEUP_DONE,
            EventKind.TIMEOUT,
            EventKind.ARRIVAL,
        ]

    def test_arrivals_at_a_completion_an_idle_end_and_a_suspend_end(self, monkeypatch):
        # Arrivals at 1, 12, 33 and 54 on one server that starts On, TO = 10.
        # 12 ends the idle window opened at 2: the server is already suspending.
        # 33 is when the queued request's service ends: it completes first.
        # 54 ends the suspend entered at 44: the server is already asleep.
        gaps = iter([1.0, 11.0, 21.0, 21.0, 1e9])
        monkeypatch.setattr(greenlb.engine, "generate_interarrival",
                            lambda rng, rate: next(gaps))
        cfg = config(num_servers=1, arrival_rate=0.5, policy=parse_policy("0"),
                     design_params={}, power=PowerModel(timeout=10.0),
                     initial_state=PowerState.ON, stop=StopCriterion(max_requests=4))
        record = simulate(cfg)
        requests = record.requests
        assert list(requests.arrival) == [1.0, 12.0, 33.0, 54.0]
        assert list(requests.completion) == [2.0, 33.0, 34.0, 65.0]
        on, suspend, sleep, wakeup = (PowerState.ON, PowerState.SUSPEND, PowerState.SLEEP,
                                      PowerState.WAKEUP)
        assert record.timelines == [[
            (0.0, on), (12.0, suspend), (22.0, wakeup), (32.0, on),
            (44.0, suspend), (54.0, sleep), (54.0, wakeup), (64.0, on),
        ]]
        oracle = replay_oracle(requests.arrival, requests.server, 1, cfg.power,
                               cfg.service_time, cfg.initial_state)
        assert oracle.latencies == [1.0, 21.0, 1.0, 11.0]
        assert oracle.latencies == [c - a for a, c in zip(requests.arrival, requests.completion)]


class TestRun:
    def test_single_request_from_sleep_takes_wakeup_plus_service(self):
        record = simulate(config(stop=StopCriterion(max_requests=1)))
        (arrival,), (completion,) = record.requests.arrival, record.requests.completion
        # a 10 s wakeup from the arrival, then 1 s of service
        assert completion == arrival + 10.0 + 1.0

    def test_constant_argmax_monopolises_one_server(self):
        record = simulate(config(policy=parse_policy("0 - id"), design_params={}))
        assert record.assignment_counts == [200, 0, 0, 0]

    def test_default_run_convention(self):
        result = run(SimConfig(design_params={"q": 5.0}, policy=parse_policy(
            '-queueSize - dspace("q") * (1 - stateOn)')))
        assert result.requests_completed == 1500

    def test_all_requests_complete_and_partition(self):
        record = simulate(config())
        assert len(record.requests) == 200
        assert not np.isnan(record.requests.completion).any()
        assert sum(record.assignment_counts) == 200
        assert min(record.requests.server) >= 0

    def test_replay_determinism(self):
        a = simulate(config())
        b = simulate(config())
        assert a.requests.arrival == b.requests.arrival
        assert a.requests.completion == b.requests.completion
        assert a.assignment_counts == b.assignment_counts
        assert a.timelines == b.timelines

    def test_different_seed_changes_workload(self):
        a = simulate(config())
        b = simulate(config(seed=43))
        assert a.requests.arrival != b.requests.arrival

    def test_arrival_stream_immune_to_nd_mode(self):
        a = simulate(config(nd=NdResolution.RANDOM_FRACTION))
        b = simulate(config(nd=NdResolution.FIXED_ORDER))
        assert a.requests.arrival == b.requests.arrival

    def test_timelines_wellformed(self):
        record = simulate(config())
        for timeline in record.timelines:
            assert_timeline_wellformed(timeline, record.config.power)

    def test_policy_failure_names_request_index(self):
        bad = config(policy=parse_policy('dspace("missing")'), design_params={})
        with pytest.raises(SimulationError, match="request 0"):
            simulate(bad)

    @pytest.mark.parametrize("nd, index", [(NdResolution.RANDOM_FRACTION, 4),
                                           (NdResolution.FIXED_ORDER, 3)])
    def test_mid_run_policy_failure_names_request_index(self, nd, index):
        # the first arrival that finds a server holding 3 requests divides by zero
        bad = config(policy=parse_policy("-1 / (queueSize - 3)"), design_params={},
                     nd=nd, seed=1, stop=StopCriterion(max_requests=2000))
        with pytest.raises(SimulationError, match=f"request {index}: division by zero"):
            simulate(bad)

    def test_mod_of_infinite_timeout_names_request_index(self):
        bad = config(policy=parse_policy("timeOutTime mod 3"), design_params={},
                     power=PowerModel(timeout=math.inf))
        with pytest.raises(SimulationError, match="request 0: mod of an infinite dividend"):
            simulate(bad)


class TestStopCriteria:
    def test_max_requests_horizon_is_last_completion(self):
        record = simulate(config())
        assert record.horizon == max(record.requests.completion)

    def test_max_virtual_time_bounds_arrivals(self):
        record = simulate(config(stop=StopCriterion(max_virtual_time=50.0)))
        assert record.horizon == 50.0
        assert max(record.requests.arrival) <= 50.0
        assert not np.isnan(record.requests.completion).any()

    def test_zero_arrival_run(self):
        record = simulate(config(stop=StopCriterion(max_requests=0, max_virtual_time=100.0)))
        assert len(record.requests) == 0
        assert record.horizon == 100.0
        assert record.timelines == [[(0.0, PowerState.SLEEP)]] * 4

    def test_invalid_criteria_rejected(self):
        with pytest.raises(ValueError):
            StopCriterion().validate()
        with pytest.raises(ValueError):
            StopCriterion(max_requests=0).validate()
        with pytest.raises(ValueError):
            StopCriterion(max_virtual_time=-1.0).validate()
        with pytest.raises(ValueError):
            StopCriterion(max_requests=-1).validate()


class TestTrace:
    def test_conservation_and_latency_recomputed_from_trace(self, tmp_path):
        # per server at every event: arrivals == completions + queue size,
        # and FIFO-matching the trace reproduces the reported mean latency
        path = tmp_path / "trace.csv"
        result = run(config(stop=StopCriterion(max_requests=60)), trace_path=path)
        arrivals = {i: 0 for i in range(4)}
        completions = {i: 0 for i in range(4)}
        pending = {i: [] for i in range(4)}
        latencies = []
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            server = int(row["server"])
            t = float(row["time"])
            if row["event"] == "arrival":
                arrivals[server] += 1
                pending[server].append(t)
            elif row["event"] == "service_complete":
                completions[server] += 1
                latencies.append(t - pending[server].pop(0))
            assert arrivals[server] == completions[server] + int(row["queue_size"])
        assert len(latencies) == 60
        assert sum(latencies) / 60 == pytest.approx(result.avg_latency_s, abs=1e-12)

    def test_trace_export_schema_and_determinism(self, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        simulate(config(stop=StopCriterion(max_requests=20)), trace_path=path_a)
        simulate(config(stop=StopCriterion(max_requests=20)), trace_path=path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        with open(path_a) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "server", "event", "power_state", "queue_size"]
        events = {row[2] for row in rows[1:]}
        assert "arrival" in events and "service_complete" in events
        arrivals = [row for row in rows[1:] if row[2] == "arrival"]
        assert len(arrivals) == 20


class TestConfigValidation:
    def test_bad_values_rejected(self):
        for kw in (
            dict(num_servers=0),
            dict(arrival_rate=0.0),
            dict(service_time=0.0),
            dict(warmup=-1.0),
            dict(warmup=math.nan),
            dict(power=PowerModel(p_on=math.nan)),
            dict(power=PowerModel(t_wakeup=math.nan)),
            dict(initial_state=PowerState.SUSPEND),
        ):
            with pytest.raises(ValueError):
                config(**kw).validate()


DIFFERENTIAL_POLICIES = [
    '-queueSize - dspace("q") * (1 - stateOn)',
    "0",
    "ID",
    "random * 3 - queueSize",
    "timeOutTime - timeOutTime",  # NaN on every server when the timeout is inf
    "-queueSize + stateWakeup * 2 mod 3",
    "timeOutTime mod 3",  # fails at the first arrival when the timeout is inf
]


def assert_picks_equal_select_server(cfg):
    """Run ``cfg`` and check every pick against a fresh ``select_server``.

    Each server's (queue size, power state) is rebuilt from the run's trace.
    At every arrival all servers are scored afresh with ``select_server`` and
    the run's own policy substream, and its pick must be the assigned server.
    If the run fails, ``select_server`` must fail at the same arrival.
    Returns the number of arrivals picked before the run ended.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        try:
            record, failure = simulate(cfg, trace_path=path), None
        except SimulationError as exc:
            record, failure = None, exc
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
    policy_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    power = cfg.power
    state = [(0, cfg.initial_state)] * cfg.num_servers

    def reference_pick():
        snaps = [
            ServerSnapshot(
                id=i, num_servers=cfg.num_servers, queue_size=q, power_state=ps,
                power_on=power.p_on, power_sleep=power.p_sleep,
                power_suspend=power.p_suspend, power_wakeup=power.p_wakeup,
                time_wakeup=power.t_wakeup, time_suspend=power.t_suspend,
                timeout_time=power.timeout, design_params=cfg.design_params,
            )
            for i, (q, ps) in enumerate(state)
        ]
        return select_server(cfg.policy, snaps, cfg.nd, policy_rng)

    picks = []
    for row in rows:
        server = int(row["server"])
        if row["event"] == "arrival":
            picks.append(reference_pick())
            assert picks[-1] == server, f"arrival {len(picks) - 1}"
        state[server] = (int(row["queue_size"]), PowerState(row["power_state"]))
    if failure is None:
        assert picks == list(record.requests.server)
        return len(picks)
    # the failed arrival wrote no trace row, so it is arrival len(picks)
    assert f"request {len(picks)}: " in str(failure)
    with pytest.raises((EvaluationError, UndefinedDesignParamError)):
        reference_pick()
    return len(picks)


class TestSelection:
    """The loop's cached per-server values pick what ``select_server`` picks."""

    @pytest.mark.parametrize("timeout", [1.0, math.inf])
    @pytest.mark.parametrize("initial_state", [PowerState.SLEEP, PowerState.ON])
    @pytest.mark.parametrize("nd", list(NdResolution))
    @pytest.mark.parametrize("policy", DIFFERENTIAL_POLICIES)
    def test_every_pick_equals_select_server(self, policy, nd, initial_state, timeout):
        cfg = config(num_servers=5, policy=parse_policy(policy), nd=nd,
                     initial_state=initial_state, power=PowerModel(timeout=timeout),
                     stop=StopCriterion(max_requests=300), seed=3)
        fails = policy == "timeOutTime mod 3" and timeout == math.inf
        assert assert_picks_equal_select_server(cfg) == (0 if fails else 300)

    @settings(max_examples=300, deadline=None)
    @given(ast=ASTS, nd=st.sampled_from(list(NdResolution)),
           timeout=st.sampled_from([1.0, math.inf]))
    def test_generated_policy_picks_equal_select_server(self, ast, nd, timeout):
        cfg = config(num_servers=3, policy=ast, nd=nd, power=PowerModel(timeout=timeout),
                     design_params={"q": 5.0, "TO": 7.5, "x7": 0.25},
                     stop=StopCriterion(max_requests=100), seed=3)
        assert_picks_equal_select_server(cfg)

    @staticmethod
    def counted_evaluations(monkeypatch, cfg) -> float:
        """Policy evaluations per arrival over one run of ``cfg``."""
        calls = [0]
        evaluate = greenlb.engine.evaluate

        def counted(expr, snap, rng):
            calls[0] += 1
            return evaluate(expr, snap, rng)

        monkeypatch.setattr(greenlb.engine, "evaluate", counted)
        record = simulate(cfg)
        return calls[0] / len(record.requests)

    def test_arrival_scores_only_servers_whose_state_changed(self, monkeypatch):
        cfg = config(num_servers=64, arrival_rate=16.0,
                     stop=StopCriterion(max_virtual_time=200.0))
        # scoring every server would make 64 evaluations per arrival
        assert self.counted_evaluations(monkeypatch, cfg) < 5

    def test_random_leaf_scores_every_server_at_every_arrival(self, monkeypatch):
        cfg = config(num_servers=64, arrival_rate=16.0,
                     policy=parse_policy("random - queueSize"),
                     stop=StopCriterion(max_virtual_time=50.0))
        assert self.counted_evaluations(monkeypatch, cfg) == 64

    def test_each_server_state_is_snapshotted_once(self, monkeypatch, tmp_path):
        # a policy without random is a function of (id, queue size, state), so
        # each key seen in the run is scored once; scoring per arrival makes 2,000
        built = []

        def counting_snapshot(**fields):
            built.append((fields["id"], fields["queue_size"], fields["power_state"]))
            return ServerSnapshot(**fields)

        monkeypatch.setattr(greenlb.cluster, "ServerSnapshot", counting_snapshot)
        cfg = config(num_servers=1, arrival_rate=0.5, power=PowerModel(timeout=1.0),
                     stop=StopCriterion(max_requests=2000), seed=1)
        path = tmp_path / "trace.csv"
        simulate(cfg, trace_path=path)
        with open(path) as fh:
            seen = {(int(row["server"]), int(row["queue_size"]),
                     PowerState(row["power_state"])) for row in csv.DictReader(fh)}
        seen.add((0, 0, cfg.initial_state))
        assert len(built) == len(set(built))
        assert set(built) <= seen


REFERENCE_POLICIES = [p for p in DIFFERENTIAL_POLICIES if p != "timeOutTime mod 3"]


class TestReferenceModels:
    """The inline loop equals a loop over ``Cluster`` handlers and ``select_server``."""

    @pytest.mark.parametrize("initial_state", [PowerState.SLEEP, PowerState.ON])
    @pytest.mark.parametrize("nd", list(NdResolution))
    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    def test_simulate_equals_reference_loop(self, policy, nd, initial_state):
        for timeout, stop in itertools.product(
                [1.0, 10.0, math.inf],
                [StopCriterion(max_requests=300), StopCriterion(max_virtual_time=200.0)]):
            cfg = config(policy=parse_policy(policy), nd=nd, initial_state=initial_state,
                         power=PowerModel(timeout=timeout), arrival_rate=1.5, stop=stop,
                         seed=11)
            got, want = simulate(cfg), reference_simulate(cfg)
            where = f"timeout {timeout}, {stop}"
            for column in ("arrival", "server", "completion"):
                assert (getattr(got.requests, column).tolist()
                        == getattr(want.requests, column).tolist()), f"{column}, {where}"
            assert got.timelines == want.timelines, where
            assert repr(got.horizon) == repr(want.horizon), where
            assert got.assignment_counts == want.assignment_counts, where


class TestOverloadWarning:
    def test_overloaded_run_logs_one_warning(self, caplog):
        cfg = config(num_servers=2, arrival_rate=2.0, stop=StopCriterion(max_requests=50))
        with caplog.at_level(logging.WARNING, logger="greenlb"):
            simulate(cfg)
        (rec,) = caplog.records
        assert rec.name == "greenlb" and rec.levelno == logging.WARNING
        assert "grow without bound" in rec.getMessage()

    def test_stable_run_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="greenlb"):
            simulate(config())
        assert caplog.records == []


class TestMemory:
    # Peak bytes traced per request over simulate + summarize.  Two 8-byte
    # columns and a 4-byte one take 20; one Request object kept per arrival
    # took about 200.
    BOUND_BYTES_PER_REQUEST = 64

    def test_long_run_peak_is_a_few_columns_per_request(self):
        n = 50_000
        cfg = SimConfig(num_servers=1, arrival_rate=0.5, service_time=1.0,
                        power=PowerModel(timeout=math.inf), policy=parse_policy("0"),
                        stop=StopCriterion(max_requests=n), warmup=500.0, seed=404,
                        initial_state=PowerState.ON)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = summarize(simulate(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.requests_completed == n
        assert (peak - before) / n < self.BOUND_BYTES_PER_REQUEST

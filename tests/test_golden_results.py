"""Headline results of four short runs and one trace, pinned to the last bit.

A change that only claims speed must leave every run's AL, AP and both CI
half-widths bit-identical.  The first three values were produced by the
engine that scored every server with a fresh ``ServerSnapshot`` at each
arrival, so a cache on the arrival path that alters any pick, draw or event
fails here.  The ``random``-leaf case and the trace digest were produced by
the engine that drew every uniform with a scalar ``Generator.random()``
call: the first crosses many blocks of the policy substream, which its
leaves and tie fractions share, and the second fails on any change to the
order of events, even one that leaves AL and AP as they were.
"""

import hashlib
import math

import pytest

from greenlb.cluster import PowerModel
from greenlb.engine import SimConfig, StopCriterion, run, simulate
from greenlb.policy import NdResolution, PowerState, parse_policy

THRESHOLD = '-queueSize - dspace("q") * (1 - stateOn)'

GOLDEN = {
    "md1-n1-always-on": (
        SimConfig(num_servers=1, arrival_rate=0.5, service_time=1.0,
                  power=PowerModel(timeout=math.inf), policy=parse_policy("0"),
                  initial_state=PowerState.ON, stop=StopCriterion(max_requests=2000),
                  warmup=100.0, seed=1),
        ('1.5689379795451117', '200.0', '0.15267834967998647', '7.4749491318822e-15'),
    ),
    "threshold-n4-q5-to1-random": (
        SimConfig(num_servers=4, arrival_rate=1.0, service_time=1.0,
                  power=PowerModel(timeout=1.0), policy=parse_policy(THRESHOLD),
                  nd=NdResolution.RANDOM_FRACTION, design_params={"q": 5.0},
                  stop=StopCriterion(max_virtual_time=2000.0), warmup=100.0, seed=2),
        ('6.198832080779569', '180.95003720934605', '0.83754664017185', '7.881171720599968'),
    ),
    "threshold-n16-fixed-order": (
        SimConfig(num_servers=16, arrival_rate=4.0, service_time=1.0,
                  power=PowerModel(timeout=10.0), policy=parse_policy(THRESHOLD),
                  nd=NdResolution.FIXED_ORDER, design_params={"q": 5.0},
                  stop=StopCriterion(max_virtual_time=600.0), warmup=100.0, seed=3),
        ('1.2270737473652265', '79.71569205504689', '0.10574988484104468', '2.640797897609233'),
    ),
    "random-leaf-n8-random": (
        SimConfig(num_servers=8, arrival_rate=0.5, service_time=1.0,
                  power=PowerModel(timeout=1.0), policy=parse_policy("random * 3 - queueSize"),
                  nd=NdResolution.RANDOM_FRACTION, stop=StopCriterion(max_requests=3000),
                  warmup=100.0, seed=4),
        ('12.5889986265704', '182.96583414189163', '0.22624415052704794', '2.7850165839468684'),
    ),
}

TRACE_SHA256 = "de1ff3c787953fd504b053b85afa1565ba5ec7de94c4f7657b8591fe4bcc293d"


@pytest.mark.parametrize("name", list(GOLDEN))
def test_headline_results_are_bit_identical(name):
    cfg, expected = GOLDEN[name]
    r = run(cfg)
    got = tuple(map(repr, (r.avg_latency_s, r.avg_power_per_server_w,
                           r.latency_ci_halfwidth, r.power_ci_halfwidth)))
    assert got == expected


def test_trace_is_byte_identical(tmp_path):
    cfg = SimConfig(num_servers=4, arrival_rate=1.0, service_time=1.0,
                    power=PowerModel(timeout=1.0), policy=parse_policy(THRESHOLD),
                    nd=NdResolution.RANDOM_FRACTION, design_params={"q": 5.0},
                    stop=StopCriterion(max_requests=2000), warmup=100.0, seed=2)
    path = tmp_path / "trace.csv"
    simulate(cfg, trace_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256

"""The traffic, serving, KV and host config dataclasses refuse NaN,
infinite and out-of-bound numbers at construction, as ``EngineConfig``
does.

A comparison such as ``x <= 0`` is False for NaN, so a guard written that
way lets NaN through to the middle of a run; each guard here is written
so that NaN fails it.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.host.model import HostConfig
from repro.kvcache import KvCacheConfig
from repro.serving.continuous import ContinuousBatchPolicy
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.generator import PrefixSpec, TrafficConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

#: Values a positive field refuses: non-finite, zero or negative.
NOT_POSITIVE = st.one_of(NON_FINITE, st.integers(max_value=0),
                         st.floats(max_value=0.0))
#: Values a non-negative field refuses: non-finite or negative.
NEGATIVE = st.one_of(NON_FINITE, st.integers(max_value=-1),
                     st.floats(max_value=0.0, exclude_max=True))
#: Values a share in [0, 1] refuses.
NOT_A_SHARE = st.one_of(NON_FINITE, st.floats(max_value=0.0, exclude_max=True),
                        st.floats(min_value=1.0, exclude_min=True))
#: Values a fraction in (0, 1) refuses.
NOT_OPEN_FRACTION = st.one_of(NON_FINITE, st.floats(max_value=0.0),
                              st.floats(min_value=1.0))

#: Every numeric field of each config, with the values it refuses and a
#: strategy of values it accepts.
FIELDS = {
    ArrivalSpec: {
        "rate_per_s": (NOT_POSITIVE, st.floats(0.01, 1e4)),
        "duration_s": (NOT_POSITIVE, st.floats(0.01, 1e4)),
        "burst_multiplier": (st.one_of(NON_FINITE, st.floats(max_value=1.0)),
                             st.floats(1.01, 100.0)),
        "burst_fraction": (NOT_OPEN_FRACTION, st.floats(0.01, 0.99)),
        "burst_dwell_s": (NOT_POSITIVE, st.floats(0.001, 10.0)),
        "amplitude": (st.one_of(NON_FINITE,
                                st.floats(max_value=0.0, exclude_max=True),
                                st.floats(min_value=1.0)),
                      st.floats(0.0, 0.99)),
        "period_s": (NOT_POSITIVE, st.one_of(st.none(),
                                             st.floats(0.01, 1e4))),
    },
    TrafficConfig: {
        "prompt_len": (NOT_POSITIVE, st.integers(1, 10**6)),
        "output_tokens": (NOT_POSITIVE, st.integers(1, 10**6)),
        "tenants": (NOT_POSITIVE, st.integers(1, 64)),
        "prompt_jitter": (NEGATIVE, st.integers(0, 10**6)),
        "output_jitter": (NEGATIVE, st.integers(0, 10**6)),
        "sessions": (NEGATIVE, st.integers(0, 10**4)),
    },
    PrefixSpec: {
        "share": (NOT_A_SHARE, st.floats(0.0, 1.0)),
        "prefix_len": (NOT_POSITIVE, st.integers(1, 10**6)),
        "pool": (NOT_POSITIVE, st.integers(1, 64)),
    },
    ContinuousBatchPolicy: {
        "max_active": (NOT_POSITIVE, st.integers(1, 16)),
        "context_bucket": (NOT_POSITIVE, st.integers(1, 4096)),
        # A nonzero budget must cover the default max_active of 16.
        "chunk_tokens": (NEGATIVE, st.one_of(st.just(0),
                                              st.integers(16, 10**6))),
    },
    KvCacheConfig: {
        "block_tokens": (NOT_POSITIVE, st.integers(1, 256)),
        "pool_gib": (NOT_POSITIVE, st.one_of(st.none(),
                                             st.floats(1e-3, 1e3))),
    },
    HostConfig: {
        "cores": (NEGATIVE, st.integers(0, 256)),
        "numa": (NEGATIVE, st.one_of(st.none(), st.integers(0, 8))),
    },
}

#: Numeric fields with no bound: any seed is a seed.
UNBOUNDED = {(ArrivalSpec, "seed")}

CASES = [(config, name) for config, fields in FIELDS.items()
         for name in fields]


@pytest.mark.parametrize("config", FIELDS, ids=lambda c: c.__name__)
def test_every_numeric_field_is_covered(config):
    numeric = {f.name for f in dataclasses.fields(config)
               if f.type in ("int", "float", "int | None", "float | None")
               and (config, f.name) not in UNBOUNDED}
    assert numeric == set(FIELDS[config])
    config()


@given(case=st.sampled_from(CASES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_refuses_a_bad_number(case, data):
    """NaN, an infinity or an out-of-bound value fails at construction,
    with the field's name in the message."""
    config, name = case
    value = data.draw(FIELDS[config][name][0], label=name)
    with pytest.raises(ConfigurationError, match=name):
        config(**{name: value})


@given(case=st.sampled_from(CASES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_config_accepts_a_good_number(case, data):
    config, name = case
    value = data.draw(FIELDS[config][name][1], label=name)
    assert getattr(config(**{name: value}), name) == value

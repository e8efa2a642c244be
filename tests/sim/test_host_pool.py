"""CpuPool mechanics: booking, NUMA spill, pinning."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.host.pool import CoreGrant, CpuCore, CpuPool, pool_from_domains


def _two_socket_pool(cores_per=2, penalty=1.5):
    return pool_from_domains([(0, cores_per), (1, cores_per)],
                             remote_penalty=penalty)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_pool_rejects_degenerate_shapes():
    with pytest.raises(ConfigurationError):
        CpuPool([])
    with pytest.raises(ConfigurationError):
        CpuPool([CpuCore(index=0, domain=0), CpuCore(index=0, domain=1)])
    with pytest.raises(ConfigurationError):
        CpuPool([CpuCore(index=0, domain=0)], remote_penalty=0.5)


def test_pool_from_domains_numbers_cores_densely():
    pool = _two_socket_pool()
    assert [(c.index, c.domain) for c in pool.cores] == [
        (0, 0), (1, 0), (2, 1), (3, 1)]
    assert pool.domains() == {0: 2, 1: 2}
    assert pool.capacity == 4


def test_dispatch_rejects_negative_share_and_time():
    pool = _two_socket_pool()
    with pytest.raises(SimulationError):
        pool.dispatch("r", ts_ns=0.0, cpu_ns=-1.0)
    with pytest.raises(SimulationError):
        pool.dispatch("r", ts_ns=-1.0, cpu_ns=1.0)


# ----------------------------------------------------------------------
# Synchronous booking
# ----------------------------------------------------------------------
def test_contended_core_queues_bookings_back_to_back():
    pool = pool_from_domains([(0, 1)])
    first = pool.dispatch("a", ts_ns=0.0, cpu_ns=10.0, domain=0)
    second = pool.dispatch("b", ts_ns=4.0, cpu_ns=10.0, domain=0)
    assert (first.start_ns, first.end_ns) == (0.0, 10.0)
    # b asked at t=4 but the only core frees at t=10: a 6ns stall.
    assert (second.start_ns, second.end_ns) == (10.0, 20.0)
    assert pool.busy_ns == 20.0
    assert pool.cores[0].grants == 2


def test_local_core_wins_ties_over_remote():
    pool = _two_socket_pool()
    grant = pool.dispatch("r0", ts_ns=5.0, cpu_ns=1.0, domain=1)
    # Both sockets are idle: remote is not *strictly* earlier, so the
    # booking stays local (lowest index of domain 1).
    assert (grant.core, grant.domain, grant.remote) == (2, 1, False)
    assert grant.cpu_ns == 1.0


def test_remote_spill_is_strictly_earlier_and_penalized():
    pool = _two_socket_pool(cores_per=1, penalty=1.5)
    pool.dispatch("r0", ts_ns=0.0, cpu_ns=100.0, domain=0)
    spilled = pool.dispatch("r0", ts_ns=10.0, cpu_ns=8.0, domain=0)
    assert spilled.remote and spilled.domain == 1
    assert spilled.start_ns == 10.0          # no stall: the spill's point
    assert spilled.cpu_ns == pytest.approx(8.0 * 1.5)
    assert spilled.end_ns == pytest.approx(10.0 + 12.0)


def test_pinned_booking_waits_for_its_domain():
    pool = _two_socket_pool(cores_per=1)
    pool.dispatch("r0", ts_ns=0.0, cpu_ns=100.0, domain=0)
    pinned = pool.dispatch("r0", ts_ns=10.0, cpu_ns=8.0, domain=0,
                           pinned=True)
    assert not pinned.remote
    assert (pinned.core, pinned.start_ns) == (0, 100.0)


def test_pinned_booking_into_an_empty_domain_is_refused():
    pool = pool_from_domains([(0, 1)])
    with pytest.raises(SimulationError, match="no core in domain 1"):
        pool.dispatch("r0", ts_ns=0.0, cpu_ns=1.0, domain=1, pinned=True)
    # Unpinned, the same booking spills to the only domain there is.
    grant = pool.dispatch("r0", ts_ns=0.0, cpu_ns=1.0, domain=1)
    assert grant.remote and grant.core == 0


def test_domainless_booking_treats_every_core_as_local():
    pool = _two_socket_pool(cores_per=1)
    pool.dispatch("router", ts_ns=0.0, cpu_ns=50.0)
    second = pool.dispatch("router", ts_ns=1.0, cpu_ns=5.0)
    assert second.core == 1 and not second.remote


def test_grant_is_immutable_record():
    grant = CoreGrant(owner="r0", core=0, domain=0, start_ns=0.0,
                      end_ns=1.0, cpu_ns=1.0)
    with pytest.raises(AttributeError):
        grant.core = 1

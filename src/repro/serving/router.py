"""Pluggable request routing for the serving cluster.

A router answers one question: *which live replica should serve this
request?*  Policies trade load balance against cache affinity:

- :class:`RoundRobinRouter` — rotate over live replicas; the trivial
  baseline.
- :class:`LeastLoadedRouter` — the live replica with the fewest requests
  in flight (ties break on the lowest index), the latency-minimizing
  default.
- :class:`ConsistentHashRouter` — a virtual-node hash ring over the
  quantized insight key, so repeated queries for the same (or
  float-noise-close) insight land on the same replica and hit its warm
  L1 result cache.  Ring walks skip dead replicas, so a kill only moves
  the keys that replica owned.

Routing is pure: a router sees the routing key, the per-replica in-flight
loads, and the liveness mask, and returns an index.  All policies are
deterministic — no RNG — so cluster results are reproducible and
bit-identical to single-replica serving for any policy (routing decides
*where* a request decodes, never *what* the decode returns).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Sequence

from repro.errors import ServingError

#: Virtual nodes per replica on the consistent-hash ring.  Enough to keep
#: the key-space split even at small replica counts; cheap to build.
DEFAULT_VNODES = 64

ROUTING_POLICIES = ("least-loaded", "consistent-hash", "round-robin")


def _hash64(data: bytes) -> int:
    """A stable 64-bit hash (process-independent, unlike ``hash()``)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class Router:
    """Base class: stateless-per-request replica selection."""

    name = "base"

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise ServingError(f"router needs >= 1 replica, got {replicas}")
        self.replicas = int(replicas)

    # ------------------------------------------------------------------
    def route(
        self,
        key: bytes,
        loads: Sequence[int],
        alive: Optional[Sequence[bool]] = None,
    ) -> int:
        """The replica index for a request with routing ``key``.

        ``loads[i]`` is replica *i*'s in-flight request count and
        ``alive[i]`` its liveness (all live when ``None``).  Raises
        :class:`ServingError` when no replica is alive — the gateway
        turns that into respawn-or-degrade, never a silent drop.
        """
        live = self._live_indices(alive)
        return self._pick(key, loads, live)

    def _live_indices(self, alive: Optional[Sequence[bool]]) -> List[int]:
        if alive is None:
            return list(range(self.replicas))
        live = [i for i in range(self.replicas) if alive[i]]
        if not live:
            raise ServingError("no live replica to route to")
        return live

    def _pick(self, key: bytes, loads: Sequence[int],
              live: List[int]) -> int:
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Rotate over live replicas, ignoring both key and load."""

    name = "round-robin"

    def __init__(self, replicas: int) -> None:
        super().__init__(replicas)
        self._next = 0

    def _pick(self, key: bytes, loads: Sequence[int],
              live: List[int]) -> int:
        choice = live[self._next % len(live)]
        self._next += 1
        return choice


class LeastLoadedRouter(Router):
    """The live replica with the fewest in-flight requests.

    Ties break on the lowest replica index, so the choice is a pure
    function of the load vector — deterministic replay for free.
    """

    name = "least-loaded"

    def _pick(self, key: bytes, loads: Sequence[int],
              live: List[int]) -> int:
        return min(live, key=lambda i: (loads[i], i))


class ConsistentHashRouter(Router):
    """A virtual-node hash ring keyed on the quantized insight.

    Each replica owns ``vnodes`` points on a 64-bit ring; a request maps
    to the first point clockwise from its key's hash.  Identical (and
    quantization-close) insights therefore always reach the same replica
    — its L1 result cache stays warm — while the virtual nodes keep the
    ownership split statistically even.  When the owning replica is dead
    the walk continues clockwise to the next live owner, so only the dead
    replica's arc of keys moves.
    """

    name = "consistent-hash"

    def __init__(self, replicas: int, vnodes: int = DEFAULT_VNODES) -> None:
        super().__init__(replicas)
        if vnodes < 1:
            raise ServingError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        points = []
        for replica in range(self.replicas):
            for vnode in range(self.vnodes):
                points.append(
                    (_hash64(f"replica:{replica}:vnode:{vnode}".encode()),
                     replica)
                )
        points.sort()
        self._ring = [point for point, _ in points]
        self._owner = [owner for _, owner in points]

    def _pick(self, key: bytes, loads: Sequence[int],
              live: List[int]) -> int:
        live_set = set(live)
        start = bisect.bisect_left(self._ring, _hash64(key))
        for offset in range(len(self._ring)):
            owner = self._owner[(start + offset) % len(self._ring)]
            if owner in live_set:
                return owner
        raise ServingError("no live replica to route to")


_ROUTERS = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    ConsistentHashRouter.name: ConsistentHashRouter,
}


def router_for(policy: str, replicas: int) -> Router:
    """Build the router for a ``--routing`` policy name."""
    try:
        cls = _ROUTERS[policy]
    except KeyError:
        raise ServingError(
            f"unknown routing policy {policy!r}; "
            f"choose from {sorted(_ROUTERS)}"
        ) from None
    return cls(replicas)

"""``DistributedConfig`` — frozen, validated actor/learner knobs.

One typed object declares everything the distributed online loop may do:
how many actor processes evaluate proposals, whether the learner runs the
deterministic synchronous schedule or the bounded-staleness asynchronous
one, how much actor death the elastic membership absorbs before degrading,
and the seeded chaos-kill rehearsal knobs.  It composes into
:class:`~repro.core.online.OnlineConfig` as ``distributed=`` exactly the
way :class:`~repro.runtime.session.RuntimeConfig` composes as ``runtime=``
— invalid combinations raise a typed
:class:`~repro.errors.RuntimeConfigError` before any process spawns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import RuntimeConfigError

#: The two learner schedules (see docs/distributed.md).
MODES = ("sync", "async")


@dataclass(frozen=True)
class DistributedConfig:
    """Actor/learner execution knobs for the online fine-tuning loop.

    Args:
        actors: Actor processes evaluating proposals.  ``1`` in ``sync``
            mode is the determinism anchor: bit-identical to the serial
            :class:`~repro.core.online.OnlineFineTuner`, checkpoint bytes
            included.
        mode: ``"sync"`` — the learner proposes, actors only evaluate,
            every iteration is a barrier; bit-identical to serial at any
            actor count.  ``"async"`` — actors propose *and* evaluate
            against their last-synced policy replica; the learner updates
            from experience records in arrival order, bounded by
            ``max_policy_lag``.
        max_policy_lag: Async only — the oldest policy version whose
            experience the learner still accepts, as a distance from the
            current version.  Records older than that are dropped
            (counted) and their proposal slot re-issued.
        max_actor_respawns: Actor deaths the pool absorbs — each one
            respawning a warm replacement and re-dispatching the lost
            task with an incremented dispatch count — before membership
            stops healing and the loop degrades.
        queue_capacity: Async only — cap on proposals in flight at once
            (issued but not yet folded into an update).  ``None`` derives
            ``k * (max_policy_lag + 1)``, the largest window that cannot
            overrun the staleness bound by itself.
        degrade_to_serial: When the respawn budget runs dry, finish the
            run in-process through the learner's own session (default)
            instead of raising :class:`~repro.errors.WorkerPoolError`.
        kill_rate: Chaos rehearsal — per-task probability that an actor
            process exits hard (``os._exit``) instead of serving the
            task, drawn from a stream seeded by
            ``(kill_seed, actor id, spawn count)``.
        kill_seed: Seed of the chaos-kill stream.
    """

    actors: int = 1
    mode: str = "sync"
    max_policy_lag: int = 1
    max_actor_respawns: int = 8
    queue_capacity: Optional[int] = None
    degrade_to_serial: bool = True
    kill_rate: float = 0.0
    kill_seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.actors, int) or isinstance(self.actors, bool) \
                or self.actors < 1:
            raise RuntimeConfigError(
                f"actors must be an int >= 1, got {self.actors!r}"
            )
        if self.mode not in MODES:
            raise RuntimeConfigError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if not isinstance(self.max_policy_lag, int) \
                or isinstance(self.max_policy_lag, bool) \
                or self.max_policy_lag < 0:
            raise RuntimeConfigError(
                f"max_policy_lag must be a non-negative int, "
                f"got {self.max_policy_lag!r}"
            )
        if not isinstance(self.max_actor_respawns, int) \
                or isinstance(self.max_actor_respawns, bool) \
                or self.max_actor_respawns < 0:
            raise RuntimeConfigError(
                f"max_actor_respawns must be a non-negative int, "
                f"got {self.max_actor_respawns!r}"
            )
        if self.queue_capacity is not None and (
            not isinstance(self.queue_capacity, int)
            or isinstance(self.queue_capacity, bool)
            or self.queue_capacity < 1
        ):
            raise RuntimeConfigError(
                f"queue_capacity must be an int >= 1 or None, "
                f"got {self.queue_capacity!r}"
            )
        if not isinstance(self.degrade_to_serial, bool):
            raise RuntimeConfigError(
                f"degrade_to_serial must be a bool, got "
                f"{type(self.degrade_to_serial).__name__}"
            )
        if not isinstance(self.kill_rate, (int, float)) \
                or isinstance(self.kill_rate, bool) \
                or not 0.0 <= float(self.kill_rate) <= 1.0:
            raise RuntimeConfigError(
                f"kill_rate must be a probability in [0, 1], "
                f"got {self.kill_rate!r}"
            )
        if not isinstance(self.kill_seed, int) \
                or isinstance(self.kill_seed, bool):
            raise RuntimeConfigError(
                f"kill_seed must be an int, got {self.kill_seed!r}"
            )

    def replace(self, **overrides) -> "DistributedConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def window(self, k: int) -> int:
        """The async in-flight proposal cap for batch size ``k``."""
        if self.queue_capacity is not None:
            return self.queue_capacity
        return max(1, int(k)) * (self.max_policy_lag + 1)

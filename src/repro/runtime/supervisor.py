"""One supervised process pool: the process protocol every child process uses.

Flow workers (:mod:`repro.runtime.session`), online actors
(:mod:`repro.distributed`) and serving replicas
(:mod:`repro.serving.cluster`) all run as members of a
:class:`SupervisedPool`.  The pool owns the one copy of the protocol:

- **Channels.**  Each member gets a private ``SimpleQueue`` for commands
  and a one-writer result ``Pipe``.  The parent closes its copy of the
  send end, so a member's death reads as EOF, and every result is one
  synchronous ``send``: no feeder thread and no lock shared with other
  processes, so a member killed at any instant can neither lose a result
  it already sent nor wedge a sibling's channel.
- **Draining.**  :meth:`SupervisedPool.poll` waits on every result pipe
  with ``multiprocessing.connection.wait``.  A dead member's pipe is
  drained before its death is acted on, so an answer sent before the
  death is delivered and the member's work is not also handed back as
  lost.  A member ships a non-flow exception back as a
  :class:`RemoteError`, and the parent re-raises it.
- **The dead-member pass.**  Each dead member is joined and handed back
  with its in-flight work (a :class:`Death`), and it is respawned while
  the respawn budget lasts.  Once the budget is used up the pool latches
  :attr:`SupervisedPool.degraded` and stops healing.
- **Chaos.**  :class:`Chaos` is the seeded kill draw a member makes before
  it serves a command, keyed by ``(seed, label, member id, spawn)``.
- **Shutdown.**  A sentinel to every live member, one deadline for the
  whole pool, SIGKILL for stragglers, and every pipe closed.
- **The live gauge**, under the client's metric name.

Clients keep only their policy: what a command means, what to do with
lost work, and whether a degraded pool finishes in-process or raises.
A member's main is a module-level function called as ``target(member_id,
spawn, commands, results, *args)``; it serves ``commands.get()`` until
the ``None`` sentinel and answers through ``results.send``.  Every member
starts trace-quiet (:func:`_member_main`), so its spans are dropped.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.observability import Tracer, get_registry, set_tracer
from repro.utils.rng import derive_rng

_METHODS = multiprocessing.get_all_start_methods()
#: The start method of every supervised process: ``fork`` when the
#: platform has it, so members inherit the parent's warm caches.
START_METHOD = "fork" if "fork" in _METHODS else _METHODS[0]

#: How long one :meth:`SupervisedPool.poll` blocks waiting for results.
POLL_S = 0.02

#: The whole pool's deadline for a graceful :meth:`SupervisedPool.shutdown`.
SHUTDOWN_S = 5.0

# How long a member whose pipe reached EOF may take to exit before it is
# killed.
_EXIT_GRACE_S = 1.0


def _member_main(target: Callable, *args) -> None:
    """Every member's entry point: install a disabled tracer, then run.

    A forked member inherits the parent's tracer and its open JSONL
    handle; writing through them would interleave the member's spans with
    the parent's under colliding span ids.
    """
    set_tracer(Tracer(exporter=None, enabled=False))
    target(*args)


class RemoteError:
    """Envelope for a non-flow exception raised inside a member.

    Configuration bugs (:class:`~repro.errors.ReproError` outside the
    flow taxonomy) must propagate to the caller, not be absorbed into
    results or mistaken for member death.  So the member catches them and
    ships them back over its result pipe, and the parent re-raises them.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class Chaos:
    """The seeded kill schedule of one member spawn.

    The stream is keyed by ``(seed, label, member id, spawn)``, so each
    member's kills are the same whatever the other members do.
    """

    def __init__(self, rate: float, seed: int, label: str, member_id: int,
                 spawn: int, exit_code: int) -> None:
        self.rate = float(rate)
        self.exit_code = int(exit_code)
        self._rng = derive_rng(seed, label, member_id, spawn)

    def draw(self) -> bool:
        """Whether the next command is one this member dies on."""
        return self.rate > 0 and float(self._rng.random()) < self.rate

    def strike(self) -> None:
        """Exit hard (``os._exit``) when the draw says so."""
        if self.draw():
            os._exit(self.exit_code)


class Member:
    """Parent-side handle of one supervised process."""

    __slots__ = ("id", "spawn", "process", "commands", "results",
                 "inflight", "dispatched_at")

    def __init__(self, member_id: int, spawn: int, process, commands,
                 results) -> None:
        self.id = member_id
        self.spawn = spawn
        self.process = process
        self.commands = commands
        self.results = results
        # The client's record of the work this member holds, or None.
        self.inflight: Optional[object] = None
        self.dispatched_at = 0.0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, command) -> None:
        """Queue ``command`` without marking work in flight."""
        self.commands.put(command)


class Death(NamedTuple):
    """One retired member: ``member.inflight`` is the work it lost, and
    ``replacement`` is its respawn (``None`` once the budget is gone)."""

    member: Member
    replacement: Optional[Member]


class SupervisedPool:
    """Keeps ``size`` member processes alive under a respawn budget.

    Args:
        target: The members' module-level main (see the module docstring).
        args: Called at every spawn for the main's extra arguments, so a
            respawn starts from the client's current state.
        size: Members started up front.
        max_respawns: Deaths absorbed by respawning before the pool
            latches :attr:`degraded`.
        gauge / gauge_help: Name and help of the live-member gauge.
        reuse_ids: A replacement takes the dead member's id (the serving
            cluster's routing slots); otherwise every spawn gets a fresh
            id.
        on_spawn: Called with each new member before any command is
            dispatched to it (the command queue is FIFO, so whatever it
            sends arrives first).
    """

    def __init__(
        self,
        target: Callable,
        args: Callable[[], Tuple],
        size: int,
        max_respawns: int,
        gauge: str,
        gauge_help: str = "",
        reuse_ids: bool = False,
        on_spawn: Optional[Callable[[Member], None]] = None,
    ) -> None:
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._target = target
        self._args = args
        self._gauge = gauge
        self._gauge_help = gauge_help
        self._reuse_ids = reuse_ids
        self._on_spawn = on_spawn
        self.max_respawns = int(max_respawns)
        self._members: Dict[int, Member] = {}
        self.spawns = 0
        self.respawns = 0
        self.degraded = False
        for _ in range(int(size)):
            self._spawn()
        self._update_gauge()

    # -- membership ----------------------------------------------------
    def _spawn(self, member_id: Optional[int] = None) -> Member:
        """Start one member; a fresh one's id is its spawn number."""
        spawn = self.spawns
        self.spawns += 1
        if member_id is None:
            member_id = spawn
        commands = self._ctx.SimpleQueue()
        results, sender = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_member_main,
            args=(self._target, member_id, spawn, commands, sender)
            + tuple(self._args()),
            daemon=True,
        )
        process.start()
        # The member now holds the only writer: its death reads as EOF.
        sender.close()
        member = Member(member_id, spawn, process, commands, results)
        self._members[member_id] = member
        if self._on_spawn is not None:
            self._on_spawn(member)
        return member

    @property
    def members(self) -> List[Member]:
        return list(self._members.values())

    def live_count(self) -> int:
        return sum(1 for member in self._members.values() if member.alive)

    def _update_gauge(self) -> None:
        get_registry().gauge(self._gauge, self._gauge_help).set(
            self.live_count()
        )

    def idle(self) -> List[Member]:
        """Live members with no work in flight, in id order."""
        return [
            member for _, member in sorted(self._members.items())
            if member.inflight is None and member.alive
        ]

    def retire(self, member: Member, kill: bool = False) -> Death:
        """Take ``member`` out of the pool and respawn it while the budget
        lasts; ``kill`` shoots a live member first (a watchdog)."""
        self._members.pop(member.id, None)
        process = member.process
        if kill and process.is_alive():
            process.kill()
        process.join(_EXIT_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join()
        member.results.close()
        replacement = None
        if self.respawns < self.max_respawns:
            self.respawns += 1
            replacement = self._spawn(
                member.id if self._reuse_ids else None
            )
        else:
            self.degraded = True
        self._update_gauge()
        return Death(member, replacement)

    # -- traffic -------------------------------------------------------
    def dispatch(self, member: Member, command, work=None) -> None:
        """Send one unit of work; ``work`` (default: the command itself)
        is what :meth:`poll` hands back if the member dies holding it."""
        member.send(command)
        member.inflight = command if work is None else work
        member.dispatched_at = time.monotonic()

    def broadcast(self, command) -> int:
        """Send ``command`` to every live member; returns the fan-out."""
        count = 0
        for member in self._members.values():
            if member.alive:
                try:
                    member.send(command)
                    count += 1
                except (OSError, ValueError):
                    pass
        return count

    def poll(
        self, timeout: float = POLL_S
    ) -> Tuple[List[Tuple[Member, object]], List[Death]]:
        """Every answer available now, and every member found dead.

        Blocks up to ``timeout`` for the first answer.  An answer clears
        its member's in-flight work (a member holds one unit at a time).
        Dead members' pipes are drained before they are retired, so a
        death's in-flight work is lost only if it was never answered.
        Re-raises the first :class:`RemoteError` it meets.
        """
        by_conn = {
            member.results: member for member in self._members.values()
        }
        answers: List[Tuple[Member, object]] = []
        if by_conn:
            for conn in multiprocessing.connection.wait(
                list(by_conn), timeout=timeout
            ):
                self._drain(by_conn[conn], answers)
        deaths: List[Death] = []
        for member in list(self._members.values()):
            if not member.alive:
                self._drain(member, answers)
                deaths.append(self.retire(member))
        return answers, deaths

    @staticmethod
    def _drain(member: Member,
               answers: List[Tuple[Member, object]]) -> None:
        conn = member.results
        while True:
            try:
                if not conn.poll(0):
                    return
                item = conn.recv()
            except (EOFError, OSError):
                return          # dead member; the caller retires it
            member.inflight = None
            if isinstance(item, RemoteError):
                raise item.error
            answers.append((member, item))

    # -- shutdown ------------------------------------------------------
    def shutdown(self, timeout_s: float = SHUTDOWN_S) -> None:
        """Sentinel to every live member, one deadline for the whole pool,
        then SIGKILL for stragglers (idempotent).

        The bounded wait lets idle members exit cleanly without letting a
        wedged or stopped one block shutdown.
        """
        members = list(self._members.values())
        self.broadcast(None)
        deadline = time.monotonic() + timeout_s
        for member in members:
            member.process.join(max(0.0, deadline - time.monotonic()))
        for member in members:
            if member.process.is_alive():
                member.process.kill()
                member.process.join()
            member.results.close()
        self._members.clear()
        self._update_gauge()

"""The shared supervised process pool: one chaos matrix for every client.

Flow workers, online actors and serving replicas are all members of
:class:`repro.runtime.supervisor.SupervisedPool`.  These tests kill an
echo member at each message boundary — on receipt of a command, after
its work but before its send, right after its send, and on a broadcast —
and hold the pool to its contract:

- every dispatched command is answered exactly once or handed back
  exactly once as lost, and an answer sent before a death is collected
  and not also handed back;
- each death uses one respawn until the budget is gone, then
  ``degraded`` latches;
- the live gauge equals ``live_count()``;
- shutdown with a stopped member finishes within its deadline.
"""

import multiprocessing
import os
import pathlib
import re
import signal
import time
from collections import Counter, deque

import numpy as np
import pytest

from repro.observability import get_registry
from repro.runtime.supervisor import (
    Chaos,
    RemoteError,
    SupervisedPool,
)
from repro.utils.rng import derive_rng

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

GAUGE = "supervisor_test_members_live"
KILL_EXIT_CODE = 29
KILL_POINTS = ("receipt", "before-send", "after-send")


def echo_member(member_id, spawn, commands, results, tag):
    """Answers ``("work", task, kill)`` with ``(tag, member_id, task**2)``
    and exits where ``kill`` says; ``("broadcast", None, kill)`` gets no
    answer."""
    while True:
        command = commands.get()
        if command is None:
            return
        kind, task, kill = command
        if kind == "broadcast":
            if kill == "broadcast":
                os._exit(KILL_EXIT_CODE)
            continue
        if kill == "receipt":
            os._exit(KILL_EXIT_CODE)
        if kind == "fail":
            results.send(RemoteError(ValueError(f"task {task} failed")))
            continue
        answer = (tag, member_id, task * task)
        if kill == "before-send":
            os._exit(KILL_EXIT_CODE)
        results.send(answer)
        if kill == "after-send":
            os._exit(KILL_EXIT_CODE)


def make_pool(size=2, max_respawns=3, tag="echo"):
    return SupervisedPool(
        echo_member, lambda: (tag,), size=size,
        max_respawns=max_respawns, gauge=GAUGE,
    )


def gauge_value():
    return get_registry().gauge(GAUGE).value


def drive(pool, tasks, kill=None, timeout_s=60.0):
    """Dispatch each task once; collect answers and lost work by task."""
    backlog = deque(tasks)
    answered, lost = Counter(), Counter()
    dispatched, deaths = [], []
    deadline = time.monotonic() + timeout_s
    while backlog or any(m.inflight is not None for m in pool.members):
        assert time.monotonic() < deadline, "the pool stopped answering"
        for member in pool.idle():
            if not backlog:
                break
            task = backlog.popleft()
            dispatched.append(task)
            pool.dispatch(member, ("work", task, kill))
        answers, died = pool.poll()
        for member, (tag, member_id, value) in answers:
            assert member.id == member_id
            answered[int(round(value ** 0.5))] += 1
        for death in died:
            deaths.append(death)
            if death.member.inflight is not None:
                lost[death.member.inflight[1]] += 1
        if not pool.members:
            break
    return dispatched, answered, lost, deaths


@pytest.fixture()
def pools():
    """Pools made by a test, shut down whatever it asserts."""
    made = []
    yield made
    for pool in made:
        pool.shutdown(timeout_s=1.0)


class TestChaosMatrix:
    @pytest.mark.parametrize("kill", KILL_POINTS)
    def test_every_command_answered_or_lost_exactly_once(self, kill, pools):
        pool = make_pool(size=2, max_respawns=3)
        pools.append(pool)
        # More tasks than the pool can take before it empties: each
        # member holds at most two commands before its death.
        dispatched, answered, lost, deaths = drive(pool, range(20), kill)
        # Every member dies on its first command: 2 members + 3 respawns.
        assert len(deaths) == 5 and pool.members == []
        for task in dispatched:
            assert answered[task] + lost[task] == 1, task
        if kill == "after-send":
            # Each member's answer, sent before its death, is collected
            # and never handed back; only a command queued behind it to
            # the dying member is lost.
            assert sum(answered.values()) == 5
            assert sum(lost.values()) == len(dispatched) - 5
        else:
            assert not answered
            assert sum(lost.values()) == len(dispatched) == 5

    @pytest.mark.parametrize("kill", KILL_POINTS)
    def test_each_death_uses_one_respawn_then_degraded_latches(
        self, kill, pools
    ):
        pool = make_pool(size=2, max_respawns=3)
        pools.append(pool)
        _, _, _, deaths = drive(pool, range(20), kill)
        replaced = [death for death in deaths if death.replacement]
        assert len(replaced) == pool.respawns == 3
        assert pool.degraded
        assert pool.spawns == 2 + 3
        assert pool.members == [] and pool.live_count() == 0
        assert gauge_value() == pool.live_count()

    def test_survivors_keep_serving_under_budget(self, pools):
        pool = make_pool(size=2, max_respawns=8)
        pools.append(pool)
        _, _, _, deaths = drive(pool, range(3), "before-send")
        assert len(deaths) == 3 and not pool.degraded
        dispatched, answered, lost, deaths = drive(pool, range(10, 16))
        assert not deaths and not lost
        assert sorted(answered) == dispatched == list(range(10, 16))
        assert pool.live_count() == len(pool.members) == 2
        assert gauge_value() == pool.live_count()

    def test_kill_on_broadcast(self, pools):
        pool = make_pool(size=3, max_respawns=3)
        pools.append(pool)
        answered, lost, deaths = Counter(), Counter(), []
        for round_tasks in ((0, 1, 2), (3, 4, 5)):
            for member, task in zip(pool.idle(), round_tasks):
                pool.dispatch(member, ("work", task, None))
            # FIFO: each member answers its work, then dies on the
            # broadcast that follows it.
            assert pool.broadcast(("broadcast", None, "broadcast")) == 3
            deadline = time.monotonic() + 30
            round_deaths = []
            while len(round_deaths) < 3:
                assert time.monotonic() < deadline
                answers, died = pool.poll()
                for _, (_, _, value) in answers:
                    answered[int(round(value ** 0.5))] += 1
                round_deaths += died
            for death in round_deaths:
                if death.member.inflight is not None:
                    lost[death.member.inflight[1]] += 1
            deaths += round_deaths
            assert gauge_value() == pool.live_count()
        assert answered == Counter(range(6)) and not lost
        assert len(deaths) == 6
        assert pool.respawns == 3 and pool.degraded
        assert pool.live_count() == 0

    def test_remote_error_is_reraised(self, pools):
        pool = make_pool(size=1)
        pools.append(pool)
        member = pool.idle()[0]
        pool.dispatch(member, ("fail", 4, None))
        deadline = time.monotonic() + 30
        with pytest.raises(ValueError, match="task 4 failed"):
            while time.monotonic() < deadline:
                pool.poll()
        assert member.inflight is None

    def test_on_spawn_sees_every_member_and_ids(self, pools):
        seen = []

        def on_spawn(member):
            seen.append((member.id, member.spawn))

        fresh = SupervisedPool(
            echo_member, lambda: ("echo",), size=2, max_respawns=2,
            gauge=GAUGE, on_spawn=on_spawn,
        )
        slots = SupervisedPool(
            echo_member, lambda: ("echo",), size=2, max_respawns=2,
            gauge=GAUGE, reuse_ids=True,
        )
        pools.extend([fresh, slots])
        drive(fresh, [0], "receipt")
        drive(slots, [0], "receipt")
        # Fresh ids number spawns; reused ids keep the routing slot.
        assert seen == [(0, 0), (1, 1), (2, 2)]
        assert sorted((m.id, m.spawn) for m in slots.members) == \
            [(0, 2), (1, 1)]


class TestBoundedShutdown:
    def test_stopped_member_within_deadline(self):
        pool = make_pool(size=2)
        processes = [member.process for member in pool.members]
        os.kill(processes[0].pid, signal.SIGSTOP)
        started = time.monotonic()
        pool.shutdown(timeout_s=1.0)
        assert time.monotonic() - started < 1.0 + 3.0
        assert not any(process.is_alive() for process in processes)
        assert pool.members == [] and gauge_value() == 0
        pool.shutdown()          # idempotent

    def test_cluster_close_with_stopped_replicas_is_bounded(self):
        """One deadline for the whole cluster, not one per replica."""
        from repro.core.model import InsightAlignModel
        from repro.core.recommender import InsightAlign
        from repro.insights.schema import INSIGHT_DIMS
        from repro.serving import (
            ClusterConfig,
            ServingCluster,
            ServingConfig,
        )

        before = {p.pid for p in multiprocessing.active_children()}
        cluster = ServingCluster(
            InsightAlign(InsightAlignModel(n_recipes=8, dim=16, seed=33)),
            ClusterConfig(replicas=3, backend="process", l2_capacity=0),
            ServingConfig(max_batch_size=4, max_wait_s=0.0,
                          cache_capacity=0),
        )
        replicas = [
            p for p in multiprocessing.active_children()
            if p.pid not in before
        ]
        try:
            insights = np.random.default_rng(0).normal(
                size=(6, INSIGHT_DIMS)
            )
            assert all(cluster.serve_all(insights, k=2))
            assert len(replicas) == 3
            for process in replicas:
                os.kill(process.pid, signal.SIGSTOP)
        finally:
            started = time.monotonic()
            cluster.close()
            elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"close took {elapsed:.2f}s"
        assert not any(process.is_alive() for process in replicas)


class TestChaosDraw:
    @staticmethod
    def draws(rate, *key, count=64):
        chaos = Chaos(rate, *key, exit_code=KILL_EXIT_CODE)
        return [chaos.draw() for _ in range(count)]

    def test_same_key_same_sequence(self):
        key = (7, "actor-kill", 2, 5)
        assert self.draws(0.5, *key) == self.draws(0.5, *key)
        assert self.draws(0.5, *key) != self.draws(0.5, 7, "actor-kill", 2, 6)
        assert self.draws(0.5, *key) != \
            self.draws(0.5, 7, "replica-kill", 2, 5)

    @pytest.mark.parametrize("label", ("actor-kill", "replica-kill"))
    def test_stream_is_the_members_derived_stream(self, label):
        # The kill streams of actors and replicas are the
        # derive_rng(seed, label, member id, spawn) streams.
        rng = derive_rng(11, label, 3, 4)
        expected = [float(rng.random()) < 0.3 for _ in range(64)]
        assert self.draws(0.3, 11, label, 3, 4) == expected

    def test_zero_rate_never_kills(self):
        assert not any(self.draws(0.0, 1, "actor-kill", 0, 0))


class TestOneOwner:
    """The process protocol has one home: repro.runtime.supervisor."""

    PROTOCOL = re.compile(
        r"\.SimpleQueue\(|\.Pipe\(|\.Process\(|get_context\("
        r"|get_all_start_methods|connection\.wait\("
    )
    PRIVATE_PARALLEL = re.compile(
        r"from repro\.runtime\.parallel import[^\n]*\b_\w+"
        r"|from repro\.runtime\.parallel import \([^)]*\b_\w+"
    )

    def test_protocol_primitives_only_in_supervisor(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.name == "supervisor.py":
                continue
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if self.PROTOCOL.search(line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_no_private_imports_from_parallel(self):
        offenders = [
            str(path) for path in sorted(SRC_ROOT.rglob("*.py"))
            if path.name != "parallel.py"
            and self.PRIVATE_PARALLEL.search(path.read_text())
        ]
        assert not offenders, offenders

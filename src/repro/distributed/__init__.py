"""repro.distributed — actor/learner execution of the online loop.

The package splits the online fine-tuning loop of
:mod:`repro.core.online` across processes: N **actors**, each owning a
:class:`~repro.runtime.session.FlowSession`, evaluate proposed recipe
sets and stream ``(insight, recipe set, QoR, policy version)`` experience
records over private pipes to one **learner**, which runs the existing
margin-DPO + PPO update and broadcasts fresh weight versions back.
Membership is elastic: dead actors respawn under a budget with their lost
tasks re-dispatched deterministically, and a budget-dry pool degrades to
supervised in-process execution.

Entry points:

- :class:`DistributedConfig` — frozen, validated knobs; compose it into
  :class:`~repro.core.online.OnlineConfig` as ``distributed=``.
- :class:`DistributedOnlineFineTuner` — the learner; drop-in for
  :class:`~repro.core.online.OnlineFineTuner`.  Sync mode is
  bit-identical to the serial loop (checkpoint bytes included); async
  mode trades that for wall-clock under a ``max_policy_lag`` staleness
  bound.
- :func:`fine_tuner_for` — picks the right tuner for a config.

Only the config is imported eagerly — the learner/actor machinery (and
its multiprocessing imports) loads on first attribute access, so
``OnlineConfig(distributed=...)`` validation stays cheap and cycle-free.
"""

from __future__ import annotations

from repro.distributed.config import MODES, DistributedConfig

__all__ = [
    "MODES",
    "DistributedConfig",
    "DistributedOnlineFineTuner",
    "fine_tuner_for",
    "ActorSpec",
    "propose_one",
    "ExperienceQueue",
    "ExperienceRecord",
]

_LAZY = {
    "DistributedOnlineFineTuner": "repro.distributed.learner",
    "fine_tuner_for": "repro.distributed.learner",
    "ActorSpec": "repro.distributed.actor",
    "propose_one": "repro.distributed.actor",
    "ExperienceQueue": "repro.distributed.experience",
    "ExperienceRecord": "repro.distributed.experience",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

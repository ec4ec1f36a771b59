"""InsightAlign core: model, alignment, beam search, online fine-tuning.

This package implements the paper's contribution on top of the simulated
EDA substrate:

- :mod:`repro.core.qor` — compound QoR score (eq. 4).
- :mod:`repro.core.model` — the decoder-only recipe LM (Table III).
- :mod:`repro.core.policy` — teacher-forced sequence likelihoods (eq. 3),
  one batched forward that every preference trainer shares.
- :mod:`repro.core.ppo` — the PPO surrogate used in online fine-tuning.
- :mod:`repro.core.alignment` — Algorithm 1's ALIGNMENTTRAIN: the batched
  margin-based DPO step (eq. 2), reused by multi-intention training.
- :mod:`repro.core.beam` — Algorithm 1's BEAMSEARCH.
- :mod:`repro.core.dataset` — offline (insight, recipe set, QoR) archive.
- :mod:`repro.core.crossval` — the k-fold zero-shot evaluation (Table IV).
- :mod:`repro.core.online` — closed-loop online fine-tuning (Fig. 6/7).
- :mod:`repro.core.recommender` — high-level facade.
"""

from repro.core.qor import QoRIntention, compound_scores
from repro.core.model import InsightAlignModel
from repro.core.dataset import DataPoint, OfflineDataset, build_offline_dataset
from repro.core.recommender import InsightAlign

__all__ = [
    "QoRIntention",
    "compound_scores",
    "InsightAlignModel",
    "DataPoint",
    "OfflineDataset",
    "build_offline_dataset",
    "InsightAlign",
]

"""Offline QoR-alignment training — Algorithm 1's ALIGNMENTTRAIN.

For every design in the offline archive, recipe-set pairs are compared by
compound QoR score and the policy is pushed (margin-based DPO, eq. 2) to
assign a log-likelihood gap of at least ``lambda * |dQoR|`` in favour of the
winner.  The paper iterates all pairs of all designs until convergence; with
~176 datapoints per design the full pair set is ~260k pairs per epoch, so
this implementation subsamples a fixed number of pairs per design per epoch
(uniformly over ordered pairs) — an unbiased stochastic version of the same
objective — and batches pairs through the model for speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.dataset import OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_probs
from repro.core.qor import QoRIntention
from repro.errors import TrainingError
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.observability import get_registry, get_tracer
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class AlignmentConfig:
    """Hyperparameters of the offline alignment phase.

    ``lam`` is the paper's margin hyperparameter (lambda = 2 in the
    experiments); the rest are conventional optimization knobs.
    """

    lam: float = 2.0
    learning_rate: float = 3e-3
    epochs: int = 20
    pairs_per_design: int = 200
    batch_size: int = 192
    grad_clip: float = 5.0
    min_score_gap: float = 0.02
    convergence_tolerance: float = 1e-4
    seed: int = 0
    # Crash-safety: when ``checkpoint_path`` is set, the trainer atomically
    # writes model/optimizer/RNG/history state there every
    # ``checkpoint_every`` epochs; ``resume_from`` restores such a file and
    # continues bit-identically (same seed + same data => same final
    # weights as an uninterrupted run).
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    resume_from: Optional[str] = None
    # Optional behaviour-cloning anchor on winners (DPO+SFT mixing).  The
    # paper's Algorithm 1 is pure margin-DPO (weight 0.0, the default);
    # because DPO's uniform-reference objective only constrains likelihood
    # *ratios*, the absolute distribution can drift toward very dense recipe
    # sets under beam decoding.  A small positive weight (e.g. 0.05-0.1)
    # pins recommendations near archive-like densities.
    bc_anchor_weight: float = 0.0

    def __post_init__(self) -> None:
        for name in ("batch_size", "pairs_per_design", "checkpoint_every"):
            value = getattr(self, name)
            if value < 1:
                raise TrainingError(f"{name} must be >= 1, got {value}")


@dataclass
class AlignmentHistory:
    """Per-epoch training diagnostics.

    ``epoch_loss`` averages the (resampled) minibatch losses and is noisy
    across epochs; ``probe_loss`` re-evaluates one *fixed* pair sample each
    epoch and is the comparable convergence signal.
    """

    epoch_loss: List[float] = field(default_factory=list)
    epoch_pair_accuracy: List[float] = field(default_factory=list)
    probe_loss: List[float] = field(default_factory=list)

    @property
    def converged_epoch(self) -> int:
        return len(self.epoch_loss)


class AlignmentTrainer:
    """Trains an :class:`InsightAlignModel` on an offline archive."""

    def __init__(self, config: AlignmentConfig = AlignmentConfig()) -> None:
        self.config = config

    def train(
        self,
        dataset: OfflineDataset,
        intention: QoRIntention = QoRIntention(),
        model: Optional[InsightAlignModel] = None,
        verbose: bool = False,
    ) -> Tuple[InsightAlignModel, AlignmentHistory]:
        """Run ALIGNMENTTRAIN; returns the aligned policy and its history."""
        if len(dataset) == 0:
            raise TrainingError("cannot align on an empty dataset")
        cfg = self.config
        rng = derive_rng(cfg.seed, "alignment")
        if model is None:
            model = InsightAlignModel(seed=cfg.seed)
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
        history = AlignmentHistory()

        per_design = self._prepare(dataset, intention)
        probe = self._epoch_batches(per_design, derive_rng(cfg.seed, "probe"))[0]
        previous_probe = None
        start_epoch = 0
        if cfg.resume_from:
            start_epoch = self._restore(model, optimizer, rng, history)
            previous_probe = (
                history.probe_loss[-1] if history.probe_loss else None
            )
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span(
            "align.train",
            seed=cfg.seed,
            epochs=cfg.epochs,
            designs=len(per_design),
            start_epoch=start_epoch,
        ) as train_span:
            for epoch in range(start_epoch, cfg.epochs):
                epoch_started = time.perf_counter()
                with tracer.span("align.epoch", epoch=epoch) as epoch_span:
                    batches = self._epoch_batches(per_design, rng)
                    losses: List[float] = []
                    correct = 0
                    total = 0
                    for insights, winners, losers, margins in batches:
                        loss, batch_correct = self._step(
                            model, optimizer, insights, winners, losers, margins
                        )
                        losses.append(loss)
                        correct += batch_correct
                        total += len(margins)
                    epoch_loss = float(np.mean(losses)) if losses else 0.0
                    probe_loss = self._eval_loss(model, *probe)
                    history.epoch_loss.append(epoch_loss)
                    history.epoch_pair_accuracy.append(correct / max(1, total))
                    history.probe_loss.append(probe_loss)
                    epoch_span.set_attributes(
                        pairs=total,
                        epoch_loss=epoch_loss,
                        probe_loss=probe_loss,
                    )
                self._observe_epoch(
                    registry, history, total,
                    time.perf_counter() - epoch_started,
                )
                if verbose:
                    print(
                        f"epoch {epoch}: loss {epoch_loss:.4f} "
                        f"probe {probe_loss:.4f} "
                        f"pair-acc {history.epoch_pair_accuracy[-1]:.3f}"
                    )
                converged = (
                    previous_probe is not None
                    and abs(previous_probe - probe_loss)
                    < cfg.convergence_tolerance
                )
                previous_probe = probe_loss
                if cfg.checkpoint_path and (
                    converged
                    or (epoch + 1) % cfg.checkpoint_every == 0
                    or epoch + 1 == cfg.epochs
                ):
                    self._checkpoint(
                        model, optimizer, rng, history, epoch, converged
                    )
                if converged:
                    break
            train_span.set_attributes(
                epochs_run=history.converged_epoch,
                final_probe_loss=(
                    history.probe_loss[-1] if history.probe_loss else None
                ),
            )
        return model, history

    @staticmethod
    def _observe_epoch(registry, history, pairs, elapsed_s) -> None:
        """Publish one epoch's diagnostics to the metrics registry."""
        registry.counter(
            "alignment_epochs_total", "alignment epochs completed"
        ).inc()
        registry.gauge(
            "alignment_epoch_loss", "mean minibatch loss of the last epoch"
        ).set(history.epoch_loss[-1])
        registry.gauge(
            "alignment_probe_loss", "fixed-probe loss (convergence signal)"
        ).set(history.probe_loss[-1])
        registry.gauge(
            "alignment_pair_accuracy", "preference-pair accuracy"
        ).set(history.epoch_pair_accuracy[-1])
        if elapsed_s > 0:
            registry.histogram(
                "alignment_pairs_per_second", "training throughput"
            ).observe(pairs / elapsed_s)

    # ------------------------------------------------------------------
    def _checkpoint(self, model, optimizer, rng, history, epoch, converged):
        """Atomically persist everything resume needs (crash-safe)."""
        from repro.runtime.checkpoint import TrainingCheckpoint, save_checkpoint

        save_checkpoint(
            TrainingCheckpoint(
                kind="alignment",
                step=epoch,
                model_state=model.state_dict(),
                optimizer_state=optimizer.state_dict(),
                rng_state=rng.bit_generator.state,
                payload={
                    "epoch_loss": list(history.epoch_loss),
                    "epoch_pair_accuracy": list(history.epoch_pair_accuracy),
                    "probe_loss": list(history.probe_loss),
                    "converged": bool(converged),
                    "seed": self.config.seed,
                },
            ),
            self.config.checkpoint_path,
        )

    def _restore(self, model, optimizer, rng, history) -> int:
        """Load ``resume_from`` into the live objects; returns next epoch.

        Restoring model weights, Adam moments and the epoch RNG's
        bit-generator state at an epoch boundary makes the continued run
        bit-identical to one that never stopped (same seed, same data).
        """
        from repro.errors import CheckpointError
        from repro.runtime.checkpoint import load_checkpoint

        cfg = self.config
        checkpoint = load_checkpoint(cfg.resume_from, expected_kind="alignment")
        saved_seed = checkpoint.payload.get("seed")
        if saved_seed is not None and saved_seed != cfg.seed:
            raise CheckpointError(
                f"checkpoint was trained with seed {saved_seed}, "
                f"config has seed {cfg.seed}; resuming would diverge"
            )
        try:
            model.load_state_dict(checkpoint.model_state)
        except (KeyError, ValueError) as err:
            raise CheckpointError(
                f"checkpoint weights do not fit this model: {err}"
            ) from err
        optimizer.load_state_dict(checkpoint.optimizer_state)
        rng.bit_generator.state = checkpoint.rng_state
        history.epoch_loss[:] = checkpoint.payload.get("epoch_loss", [])
        history.epoch_pair_accuracy[:] = checkpoint.payload.get(
            "epoch_pair_accuracy", []
        )
        history.probe_loss[:] = checkpoint.payload.get("probe_loss", [])
        if checkpoint.payload.get("converged"):
            return cfg.epochs  # training already converged; skip the loop
        return checkpoint.step + 1

    def _eval_loss(self, model, insights, winners, losers, margins) -> float:
        """Margin-DPO loss on a fixed batch, no gradient step.

        Nothing backpropagates through the probe, so the parameters are
        untracked for its forward: it records no tape and keeps none of
        the arrays a backward would read.
        """
        params = model.parameters()
        tracked = [param.requires_grad for param in params]
        for param in params:
            param.requires_grad = False
        try:
            logp_w, logp_l = _fused_pair_log_probs(
                model, insights, winners, losers
            )
            hinge = (Tensor(margins) - (logp_w - logp_l)).clip_min(0.0)
            return float(hinge.mean().item())
        finally:
            for param, flag in zip(params, tracked):
                param.requires_grad = flag

    # ------------------------------------------------------------------
    def _prepare(self, dataset: OfflineDataset, intention: QoRIntention):
        """Per-design arrays: insight, recipe matrix, score vector.

        Raises:
            TrainingError: If a design's insight vector or scores hold a
                NaN or an infinity, which would train an all-NaN model.
        """
        per_design = {}
        for design in dataset.designs():
            points = dataset.by_design(design)
            recipe_matrix = np.array(
                [p.recipe_set for p in points], dtype=np.int64
            )
            insight = dataset.insight_for(design)
            scores = dataset.scores_for(design, intention)
            if not (np.isfinite(insight).all() and np.isfinite(scores).all()):
                raise TrainingError(
                    f"design {design!r} has a non-finite insight vector or "
                    "QoR score"
                )
            per_design[design] = (insight, recipe_matrix, scores)
        return per_design

    def _epoch_batches(self, per_design, rng):
        """Sample ordered (winner, loser) pairs and chop into batches.

        Vectorized gather/mask construction.  The RNG draw order (two
        ``integers`` calls per design, then one ``permutation``) and every
        emitted value are bit-identical to the original per-pair Python
        loop, so checkpoints from either implementation resume identically.
        """
        cfg = self.config
        insight_blocks: List[np.ndarray] = []
        winner_blocks: List[np.ndarray] = []
        loser_blocks: List[np.ndarray] = []
        margin_blocks: List[np.ndarray] = []
        for design, (insight, recipes, scores) in per_design.items():
            count = len(scores)
            if count < 2:
                continue
            idx_i = rng.integers(0, count, size=cfg.pairs_per_design)
            idx_j = rng.integers(0, count, size=cfg.pairs_per_design)
            gap = scores[idx_i] - scores[idx_j]
            keep = np.abs(gap) >= cfg.min_score_gap
            if not keep.any():
                continue
            kept_i, kept_j, kept_gap = idx_i[keep], idx_j[keep], gap[keep]
            win = np.where(kept_gap > 0, kept_i, kept_j)
            lose = np.where(kept_gap > 0, kept_j, kept_i)
            insight_blocks.append(
                np.broadcast_to(insight, (len(win), insight.shape[0]))
            )
            winner_blocks.append(recipes[win])
            loser_blocks.append(recipes[lose])
            margin_blocks.append(cfg.lam * np.abs(kept_gap))
        if not margin_blocks:
            raise TrainingError(
                "no usable preference pairs (all QoR scores identical?)"
            )
        all_insights = np.concatenate(insight_blocks, axis=0)
        winners = np.concatenate(winner_blocks, axis=0)
        losers = np.concatenate(loser_blocks, axis=0)
        margins = np.concatenate(margin_blocks, axis=0)
        order = rng.permutation(len(margins))
        batches = []
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            batches.append((
                all_insights[sel],
                winners[sel],
                losers[sel],
                margins[sel],
            ))
        return batches

    def _step(self, model, optimizer, insights, winners, losers, margins):
        """One batched margin-DPO gradient step; returns (loss, #correct)."""
        logp_w, logp_l = _fused_pair_log_probs(model, insights, winners, losers)
        gap = logp_w - logp_l
        hinge = (Tensor(margins) - gap).clip_min(0.0)
        loss = hinge.mean()
        if self.config.bc_anchor_weight > 0.0:
            loss = loss - logp_w.mean() * self.config.bc_anchor_weight
        optimizer.zero_grad()
        loss.backward()
        norm = clip_grad_norm(model.parameters(), self.config.grad_clip)
        if not np.isfinite(norm):
            # Refused before the step: no NaN reaches the weights, the Adam
            # moments or a checkpoint.
            raise TrainingError(f"gradient norm is {norm}; step refused")
        optimizer.step()
        correct = int((gap.numpy() > 0).sum())
        return float(hinge.mean().item()), correct


def _fused_pair_log_probs(
    model: InsightAlignModel,
    insights: np.ndarray,
    winners: np.ndarray,
    losers: np.ndarray,
) -> Tuple[Tensor, Tensor]:
    """Winner and loser log-likelihoods from ONE transformer pass.

    The model's forward is row-independent, so stacking winners and losers
    into a single ``(2B, n)`` ``batched_logits`` call and splitting the
    result halves the transformer passes per training step while keeping
    the per-row values equal to the two-pass formulation (asserted in
    ``tests/test_alignment_fused.py``).
    """
    batch = winners.shape[0]
    stacked_insights = np.concatenate([insights, insights], axis=0)
    stacked_decisions = np.concatenate([winners, losers], axis=0)
    logp = sequence_log_probs(model, stacked_insights, stacked_decisions)
    return logp[:batch], logp[batch:]

"""Accuracy and coverage metrics for models and baselines.

Two views of quality live here:

- :func:`evaluate` — argmax next-access accuracy of the two heads at
  every position of an encoded sequence dataset (fast, model-only);
- :func:`simulate_model` — the cache-outcome view: wraps a trained
  model in a :class:`~voyager.sim.NeuralPrefetcher` and replays a raw
  trace through the prefetch simulator, yielding the paper's
  coverage/accuracy/timeliness metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from voyager.model import HierarchicalModel
from voyager.sim import NeuralPrefetcher, SimConfig, SimResult, simulate
from voyager.traces import MemoryAccess
from voyager.train import SequenceDataset
from voyager.vocab import Vocab


@dataclass(frozen=True)
class EvalResult:
    """Next-access prediction quality on a dataset."""

    page_accuracy: float
    offset_accuracy: float
    full_accuracy: float  # both page and offset correct
    label_coverage: float  # prediction fell anywhere in the label set
    n: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "page_accuracy": self.page_accuracy,
            "offset_accuracy": self.offset_accuracy,
            "full_accuracy": self.full_accuracy,
            "label_coverage": self.label_coverage,
        }


def evaluate(
    model: HierarchicalModel,
    dataset: SequenceDataset,
    batch_size: int = 64,
) -> EvalResult:
    """Argmax next-access accuracy of both heads over a sequence dataset.

    Runs :meth:`~voyager.model.HierarchicalModel.forward_sequence` over
    every segment from a zero state — the view training and stateful
    simulation share — and takes the argmax of both heads at every
    timestep.  Each distinct trace position counts once: where the
    tail segment overlaps its predecessor, the earlier segment's
    prediction (the one with more context) is kept.

    A prediction "covers" when each head's argmax is one of that
    position's labels (a slot with ``label_weights > 0``).  Segments
    run ``batch_size`` at a time to bound the ``(B, T, vocab)`` output.
    """
    page_preds = np.empty(dataset.positions.shape, dtype=np.int64)
    off_preds = np.empty(dataset.positions.shape, dtype=np.int64)
    for start in range(0, len(dataset), batch_size):
        sl = slice(start, start + batch_size)
        page_probs, off_probs, _, _ = model.forward_sequence(
            dataset.pc_ids[sl], dataset.page_ids[sl], dataset.offset_ids[sl]
        )
        page_preds[sl] = page_probs.argmax(axis=-1)
        off_preds[sl] = off_probs.argmax(axis=-1)
    # np.unique's return_index is the first occurrence in row-major
    # order, i.e. the earliest segment covering each position.
    _, first = np.unique(dataset.positions.reshape(-1), return_index=True)
    page_preds = page_preds.reshape(-1)[first]
    off_preds = off_preds.reshape(-1)[first]
    L = dataset.label_weights.shape[-1]
    labelled = dataset.label_weights.reshape(-1, L)[first] > 0
    label_pages = dataset.label_page_ids.reshape(-1, L)[first]
    label_offsets = dataset.label_offsets.reshape(-1, L)[first]

    # Slot 0 is the true next access (always valid, see label_arrays).
    page_ok = page_preds == label_pages[:, 0]
    off_ok = off_preds == label_offsets[:, 0]
    covered = (labelled & (label_pages == page_preds[:, None])).any(1) & (
        labelled & (label_offsets == off_preds[:, None])
    ).any(1)
    return EvalResult(
        page_accuracy=float(page_ok.mean()),
        offset_accuracy=float(off_ok.mean()),
        full_accuracy=float((page_ok & off_ok).mean()),
        label_coverage=float(covered.mean()),
        n=int(first.size),
    )


def simulate_model(
    model: HierarchicalModel,
    pc_vocab: Vocab,
    page_vocab: Vocab,
    trace: Sequence[MemoryAccess],
    sim_config: Optional[SimConfig] = None,
    dtype=np.float64,
    seq_len: int = 64,
) -> SimResult:
    """Cache-outcome evaluation of a trained model on a raw trace.

    This is the evaluation the paper reports: the model drives a
    prefetch issue queue into a set-associative LRU cache, and quality
    is measured as coverage (misses eliminated), accuracy (useful per
    issued prefetch) and timeliness — not argmax token accuracy.

    The prefetcher runs on the cache-free inference engine, batched
    over the whole trace by its ``offline_candidates`` hook, with LSTM
    state carried across each ``seq_len``-access segment — pass the
    training ``seq_len`` (see :class:`~voyager.sim.NeuralPrefetcher`).
    ``dtype=np.float32`` opts into the faster approximate mode.
    """
    prefetcher = NeuralPrefetcher(
        model, pc_vocab, page_vocab, dtype=dtype, seq_len=seq_len
    )
    return simulate(trace, prefetcher, sim_config or SimConfig())


def accuracy(predictions: Sequence[int], truths: Sequence[int]) -> float:
    """Fraction of exact matches (helper shared with baselines)."""
    preds = np.asarray(predictions)
    truth = np.asarray(truths)
    if preds.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: {preds.shape} vs {truth.shape}"
        )
    if preds.size == 0:
        return 0.0
    return float((preds == truth).mean())

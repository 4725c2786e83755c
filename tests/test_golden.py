"""Golden regression: a tiny fixed-seed run pinned to checked-in values.

Perf refactors of the model/training code must reproduce these numbers
(within float tolerance for BLAS reassociation).  If a change moves
them *intentionally* — e.g. a better init or labeling tweak — update
the constants here in the same PR and say why in the commit message.

The recipe is the repo's one training path: truncated BPTT over
32-access segments (TBPTT 8, cosine schedule), evaluated by
:func:`voyager.eval.evaluate` over the same segments from a zero state.

Reference values computed with NumPy 2.4 on x86-64.
"""

import pytest

from voyager.eval import evaluate
from voyager.model import HierarchicalModel, ModelConfig
from voyager.synthetic import page_cycle_trace
from voyager.train import build_sequence_dataset, train

GOLDEN_SEQ_FIRST_LOSS = 5.761443301917691
GOLDEN_SEQ_FINAL_LOSS = 3.5613727423706654
# Over all 299 supervised positions, each counted once.
GOLDEN_SEQ_PAGE_ACC = 0.9966555183946488
GOLDEN_SEQ_OFFSET_ACC = 0.8193979933110368
# Loose tolerance absorbs BLAS/platform float reassociation; it is still
# ~1000x tighter than any semantic change would move these numbers.
LOSS_TOL = 1e-6
ACC_TOL = 1e-9


def _seq_golden_recipe():
    trace = page_cycle_trace(300)
    dataset = build_sequence_dataset(trace, seq_len=32)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        history=8,
        seed=0,
    )
    model = HierarchicalModel(config)
    result = train(
        model,
        dataset,
        steps=60,
        batch_size=16,
        lr=0.04,
        seed=0,
        tbptt=8,
        lr_schedule="cosine",
    )
    return trace, model, dataset, result


@pytest.fixture(scope="module")
def golden_seq_run():
    return _seq_golden_recipe()


def test_golden_sequence_losses(golden_seq_run):
    _, _, _, result = golden_seq_run
    assert result.losses[0] == pytest.approx(
        GOLDEN_SEQ_FIRST_LOSS, rel=LOSS_TOL
    )
    assert result.final_loss == pytest.approx(
        GOLDEN_SEQ_FINAL_LOSS, rel=LOSS_TOL
    )


def test_golden_sequence_accuracies(golden_seq_run):
    _, model, dataset, _ = golden_seq_run
    metrics = evaluate(model, dataset)
    assert metrics.page_accuracy == pytest.approx(
        GOLDEN_SEQ_PAGE_ACC, abs=ACC_TOL
    )
    assert metrics.offset_accuracy == pytest.approx(
        GOLDEN_SEQ_OFFSET_ACC, abs=ACC_TOL
    )


def test_golden_sequence_run_is_reproducible(golden_seq_run):
    _, _, _, first = golden_seq_run
    _, _, _, rerun = _seq_golden_recipe()
    assert rerun.losses == first.losses

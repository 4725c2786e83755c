"""Inference-engine tests: bit-exact equivalence, no backprop cache.

The engine's contract is arithmetic, not approximate: in float64 the
cache-free incremental path must reproduce the training-mode forward
bit for bit (see :mod:`voyager.infer`).  The property tests here drive
that over randomly drawn models and windows; the cache tests prove the
simulator hot path never touches ``model.forward``.
"""

import numpy as np
import pytest

from voyager.infer import InferenceEngine, LSTMState, _rowwise_matmul
from voyager.model import HierarchicalModel, ModelConfig
from voyager.sim import NeuralPrefetcher, SimConfig, simulate
from voyager.synthetic import page_cycle_trace
from voyager.traces import NUM_OFFSETS
from voyager.train import build_dataset
from voyager.vocab import OOV_ID

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def tiny_model(seed: int = 1) -> HierarchicalModel:
    return HierarchicalModel(
        ModelConfig(
            pc_vocab_size=5,
            page_vocab_size=6,
            num_offsets=8,
            embed_dim=3,
            hidden_dim=4,
            history=3,
            attention_candidates=2,
            seed=seed,
        )
    )


def random_windows(model: HierarchicalModel, B: int, seed: int):
    cfg = model.config
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, cfg.pc_vocab_size, (B, cfg.history)),
        rng.integers(0, cfg.page_vocab_size, (B, cfg.history)),
        rng.integers(0, cfg.num_offsets, (B, cfg.history)),
    )


# ----------------------------------------------------------------------
# bit-exact equivalence properties (float64)
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=5),
)
def test_window_state_matches_forward_bit_exactly(model_seed, data_seed, B):
    """Cache-free full-window state == training forward, bit for bit."""
    model = tiny_model(model_seed)
    pc, page, off = random_windows(model, B, data_seed)
    page_probs, off_probs, cache = model.forward(pc, page, off)

    eng = InferenceEngine(model)
    state = eng.state_from_history(pc, page, off)
    np.testing.assert_array_equal(state.h, cache["h_final"])
    eng_page, eng_off = eng.probs(state)
    np.testing.assert_array_equal(eng_page, page_probs)
    np.testing.assert_array_equal(eng_off, off_probs)


@settings(max_examples=40)
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=5),
)
def test_incremental_steps_match_forward_bit_exactly(model_seed, data_seed, B):
    """Feeding a window one access at a time == training forward."""
    model = tiny_model(model_seed)
    pc, page, off = random_windows(model, B, data_seed)
    _, _, cache = model.forward(pc, page, off)

    eng = InferenceEngine(model)
    state = eng.init_state(B)
    for t in range(model.config.history):
        state = eng.step(state, pc[:, t], page[:, t], off[:, t])
    np.testing.assert_array_equal(state.h, cache["h_final"])

    full_logits = eng.logits(eng.state_from_history(pc, page, off))
    inc_logits = eng.logits(state)
    np.testing.assert_array_equal(inc_logits[0], full_logits[0])
    np.testing.assert_array_equal(inc_logits[1], full_logits[1])


@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=1, max_value=4),
    steps=st.integers(min_value=1, max_value=4),
)
def test_rollout_window_matches_slid_full_forwards(
    model_seed, data_seed, B, steps
):
    """Feature-cached window replay == forwarding every slid window.

    The reference slides the raw id windows (drop oldest, append the
    prediction, PC repeats the last column) and runs the full training
    forward from scratch each step — the semantics the feature-gather
    fast path must reproduce bit-exactly, OOV masking included.
    """
    model = tiny_model(model_seed)
    pc, page, off = random_windows(model, B, data_seed)
    eng = InferenceEngine(model)

    feats = eng.features(pc, page, off)
    pages, offsets, valid = eng.rollout_window(feats, pc[:, -1], steps)

    ref_pc, ref_page, ref_off = pc.copy(), page.copy(), off.copy()
    alive = np.ones(B, dtype=bool)
    for j in range(steps):
        probs_page, probs_off, _ = model.forward(ref_pc, ref_page, ref_off)
        pid = probs_page.argmax(axis=-1)
        oid = probs_off.argmax(axis=-1)
        alive = alive & (pid != OOV_ID)
        if not alive.any():
            np.testing.assert_array_equal(valid[:, j:], False)
            break
        np.testing.assert_array_equal(valid[:, j], alive)
        np.testing.assert_array_equal(pages[alive, j], pid[alive])
        np.testing.assert_array_equal(offsets[alive, j], oid[alive])
        ref_pc = np.concatenate([ref_pc[:, 1:], ref_pc[:, -1:]], axis=1)
        ref_page = np.concatenate([ref_page[:, 1:], pid[:, None]], axis=1)
        ref_off = np.concatenate([ref_off[:, 1:], oid[:, None]], axis=1)


def test_rollout_window_does_not_mutate_features():
    model = tiny_model()
    pc, page, off = random_windows(model, 3, seed=9)
    eng = InferenceEngine(model)
    feats = eng.features(pc, page, off)
    before = feats.copy()
    eng.rollout_window(feats, pc[:, -1], 3)
    np.testing.assert_array_equal(feats, before)


# ----------------------------------------------------------------------
# engine API behaviour
# ----------------------------------------------------------------------
def test_float64_engine_aliases_model_params():
    """Zero-copy: the default engine shares the model's arrays."""
    model = tiny_model()
    eng = InferenceEngine(model)
    assert all(eng.params[k] is model.params[k] for k in model.params)


def test_float32_mode_runs_end_to_end_in_float32():
    model = tiny_model()
    eng = InferenceEngine(model, dtype=np.float32)
    assert all(v.dtype == np.float32 for v in eng.params.values())
    pc, page, off = random_windows(model, 2, seed=3)
    state = eng.state_from_history(pc, page, off)
    assert state.h.dtype == np.float32 and state.c.dtype == np.float32
    page_logits, off_logits = eng.logits(state)
    assert page_logits.dtype == np.float32
    assert off_logits.dtype == np.float32
    state = eng.step(state, pc[:, -1], page[:, -1], off[:, -1])
    assert state.h.dtype == np.float32


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError, match="dtype"):
        InferenceEngine(tiny_model(), dtype=np.int32)


def test_negative_rollout_steps_rejected():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_windows(model, 1, seed=0)
    state = eng.state_from_history(pc, page, off)
    with pytest.raises(ValueError, match="steps"):
        eng.rollout(state, pc[:, -1], -1)
    with pytest.raises(ValueError, match="steps"):
        eng.rollout_window(eng.features(pc, page, off), pc[:, -1], -1)


def test_rollout_does_not_mutate_state():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_windows(model, 2, seed=5)
    state = eng.state_from_history(pc, page, off)
    snapshot = state.copy()
    eng.rollout(state, pc[:, -1], 4)
    np.testing.assert_array_equal(state.h, snapshot.h)
    np.testing.assert_array_equal(state.c, snapshot.c)


def test_oov_prediction_masks_remaining_rollout():
    """A head rigged to always predict OOV yields an all-invalid rollout."""
    model = tiny_model()
    model.params["w_page"][:] = 0.0
    model.params["b_page"][:] = 0.0
    model.params["b_page"][OOV_ID] = 10.0
    eng = InferenceEngine(model)
    pc, page, off = random_windows(model, 2, seed=1)
    feats = eng.features(pc, page, off)
    _, _, valid = eng.rollout_window(feats, pc[:, -1], 3)
    assert not valid.any()
    state = eng.state_from_history(pc, page, off)
    _, _, valid = eng.rollout(state, pc[:, -1], 3)
    assert not valid.any()


def test_predict_topk_top1_matches_predict():
    model = tiny_model()
    eng = InferenceEngine(model)
    pc, page, off = random_windows(model, 4, seed=8)
    state = eng.state_from_history(pc, page, off)
    top_pages, top_offsets = eng.predict_topk(state, 3)
    assert top_pages.shape == (4, 3) and top_offsets.shape == (4, 3)
    pid, oid = eng.predict(state)
    np.testing.assert_array_equal(top_pages[:, 0], pid)
    np.testing.assert_array_equal(top_offsets[:, 0], oid)


def test_lstm_state_copy_is_independent():
    state = LSTMState(h=np.zeros((1, 4)), c=np.zeros((1, 4)))
    clone = state.copy()
    clone.h += 1.0
    assert state.h.sum() == 0.0
    assert state.batch == 1


# ----------------------------------------------------------------------
# the simulator hot path never builds a backprop cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_fit():
    trace = page_cycle_trace(300)
    dataset = build_dataset(trace, history=8)
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=dataset.pc_vocab.size,
            page_vocab_size=dataset.page_vocab.size,
            embed_dim=8,
            hidden_dim=16,
            history=8,
            seed=0,
        )
    )
    return trace, model, dataset


def test_prefetcher_never_calls_training_forward(small_fit, monkeypatch):
    """Streaming and primed simulation run with ``forward`` disabled.

    ``model.forward`` is the only entry point that allocates the
    backprop cache, so poisoning it proves the whole simulator hot path
    is cache-free.
    """
    trace, model, dataset = small_fit

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("simulator hot path called model.forward")

    monkeypatch.setattr(model, "forward", boom)
    monkeypatch.setattr(model, "loss_and_grads", boom)

    pf = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    for access in trace[:20]:
        pf.update(access)
    assert isinstance(pf.prefetch(trace[19], 4), list)

    result = simulate(
        trace,
        NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab),
        SimConfig(degree=2, distance=4, latency=4),
    )
    assert result.accesses == len(trace)


def test_streaming_and_primed_candidates_agree(small_fit):
    """The primed batch transform preserves per-position predictions."""
    trace, model, dataset = small_fit
    lookahead = 6

    primed = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    primed.prime(trace, lookahead)
    streaming = NeuralPrefetcher(model, dataset.pc_vocab, dataset.page_vocab)
    for i, access in enumerate(trace[:120]):
        primed.update(access)
        streaming.update(access)
        assert primed.prefetch(access, lookahead) == streaming.prefetch(
            access, lookahead
        ), f"candidate mismatch at position {i}"


# ----------------------------------------------------------------------
# row_exact mode: batched rows == serial batch-width-1 runs, bit for bit
# ----------------------------------------------------------------------
@given(
    model_seed=st.integers(min_value=0, max_value=50),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
    B=st.integers(min_value=2, max_value=6),
)
def test_row_exact_batched_ops_match_serial_rows(model_seed, data_seed, B):
    """A row_exact engine's batched step/logits/rollout reproduce each
    row of a plain engine driven at batch width 1 — the serving layer's
    micro-batching contract (plain batched BLAS does not guarantee
    this; the row-at-a-time matmuls do)."""
    model = tiny_model(model_seed)
    batched = InferenceEngine(model, row_exact=True)
    serial = InferenceEngine(model)
    pc_w, page_w, off_w = random_windows(model, B, data_seed)

    state_b = batched.state_from_history(pc_w, page_w, off_w)
    feats = batched.features(pc_w, page_w, off_w)
    for i in range(B):
        row = serial.state_from_history(
            pc_w[i : i + 1], page_w[i : i + 1], off_w[i : i + 1]
        )
        np.testing.assert_array_equal(state_b.h[i : i + 1], row.h)
        np.testing.assert_array_equal(state_b.c[i : i + 1], row.c)

        page_l, off_l = batched.logits(state_b)
        page_r, off_r = serial.logits(row)
        np.testing.assert_array_equal(page_l[i : i + 1], page_r)
        np.testing.assert_array_equal(off_l[i : i + 1], off_r)

    stepped = batched.step(state_b, pc_w[:, -1], page_w[:, -1], off_w[:, -1])
    pages_b, offs_b, valid_b = batched.rollout_window(feats, pc_w[:, -1], 3)
    for i in range(B):
        row = serial.state_from_history(
            pc_w[i : i + 1], page_w[i : i + 1], off_w[i : i + 1]
        )
        row_step = serial.step(
            row, pc_w[i : i + 1, -1], page_w[i : i + 1, -1], off_w[i : i + 1, -1]
        )
        np.testing.assert_array_equal(stepped.h[i : i + 1], row_step.h)
        np.testing.assert_array_equal(stepped.c[i : i + 1], row_step.c)

        pages_r, offs_r, valid_r = serial.rollout_window(
            feats[i : i + 1], pc_w[i : i + 1, -1], 3
        )
        # entries past a row's OOV cutoff are unspecified (the serial
        # B=1 run stops early; the batch keeps stepping other rows), so
        # only valid positions are part of the contract
        np.testing.assert_array_equal(valid_b[i : i + 1], valid_r)
        mask = valid_r[0]
        np.testing.assert_array_equal(pages_b[i, mask], pages_r[0, mask])
        np.testing.assert_array_equal(offs_b[i, mask], offs_r[0, mask])


def test_row_exact_is_identity_at_batch_width_one():
    """row_exact changes nothing for B=1 (same call shapes)."""
    model = tiny_model(2)
    pc_w, page_w, off_w = random_windows(model, 1, 9)
    plain = InferenceEngine(model).state_from_history(pc_w, page_w, off_w)
    exact = InferenceEngine(model, row_exact=True).state_from_history(
        pc_w, page_w, off_w
    )
    np.testing.assert_array_equal(plain.h, exact.h)
    np.testing.assert_array_equal(plain.c, exact.c)


def rowwise_loop(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference ``row_exact`` product: one ``(1, K) @ (K, N)`` per row."""
    out = np.empty((x.shape[0], w.shape[1]), dtype=w.dtype)
    for i in range(x.shape[0]):
        out[i : i + 1] = x[i : i + 1] @ w
    return out


#: ``(K, N)`` of every product a serving engine runs, as functions of
#: ``(embed_dim, hidden_dim, page_vocab)``: the cell's input and
#: recurrent projections, then the page and offset heads.
SERVED_PRODUCTS = {
    "3d->4h": lambda d, h, v: (3 * d, 4 * h),
    "h->4h": lambda d, h, v: (h, 4 * h),
    "h->page_vocab": lambda d, h, v: (h, v),
    "h->offsets": lambda d, h, v: (h, NUM_OFFSETS),
}


@settings(max_examples=200)
@given(
    B=st.integers(min_value=2, max_value=128),
    dtype=st.sampled_from([np.float32, np.float64]),
    product=st.sampled_from(sorted(SERVED_PRODUCTS)),
    dims=st.sampled_from([(3, 4, 6), (8, 16, 50), (16, 32, 300)]),
    layout=st.sampled_from(["C", "F", "strided"]),
    data_seed=st.integers(min_value=0, max_value=1_000_000),
)
def test_stacked_rowwise_matmul_matches_per_row_loop(
    B, dtype, product, dims, layout, data_seed
):
    """The stacked ``row_exact`` product equals the per-row loop bit for
    bit.  This is a property of the BLAS NumPy links, not of NumPy's
    API, so it is the tripwire if another BLAS ever breaks it."""
    K, N = SERVED_PRODUCTS[product](*dims)
    rng = np.random.default_rng(data_seed)
    w = rng.standard_normal((K, N)).astype(dtype)
    if layout == "strided":
        # A column of a (B, H, K) window tensor, as project_features
        # multiplies it.
        x = rng.standard_normal((B, 3, K)).astype(dtype)[:, 1, :]
    else:
        x = np.asarray(rng.standard_normal((B, K)).astype(dtype), order=layout)
    got = _rowwise_matmul(x, w)
    assert got.dtype == np.dtype(dtype)
    assert got.shape == (B, N)
    np.testing.assert_array_equal(got, rowwise_loop(x, w))


def test_lstm_state_stack_and_row_round_trip():
    model = tiny_model(3)
    engine = InferenceEngine(model)
    states = []
    for seed in range(3):
        pc_w, page_w, off_w = random_windows(model, 1, seed)
        states.append(engine.state_from_history(pc_w, page_w, off_w))
    stacked = LSTMState.stack(states)
    assert stacked.batch == 3
    for i, state in enumerate(states):
        row = stacked.row(i)
        np.testing.assert_array_equal(row.h, state.h)
        np.testing.assert_array_equal(row.c, state.c)
        # row() copies: mutating the row leaves the stack untouched
        row.h += 1.0
        np.testing.assert_array_equal(stacked.row(i).h, state.h)
    with pytest.raises(ValueError, match="zero states"):
        LSTMState.stack([])


# ----------------------------------------------------------------------
# segment_states: one batched scan == serial per-segment replay
# ----------------------------------------------------------------------
def _serial_segment_states(engine, x, seq_len):
    """Reference: replay each access serially, resetting at segment starts."""
    n = x.shape[0]
    hs = np.empty((n, engine.config.hidden_dim), dtype=engine.dtype)
    cs = np.empty_like(hs)
    state = None
    for p in range(n):
        if p % seq_len == 0:
            state = engine.init_state(1)
        state = engine.step_from_features(state, x[p : p + 1])
        hs[p] = state.h[0]
        cs[p] = state.c[0]
    return hs, cs


def test_segment_states_matches_serial_replay_row_exact(small_fit):
    """With row_exact the batched scan is bit-identical to serial replay."""
    trace, model, dataset = small_fit
    engine = InferenceEngine(model, row_exact=True)
    n = 50
    pc = np.array(
        dataset.pc_vocab.encode_all(a.pc for a in trace[:n]), dtype=np.int64
    )
    page = np.array(
        dataset.page_vocab.encode_all(a.page for a in trace[:n]),
        dtype=np.int64,
    )
    off = np.array([a.offset for a in trace[:n]], dtype=np.int64)
    x = engine.feature_step(pc, page, off)
    state = engine.segment_states(x, seq_len=16)
    hs, cs = _serial_segment_states(engine, x, seq_len=16)
    np.testing.assert_array_equal(state.h, hs)
    np.testing.assert_array_equal(state.c, cs)


def test_segment_states_matches_serial_replay_default_engine(small_fit):
    """The plain BLAS engine agrees to float tolerance (gemm vs gemv)."""
    trace, model, dataset = small_fit
    engine = InferenceEngine(model)
    n = 37  # ragged: 16 + 16 + 5, final segment shorter than seq_len
    pc = np.array(
        dataset.pc_vocab.encode_all(a.pc for a in trace[:n]), dtype=np.int64
    )
    page = np.array(
        dataset.page_vocab.encode_all(a.page for a in trace[:n]),
        dtype=np.int64,
    )
    off = np.array([a.offset for a in trace[:n]], dtype=np.int64)
    x = engine.feature_step(pc, page, off)
    state = engine.segment_states(x, seq_len=16)
    assert state.h.shape == (n, model.config.hidden_dim)
    hs, cs = _serial_segment_states(engine, x, seq_len=16)
    np.testing.assert_allclose(state.h, hs, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(state.c, cs, rtol=1e-12, atol=1e-14)


def test_segment_states_validation_and_empty():
    model = tiny_model()
    engine = InferenceEngine(model)
    with pytest.raises(ValueError, match="seq_len"):
        engine.segment_states(np.zeros((4, 9)), seq_len=0)
    empty = engine.segment_states(
        np.zeros((0, 3 * model.config.embed_dim)), seq_len=4
    )
    assert empty.h.shape == (0, model.config.hidden_dim)

"""Fast inference engine: incremental LSTM state, cache-free, batched.

The training forward
(:meth:`~voyager.model.HierarchicalModel.forward_sequence`) builds the
full backprop cache (per-step gate activations, attention tensors) and
both heads' softmax at every timestep — exactly what a simulator hot
path must not pay.  This module is the inference-only counterpart:

- :class:`LSTMState` — an explicit ``(h, c)`` pair that can be carried
  incrementally, snapshotted, and advanced one access at a time;
- :class:`InferenceEngine` — cache-free single-step and full-window
  state computation, head logits, argmax / ``argpartition`` top-k
  prediction, and two batched greedy rollouts:
  :meth:`~InferenceEngine.rollout` continues from a state snapshot
  (cheapest: one LSTM step per lookahead step), while
  :meth:`~InferenceEngine.rollout_window` replays the trained
  fixed-length window per step over *precomputed features* — the mode
  the serving layer still runs.  Models trained by
  :func:`voyager.train.train` learn on long carried-state segments, so
  the offline paths (simulation and distillation) use
  :meth:`~InferenceEngine.segment_states` to reconstruct every trace
  position's carried state in one batched scan (resetting every
  ``seq_len`` accesses, mirroring the training segmentation) and
  :meth:`~InferenceEngine.rollout` to continue from it;
- an optional float32 mode (``dtype=np.float32``) that halves memory
  traffic for throughput-oriented simulation;
- an optional ``row_exact`` mode that computes every
  batch-height-sensitive matmul as a stack of batch-width-1 products
  (one stacked ``np.matmul`` call per product), making batched calls
  bit-identical *per row* to serial calls — the foundation of the
  serving layer's cross-stream micro-batching (:mod:`voyager.serve`).

Equivalence guarantee: with ``dtype=np.float64`` (the default) the
engine shares the model's parameter arrays and performs the same
operations in the same order as the training forward, so
:meth:`InferenceEngine.state_from_history` reproduces the final
``(h, c)`` of ``forward_sequence`` run over the same window from a
zero state **bit-exactly**, and :meth:`InferenceEngine.logits` on it
equals :func:`voyager.model.head_logits` on that state; feeding a
window one access at a time through :meth:`InferenceEngine.step`
reproduces the same state bit-exactly; and
:meth:`InferenceEngine.rollout_window` over gathered features is
bit-exact to running each slid pseudo-window through
``forward_sequence`` from scratch and applying the heads to its final
state.  The property tests in ``tests/test_infer.py`` pin all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from voyager.model import (
    HierarchicalModel,
    _lstm_activate,
    step_features,
    topk_from_logits,
    window_features,
)
from voyager.vocab import OOV_ID


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with every row its own ``(1, K) @ (K, N)`` product.

    BLAS chooses different kernels — and different summation orders —
    for different batch heights, so a plain ``(B, K) @ (K, N)`` product
    does not reproduce its rows' ``(1, K) @ (K, N)`` results bit for
    bit.  Viewing ``x`` as a ``(B, 1, K)`` stack keeps the batch in a
    single NumPy call while every stacked item keeps the width-1 shape:
    ``np.matmul`` broadcasts ``w`` and sends each ``(1, K)`` item
    through the same vector-matrix BLAS call (same strides, same
    kernel, same summation order) that a serial ``x[i:i+1] @ w``
    takes.  That is what lets the serving layer's cross-stream
    micro-batching stay bit-identical per stream (``row_exact=True``
    mode below).  ``tests/test_infer.py`` pins this form to the
    row-at-a-time loop over the served shapes, both dtypes and C-,
    Fortran-order and strided inputs.
    """
    return np.matmul(x[:, None, :], w)[:, 0]


@dataclass
class LSTMState:
    """Carried ``(h, c)`` recurrent state for a batch of sequences."""

    h: np.ndarray  # (B, hidden)
    c: np.ndarray  # (B, hidden)

    @property
    def batch(self) -> int:
        return self.h.shape[0]

    def copy(self) -> "LSTMState":
        return LSTMState(h=self.h.copy(), c=self.c.copy())

    @classmethod
    def stack(cls, states: Sequence["LSTMState"]) -> "LSTMState":
        """Concatenate states row-wise into one batched state.

        Rows are copied bit-for-bit, so a batched
        :meth:`InferenceEngine.step` over the stack advances every
        constituent exactly as a separate step would — the gather half
        of the serving layer's cross-stream micro-batching.
        """
        if not states:
            raise ValueError("cannot stack zero states")
        return cls(
            h=np.concatenate([s.h for s in states], axis=0),
            c=np.concatenate([s.c for s in states], axis=0),
        )

    def row(self, i: int) -> "LSTMState":
        """Copy row ``i`` out as an independent single-row state.

        The scatter half of micro-batching: after a batched step, each
        stream takes its row back without aliasing the batch buffers.
        """
        return LSTMState(
            h=self.h[i : i + 1].copy(), c=self.c[i : i + 1].copy()
        )


class InferenceEngine:
    """Cache-free incremental inference over a trained model.

    In float64 mode the engine aliases the model's parameter arrays
    (zero copy, bit-identical results); in float32 mode it keeps a
    one-time down-cast copy.  All methods are functional: states are
    returned, never mutated in place, so a state can be snapshotted by
    reference and rolled out without disturbing the online stream.

    ``row_exact=True`` switches every batch-height-sensitive matmul to
    the stacked width-1 form (:func:`_rowwise_matmul`): each row of a
    batched call then carries bit-identical results to the same row
    driven through a ``row_exact=False`` engine at batch width 1.  All
    other ops in the pipeline — embedding gathers, the attention
    einsums, gate nonlinearities — are already row-independent, so this
    is the one switch cross-stream micro-batching (:mod:`voyager.serve`)
    needs to stay bit-identical per stream.  Default off: single-stream
    and fixed-batch callers keep the fully batched BLAS calls.
    """

    def __init__(
        self,
        model: HierarchicalModel,
        dtype=np.float64,
        row_exact: bool = False,
    ):
        self.config = model.config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(
                f"dtype must be float64 or float32, got {self.dtype}"
            )
        if self.dtype == np.dtype(np.float64):
            self.params: Dict[str, np.ndarray] = model.params
        else:
            self.params = {
                k: v.astype(self.dtype) for k, v in model.params.items()
            }
        self.row_exact = bool(row_exact)

    def _mm(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(B, K) @ (K, N)`` — stacked width-1 rows when ``row_exact``.

        With ``row_exact`` off this is the plain batched BLAS product;
        with it on, one :func:`_rowwise_matmul` call whose every row is
        bit-identical to the same row multiplied alone.
        """
        if self.row_exact:
            return _rowwise_matmul(x, w)
        return x @ w

    # ------------------------------------------------------------------
    # features and state construction
    # ------------------------------------------------------------------
    def feature_step(
        self,
        pc_ids: np.ndarray,  # (B,)
        page_ids: np.ndarray,  # (B,)
        offset_ids: np.ndarray,  # (B,)
    ) -> np.ndarray:
        """Embed one access per row: ``(B,)`` ids -> ``(B, 3d)`` features.

        Features carry no recurrence, so an online caller can compute
        each access's feature exactly once and re-gather it for every
        window that contains the access — that is what makes
        :meth:`rollout_window` pay only the LSTM recurrence per step.
        """
        return step_features(self.params, pc_ids, page_ids, offset_ids)

    def features(
        self,
        pc_ids: np.ndarray,  # (B, H)
        page_ids: np.ndarray,  # (B, H)
        offset_ids: np.ndarray,  # (B, H)
    ) -> np.ndarray:
        """Embed full windows: ``(B, H)`` ids -> ``(B, H, 3d)`` features."""
        return window_features(self.params, pc_ids, page_ids, offset_ids)

    def init_state(self, batch: int = 1) -> LSTMState:
        """All-zero state for ``batch`` independent sequences."""
        h_dim = self.config.hidden_dim
        return LSTMState(
            h=np.zeros((batch, h_dim), dtype=self.dtype),
            c=np.zeros((batch, h_dim), dtype=self.dtype),
        )

    def step(
        self,
        state: LSTMState,
        pc_ids: np.ndarray,  # (B,)
        page_ids: np.ndarray,  # (B,)
        offset_ids: np.ndarray,  # (B,)
    ) -> LSTMState:
        """Advance every row of ``state`` by one observed access."""
        x_t = self.feature_step(pc_ids, page_ids, offset_ids)
        return self.step_from_features(state, x_t)

    def step_from_features(
        self,
        state: LSTMState,
        x_t: np.ndarray,  # (B, 3d) precomputed access features
    ) -> LSTMState:
        """Advance ``state`` by one access whose features are precomputed.

        :meth:`step` is exactly ``feature_step`` + this, so a caller
        that embeds many pending accesses in one batched
        :meth:`feature_step` call (the serving layer does, across
        streams) and feeds each row through here reproduces serial
        :meth:`step` bit for bit.
        """
        # Same association as HierarchicalModel.forward_sequence:
        # (x @ w_x + h @ w_h) + b, with in-place adds.
        a = self._mm(x_t, self.params["w_x"])
        a += self._mm(state.h, self.params["w_h"])
        a += self.params["b_lstm"]
        h, c, *_ = _lstm_activate(a, state.c, state.h.shape[-1])
        return LSTMState(h=h, c=c)

    def state_from_features(self, x: np.ndarray) -> LSTMState:
        """Run the LSTM over precomputed ``(B, H, 3d)`` window features."""
        state = self.init_state(x.shape[0])
        for t in range(x.shape[1]):
            state = self.step_from_features(state, x[:, t, :])
        return state

    def project_features(self, x: np.ndarray) -> np.ndarray:
        """Input projections ``x @ w_x``: ``(B, H, 3d)`` -> ``(B, H, 4h)``.

        Like the features themselves, projections carry no recurrence:
        compute them once per column and reuse them across every LSTM
        cell evaluation of every window that contains the column.
        Projected column by column so each matmul has the exact shape
        the cell step would use (see :func:`voyager.model.project_features`).
        """
        B, H = x.shape[0], x.shape[1]
        w_x = self.params["w_x"]
        ax = np.empty((B, H, w_x.shape[1]), dtype=x.dtype)
        for t in range(H):
            ax[:, t, :] = self._mm(x[:, t, :], w_x)
        return ax

    def state_from_projected(self, ax: np.ndarray) -> LSTMState:
        """Run the LSTM over precomputed ``(B, H, 4h)`` input projections."""
        state = self.init_state(ax.shape[0])
        h, c = state.h, state.c
        for t in range(ax.shape[1]):
            # Same association as HierarchicalModel.forward_sequence:
            # (ax + h @ w_h) + b.
            a = ax[:, t, :] + self._mm(h, self.params["w_h"])
            a += self.params["b_lstm"]
            h, c, *_ = _lstm_activate(a, c, h.shape[-1])
        return LSTMState(h=h, c=c)

    def state_from_history(
        self,
        pc_ids: np.ndarray,  # (B, H)
        page_ids: np.ndarray,  # (B, H)
        offset_ids: np.ndarray,  # (B, H)
    ) -> LSTMState:
        """Cache-free full-window forward: ``(B, H)`` ids -> state.

        One call embeds and attends over the whole window at once (the
        batched fast path for priming a simulator over every trace
        position simultaneously), then steps the cell ``H`` times.
        """
        H = pc_ids.shape[1]
        if H != self.config.history:
            raise ValueError(
                f"expected history length {self.config.history}, got {H}"
            )
        return self.state_from_features(
            self.features(pc_ids, page_ids, offset_ids)
        )

    def segment_states(self, x: np.ndarray, seq_len: int) -> LSTMState:
        """Carried state at *every* trace position, one batched scan.

        ``x`` holds the ``(n, 3d)`` features of ``n`` consecutive
        accesses.  The trace is tiled into segments of ``seq_len``
        accesses starting at position 0 — exactly the segmentation
        ``build_sequence_dataset`` trains on — and the LSTM runs each
        segment from a zero state, all segments advancing in one
        batched step per within-segment offset.  Row ``p`` of the
        returned state is the state *after* consuming access ``p``
        within its segment, i.e. the state a sequence-trained model
        predicts access ``p + 1`` from.

        Cost is ``n`` cell evaluations total (batched ``seq_len`` at a
        time) versus ``n * history`` for window replay — the inference
        analogue of the training-side redundancy kill.
        """
        if seq_len < 1:
            raise ValueError(f"seq_len must be >= 1, got {seq_len}")
        n = x.shape[0]
        if n == 0:
            return self.init_state(0)
        h_dim = self.config.hidden_dim
        starts = np.arange(0, n, seq_len)
        h_all = np.empty((n, h_dim), dtype=self.dtype)
        c_all = np.empty((n, h_dim), dtype=self.dtype)
        state = self.init_state(starts.shape[0])
        for t in range(min(seq_len, n)):
            pos = starts + t
            mask = pos < n
            # The ragged tail segment keeps stepping on a clamped
            # feature, but its rows are masked out of every write past
            # the trace end, so the garbage never lands.
            state = self.step_from_features(
                state, x[np.minimum(pos, n - 1)]
            )
            h_all[pos[mask]] = state.h[mask]
            c_all[pos[mask]] = state.c[mask]
        return LSTMState(h=h_all, c=c_all)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def logits(self, state: LSTMState) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(page_logits, offset_logits)`` for a state."""
        return (
            self._mm(state.h, self.params["w_page"]) + self.params["b_page"],
            self._mm(state.h, self.params["w_offset"])
            + self.params["b_offset"],
        )

    def predict(self, state: LSTMState) -> Tuple[np.ndarray, np.ndarray]:
        """Argmax ``(page_ids, offset_ids)`` per row, no softmax."""
        page_logits, offset_logits = self.logits(state)
        return page_logits.argmax(axis=-1), offset_logits.argmax(axis=-1)

    def predict_topk(
        self, state: LSTMState, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(page_ids, offset_ids)`` per row via argpartition."""
        page_logits, offset_logits = self.logits(state)
        return (
            topk_from_logits(page_logits, k),
            topk_from_logits(offset_logits, k),
        )

    # ------------------------------------------------------------------
    # rollout
    # ------------------------------------------------------------------
    def rollout(
        self,
        state: LSTMState,
        pc_ids: np.ndarray,  # (B,) pc id fed at every pseudo step
        steps: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Greedy state-continuation lookahead for every row at once.

        From a snapshot ``state``, repeatedly take the argmax
        ``(page, offset)`` prediction and feed it back as the next
        pseudo-access (the PC slot repeats ``pc_ids``), advancing the
        state in place of the slid window.  This is the cheapest
        possible rollout — one LSTM step per lookahead step.  For a
        sequence-trained model carried state is the training
        distribution, so this rollout — continuing from
        :meth:`segment_states` rows — is both the cheap and the
        faithful choice; it is the one the simulator and the distiller
        run (:func:`voyager.sim.rollout_candidates`).

        Returns ``(pages, offsets, valid)`` of shape ``(B, steps)``;
        ``valid[b, j]`` is False from the first step where row ``b``
        predicted the OOV page onward — the model cannot name a
        concrete page past that horizon.

        ``state`` is not mutated, so callers may roll out from a live
        online state and keep streaming afterwards.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        B = state.batch
        pages = np.zeros((B, steps), dtype=np.int64)
        offsets = np.zeros((B, steps), dtype=np.int64)
        valid = np.zeros((B, steps), dtype=bool)
        alive = np.ones(B, dtype=bool)
        for j in range(steps):
            pid, oid = self.predict(state)
            alive = alive & (pid != OOV_ID)
            if not alive.any():
                break
            pages[:, j] = pid
            offsets[:, j] = oid
            valid[:, j] = alive
            if j + 1 < steps:
                state = self.step(state, pc_ids, pid, oid)
        return pages, offsets, valid

    def rollout_window(
        self,
        feats: np.ndarray,  # (B, H, 3d) precomputed window features
        pc_ids: np.ndarray,  # (B,) pc id fed at every pseudo step
        steps: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Greedy window-replay lookahead for every row at once.

        Each lookahead step slides the feature window one position —
        dropping the oldest access, appending the feature of the
        prediction just made (PC slot repeats ``pc_ids``) — and re-runs
        the LSTM over the slid window from a zero state, the way a
        window-trained model saw every window.  Because window
        *features* have no recurrence they are computed once (here,
        gathered; new pseudo-accesses embed once via
        :meth:`feature_step`), and because the LSTM's input projection
        ``x @ w_x`` depends only on the feature, that projection too is
        computed once per column and **reused across every cell
        evaluation** of every slid window that contains the column
        (``H + steps - 1`` projections instead of ``H * steps``).  Each
        step therefore costs ``H`` batched recurrent ``h @ w_h``
        matmuls plus gate nonlinearities and nothing else — no
        embedding or attention recompute for the ``H - 1`` retained
        positions, no input projection recompute, no backprop cache,
        no softmax.

        Bit-exactness: the emitted predictions equal forwarding each
        slid pseudo-window from scratch at the same batch width (the
        projection hoist preserves the cell's summation order,
        ``(x @ w_x + h @ w_h) + b``).

        Returns ``(pages, offsets, valid)`` with the same shape and OOV
        semantics as :meth:`rollout`.  ``feats`` is not mutated.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        B, H = feats.shape[0], feats.shape[1]
        pages = np.zeros((B, steps), dtype=np.int64)
        offsets = np.zeros((B, steps), dtype=np.int64)
        valid = np.zeros((B, steps), dtype=bool)
        if steps == 0:
            return pages, offsets, valid
        # One flat buffer holds the *projections* of the real window
        # plus every pseudo step; each iteration's window is a strided
        # view into it, so sliding costs a single projected (B, 4h)
        # write instead of re-projecting the whole (B, H, 3d) window.
        proj = self.project_features(feats)
        buf = np.empty((B, H + steps - 1, proj.shape[2]), dtype=proj.dtype)
        buf[:, :H] = proj
        w_x = self.params["w_x"]
        alive = np.ones(B, dtype=bool)
        for j in range(steps):
            state = self.state_from_projected(buf[:, j : j + H])
            pid, oid = self.predict(state)
            alive = alive & (pid != OOV_ID)
            if not alive.any():
                break
            pages[:, j] = pid
            offsets[:, j] = oid
            valid[:, j] = alive
            if j + 1 < steps:
                buf[:, H + j] = self._mm(
                    self.feature_step(pc_ids, pid, oid), w_x
                )
        return pages, offsets, valid


__all__ = ["InferenceEngine", "LSTMState"]

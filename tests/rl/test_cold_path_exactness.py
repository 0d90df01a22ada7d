"""The cold-miss path (embed -> decode -> ``rho`` -> repair) end to end
against verbatim copies of its previous layers.

The decode's attention step gathers ``ref[rows[:, None], cols]`` instead
of ``ref[np.ix_(rows, cols)]`` and its softmax calls the ufunc
reductions directly; the embedding, packing and repair layers have
their own exactness tests.  Here the previous attention scoring and
softmax are kept verbatim, the previous embedding, packing and repair
are taken from those tests, and ``schedule``, ``schedule_batch`` and
``schedule_stage_sweep`` must report the same assignments,
``log_prob``, objectives and repaired-violation counts with the
previous layers patched in as without them.
"""

import numpy as np
import pytest

from repro.embedding.queue import EncoderQueue
from repro.models.zoo import FIG4_MODELS, build_model
from repro.nn import functional as F
from repro.nn.attention import AttentionHead
from repro.rl.respect import RespectScheduler
from repro.tpu.quantize import quantize_graph
from tests.embedding.test_queue_exactness import (
    _previous_build_precedence_matrix,
    _previous_embed_graph,
    serve_shaped,
)
from tests.scheduling.test_packing_exactness import (
    _previous_pack_sequence,
    _previous_repair_dependencies,
)

# ---------------------------------------------------------------------------
# The previous attention step, kept verbatim as the oracle.


def _previous_scores(self, query, ref, rows, cols, scratch):
    q = (query @ self.w_q.value + self.bias.value)[rows]  # [K, H]
    activated = scratch[: rows.size]  # [K, T, H]
    activated[:, cols] = F.tanh(ref[np.ix_(rows, cols)] + q[:, None, :])
    raw = activated @ self.v.value  # [K, T]
    if self.logit_clip > 0:
        return self.logit_clip * F.tanh(raw / self.logit_clip)
    return raw


def _previous_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def _previous_build_encoder_queue(graph, config):
    node_names = graph.topological_order()
    return EncoderQueue(
        node_names=node_names,
        features=_previous_embed_graph(graph, config),
        precedence=_previous_build_precedence_matrix(graph, node_names),
    )


PREVIOUS_LAYERS = [
    ("repro.rl.respect.build_encoder_queue", _previous_build_encoder_queue),
    ("repro.rl.respect.pack_sequence", _previous_pack_sequence),
    ("repro.scheduling.postprocess.repair_dependencies", _previous_repair_dependencies),
    ("repro.nn.functional.softmax", _previous_softmax),
]


# ---------------------------------------------------------------------------


class TestAttentionStep:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("logit_clip", [0.0, 10.0])
    def test_scores_match_previous(self, rng, dtype, logit_clip):
        head = AttentionHead(16, logit_clip=logit_clip, rng=3)
        head.cast(dtype)
        contexts = rng.normal(size=(5, 12, 16)).astype(dtype)
        query = rng.normal(size=(5, 16))
        ref = head.precompute_ref(contexts)
        for rows, cols in [
            ([0, 1, 2, 3, 4], range(12)),
            ([1, 3], [0, 4, 5, 11]),
            ([2], [7]),
        ]:
            rows, cols = np.array(rows), np.array(cols)
            scratch = np.zeros(ref.shape, np.result_type(ref, query))
            old_scratch = scratch.copy()
            got = head.scores(query, ref, rows, cols, scratch)
            expected = _previous_scores(head, query, ref, rows, cols, old_scratch)
            assert got.dtype == expected.dtype
            assert got[:, cols].tobytes() == expected[:, cols].tobytes()

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_matches_previous(self, rng, axis):
        logits = rng.normal(scale=5.0, size=(6, 40))
        logits[:, ::3] = F.MASK_LOGIT
        for x in (logits, logits.astype(np.float32)):
            assert F.softmax(x, axis=axis).tobytes() == _previous_softmax(
                x, axis=axis
            ).tobytes()


def summarize(results):
    return [
        (
            list(result.schedule.assignment.items()),
            result.extras["log_prob"],
            result.objective,
            result.extras["repaired_violations"],
        )
        for result in results
    ]


def run_cold_path(schedulers, zoo, serve):
    out = []
    for scheduler in schedulers:
        for graph in zoo[:2] + serve[:6]:
            out.append(summarize([scheduler.schedule(graph, 4)]))
        for i in range(0, len(serve), 8):
            out.append(summarize(scheduler.schedule_batch(serve[i : i + 8], 5)))
    for graph in zoo:
        out.append(summarize(schedulers[0].schedule_stage_sweep(graph, (2, 3, 4, 5, 6, 8))))
    return out


@pytest.fixture(scope="module")
def cold_paths():
    base = RespectScheduler()
    schedulers = [
        base,
        RespectScheduler(policy=base.policy, constrain_topological=False),
        RespectScheduler(policy=base.policy, budget_slack=1.05),
    ]
    zoo = [quantize_graph(build_model(model)) for model in FIG4_MODELS]
    serve = serve_shaped(48, seed=21)
    with pytest.MonkeyPatch.context() as patch:
        for target, previous in PREVIOUS_LAYERS:
            patch.setattr(target, previous)
        patch.setattr(AttentionHead, "scores", _previous_scores)
        previous_run = run_cold_path(schedulers, zoo, serve)
    return previous_run, run_cold_path(schedulers, zoo, serve)


class TestColdPathMatchesPrevious:
    def test_same_results(self, cold_paths):
        previous, current = cold_paths
        assert len(current) == len(previous)
        for got, expected in zip(current, previous):
            assert got == expected

    def test_covers_repairs(self, cold_paths):
        # The unconstrained decodes exercise the repair walk too.
        _, current = cold_paths
        assert any(row[3] > 0 for results in current for row in results)

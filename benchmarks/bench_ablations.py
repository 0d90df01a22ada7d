"""Benchmark E6 — ablations of the reproduction's design choices."""

from repro.datasets.synthetic import generate_dataset
from repro.embedding.features import EmbeddingConfig
from repro.experiments.ablations import (
    ablate_baselines,
    ablate_budget_slack,
    ablate_bus_topology,
    ablate_embedding_columns,
    ablate_postprocessing,
    ablate_reward_definitions,
)
from repro.utils.tables import format_table


def test_reward_definitions(benchmark, emit, respect_scheduler):
    """Eq. 1 vs Eq. 3 vs exact match on the pretrained policy."""
    examples = generate_dataset(24, num_nodes=30, seed=3)
    rewards = benchmark.pedantic(
        ablate_reward_definitions,
        args=(respect_scheduler.policy, examples),
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ["reward definition", "mean value"],
        [[k, f"{v:.4f}"] for k, v in rewards.items()],
        title="E6a — reward definitions on pretrained-policy rollouts",
    )
    emit("ablation_rewards", table, metrics=rewards, seed=3)
    # Stage cosine (the training signal) is the most forgiving, sequence
    # cosine sits between it and strict exact match.
    assert rewards["stage_cosine_eq3"] >= rewards["exact_match"]
    assert rewards["stage_cosine_eq3"] > 0.8


def test_baseline_variants(benchmark, emit):
    """Rollout baseline vs batch mean vs none: variance reduction."""
    examples = generate_dataset(20, num_nodes=10, seed=4)
    feature_dim = EmbeddingConfig().feature_dim
    out = benchmark.pedantic(
        ablate_baselines,
        kwargs={"examples": examples, "feature_dim": feature_dim, "steps": 10},
        rounds=1,
        iterations=1,
    )
    rows = [
        [kind, f"{v['final_cost']:.4f}", f"{v['advantage_std']:.4f}",
         f"{v['mean_grad_norm']:.3f}"]
        for kind, v in out.items()
    ]
    emit(
        "ablation_baselines",
        format_table(
            ["baseline", "final cost", "advantage std", "mean grad norm"],
            rows,
            title="E6b — REINFORCE baseline variants (Eq. 6)",
        ),
        metrics=out,
        seed=4,
    )
    assert out["rollout"]["advantage_std"] <= out["none"]["advantage_std"]


def test_embedding_columns(benchmark, emit):
    """Sec. III-A embedding columns: what each contributes."""
    out = benchmark.pedantic(
        ablate_embedding_columns, kwargs={"steps": 30}, rounds=1, iterations=1
    )
    emit(
        "ablation_embedding",
        format_table(
            ["embedding variant", "imitation token accuracy"],
            [[k, f"{v:.3f}"] for k, v in out.items()],
            title="E6c — embedding column ablation",
        ),
        metrics=out,
    )
    assert out["full"] > 0.4


def test_postprocessing(benchmark, emit, respect_scheduler):
    """Dependency repair: needed without the precedence mask, no-op with it."""
    out = benchmark.pedantic(
        ablate_postprocessing,
        kwargs={"respect": respect_scheduler},
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            kind,
            f"{v.mean_violations_raw:.1f}",
            f"{v.mean_violations_repaired:.1f}",
            f"{v.mean_peak_bytes_raw / 1e6:.2f} MB",
            f"{v.mean_peak_bytes_repaired / 1e6:.2f} MB",
        ]
        for kind, v in out.items()
    ]
    emit(
        "ablation_postprocessing",
        format_table(
            ["decoding", "violations raw", "violations repaired",
             "peak raw", "peak repaired"],
            rows,
            title="E6d — post-inference processing ablation",
        ),
        metrics={
            kind: {
                "violations_raw": v.mean_violations_raw,
                "violations_repaired": v.mean_violations_repaired,
                "peak_bytes_raw": v.mean_peak_bytes_raw,
                "peak_bytes_repaired": v.mean_peak_bytes_repaired,
            }
            for kind, v in out.items()
        },
    )
    assert out["constrained"].mean_violations_raw == 0.0
    assert out["unconstrained"].mean_violations_repaired == 0.0


def test_bus_topology(benchmark, emit):
    """Shared host bus vs per-stage links (why contention matters)."""
    out = benchmark.pedantic(ablate_bus_topology, rounds=1, iterations=1)
    rows = [
        [method, f"{v['per_stage'] * 1e3:.3f} ms", f"{v['shared'] * 1e3:.3f} ms",
         f"{v['shared'] / v['per_stage']:.2f}x"]
        for method, v in out.items()
    ]
    emit(
        "ablation_bus_topology",
        format_table(
            ["scheduler", "per-stage links", "shared bus", "slowdown"],
            rows,
            title="E6e — USB topology ablation (ResNet50, 6 stages)",
        ),
        metrics=out,
    )
    for v in out.values():
        assert v["shared"] >= v["per_stage"] * 0.999


def test_budget_slack(benchmark, emit, respect_scheduler):
    """rho packing-budget sensitivity (fixed-share mode vs minimal)."""
    out = benchmark.pedantic(
        ablate_budget_slack,
        kwargs={"respect": respect_scheduler},
        rounds=1,
        iterations=1,
    )
    rows = [[f"{slack:.2f}", f"{peak / 1e6:.3f} MB"] for slack, peak in out.items()]
    emit(
        "ablation_budget_slack",
        format_table(
            ["budget slack", "RESPECT peak memory"],
            rows,
            title="E6f — rho budget-slack sensitivity (ResNet50, 4 stages)",
        ),
        metrics={f"{slack:.2f}": peak for slack, peak in out.items()},
    )
    assert len(out) == 5

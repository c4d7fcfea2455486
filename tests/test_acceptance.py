"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``), and the
multi-seed training criteria share one set of cached runs. The headline
clinical-dataset numbers from the full-scale system are not reproducible at
desk scale; criterion 1 checks the published metrics' internal consistency
instead, and criteria 6-8 use the planted synthetic benchmark.
"""

import json
import time

import numpy as np
import pytest

from dynssm import data as D
from dynssm import graph as gr
from dynssm import ssm as sm
from dynssm import training as TR
from dynssm.align import SurrogateModel, surrogate_forward
from dynssm.cli import main as cli_main
from dynssm.gradcheck import run_gradcheck
from dynssm.model import BrainSequenceClassifier, ModelConfig
from dynssm.rng import CounterRng
from dynssm.tensor import Tensor

from test_ssm import scan_runtime_ratio

PLANTED_SEED = 100
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _train_variant(variant: str, subjects, seed: int) -> float:
    split = D.split_dataset(subjects, 0.8, seed=seed)
    cfg = TR.TrainConfig(learning_rate=2e-3, epochs=10, batch_size=4, seed=seed)
    result = TR.run_variant(variant, split, cfg, ModelConfig.desk(n_rois=16))
    return result.metrics.accuracy


@pytest.fixture(scope="module")
def planted_runs():
    """Accuracies for the training-based criteria, plus their wall time."""
    t0 = time.time()
    planted = D.synth_generate(D.default_synth_spec(seed=PLANTED_SEED))
    null = D.synth_generate(D.null_synth_spec(seed=PLANTED_SEED))
    acc = {"full": [], "static_graph": [], "frozen_llm": [], "null": []}
    for seed in SEEDS:
        acc["full"].append(_train_variant("full", planted, seed))
        acc["static_graph"].append(_train_variant("static_graph", planted, seed))
        acc["frozen_llm"].append(_train_variant("frozen_llm", planted, seed))
        acc["null"].append(_train_variant("full", null, seed))
    # the encoder-free baselines are cheap: widen to 10 seeds for stability
    acc["align:none"] = [_train_variant("align:none", planted, s) for s in range(10)]
    acc["align:random"] = [_train_variant("align:random", planted, s) for s in range(10)]
    acc["elapsed"] = time.time() - t0
    return acc


class TestCriterion1PaperConsistency:
    def test_metric_identity_replaces_unreproducible_headline(self):
        precision, recall = 0.8022, 0.6102
        f1 = 2.0 * precision * recall / (precision + recall)
        gap = abs(f1 - 0.6931)
        report(1, gap < 5e-4,
               f"published P/R reproduce F1 to {gap:.1e} (headline accuracy "
               "0.7212 needs the clinical dataset + full-scale language model; "
               "not desk-reproducible by design)")


class TestCriterion2ScanEquivalence:
    def test_exhaustive_and_random_lengths(self):
        t0 = time.time()
        params = sm.SsmParams.create(CounterRng(0), d_in=12, d_h=16, block_count=1)
        worst = 0.0
        cases = [CounterRng(1000 + T).normal((T, 12)) for T in range(1, 9)]
        draw = CounterRng(0xACC)
        for _ in range(50):
            T = int(draw.integers(1, 4097))
            cases.append(draw.child(T).normal((T, 12)))
        for x in cases:
            seq = sm.scan_sequential(x, params).states
            par = sm.scan_parallel(x, params).states
            rel = np.max(np.abs(seq - par) /
                         np.maximum(np.maximum(np.abs(seq), np.abs(par)), 1e-12))
            worst = max(worst, rel)
        elapsed = time.time() - t0
        report(2, worst < 1e-8 and elapsed < 30.0,
               f"parallel==sequential to {worst:.2e} over T in 1..8 plus 50 random "
               f"lengths up to 4096 in {elapsed:.1f}s")


@pytest.mark.slow
class TestCriterion3LinearTime:
    def test_sequential_scan_scaling(self):
        median = scan_runtime_ratio(runs=20)
        report(3, 1.6 <= median <= 2.6,
               f"median T=2048/T=1024 runtime ratio {median:.2f} (20 runs)")


class TestCriterion4GradientSuite:
    def test_every_op_and_end_to_end(self):
        t0 = time.time()
        results = run_gradcheck(seeds=20)
        elapsed = time.time() - t0
        worst_name = max(results, key=results.get)
        worst = results[worst_name]
        report(4, worst < 1e-4 and elapsed < 120.0,
               f"{len(results)} checks x 20 seeds, worst {worst_name}="
               f"{worst:.2e}, {elapsed:.0f}s")


class TestCriterion5LoraContracts:
    def test_neutrality_freeze_and_rank(self):
        # (a) zero-init adapters leave outputs unchanged
        adapted = SurrogateModel.create(seed=5, d_k=32, heads=4, vocab=16,
                                        block_count=2, max_len=16, rank=4, alpha=8.0)
        bare = SurrogateModel.create(seed=5, d_k=32, heads=4, vocab=16,
                                     block_count=2, max_len=16, rank=4, alpha=8.0)
        bare.adapters = {}
        z = Tensor(CounterRng(1).normal((3, 32)))
        diff = np.max(np.abs(surrogate_forward(z, [1, 2, 3], adapted).data -
                             surrogate_forward(z, [1, 2, 3], bare).data))

        # (b) frozen checksum identical across a 2-epoch training run
        subjects = D.synth_generate(D.default_synth_spec(
            seed=3, subjects_per_class=6, length=48))
        split = D.split_dataset(subjects, 0.8, seed=3)
        model = BrainSequenceClassifier(ModelConfig.desk(n_rois=16))
        before = model.surrogate.checksum()
        TR.train_model(model, split.train,
                       TR.TrainConfig(learning_rate=2e-3, epochs=2, batch_size=4, seed=3),
                       test_subjects=split.test)
        frozen_ok = model.surrogate.checksum() == before

        # (c) numerical rank of the trained weight delta stays <= r
        rank_ok = True
        for adapter in model.surrogate.adapters.values():
            sv = np.linalg.svd(adapter.delta(), compute_uv=False)
            if sv[0] > 0 and np.any(sv[adapter.rank:] >= 1e-10 * sv[0]):
                rank_ok = False
        report(5, diff <= 1e-15 and frozen_ok and rank_ok,
               f"zero-init diff {diff:.1e}, frozen checksum "
               f"{'stable' if frozen_ok else 'CHANGED'}, delta rank bound "
               f"{'holds' if rank_ok else 'violated'}")


@pytest.mark.slow
class TestCriterion6SyntheticClassification:
    def test_planted_and_null_accuracy(self, planted_runs):
        full = planted_runs["full"]
        hits = sum(1 for a in full if a >= 0.90)
        null_mean = float(np.mean(planted_runs["null"]))
        elapsed = planted_runs["elapsed"]
        report(6, hits >= 4 and 0.40 <= null_mean <= 0.60 and elapsed < 600.0,
               f"planted accuracy {[f'{a:.2f}' for a in full]} ({hits}/5 >= 0.90), "
               f"null mean {null_mean:.3f}, training wall {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion7AblationDirection:
    def test_full_vs_static_and_frozen(self, planted_runs):
        full = float(np.mean(planted_runs["full"]))
        static = float(np.mean(planted_runs["static_graph"]))
        frozen = float(np.mean(planted_runs["frozen_llm"]))
        report(7, full >= static and full >= frozen,
               f"margins over 5 seeds: full-static {full - static:+.4f}, "
               f"full-frozen {full - frozen:+.4f}")


@pytest.mark.slow
class TestCriterion8AlignmentVariants:
    def test_random_matches_prompt_only_and_tokens_beat_it(self, planted_runs):
        none_mean = float(np.mean(planted_runs["align:none"]))
        random_mean = float(np.mean(planted_runs["align:random"]))
        tokens_mean = float(np.mean(planted_runs["full"]))   # align:tokens is the full model
        gap = abs(random_mean - none_mean)
        report(8, gap <= 0.05 and tokens_mean > none_mean,
               f"random {random_mean:.3f} vs prompt-only {none_mean:.3f} "
               f"(gap {gap:.3f}), summary tokens {tokens_mean:.3f}")


class TestCriterion9GraphProperties:
    def test_symmetry_oracles_equivalence(self):
        params = gr.NodeEncoderParams.create(CounterRng(0), d_lat=16,
                                             conv_features=4, heads=4)
        x = CounterRng(1).normal((16, 8))
        seq = gr.encode_sequence(Tensor(x), params, mode="raw")
        g = seq.adjacency.data
        sym_exact = all(np.array_equal(g[t], g[t].T) for t in range(16))

        h = seq.embeddings.data
        worst_adj = max(
            abs(g[t][i, j] - np.dot(h[t, i], h[t, j]) / np.sqrt(16))
            for t in range(16) for i in range(8) for j in range(8))
        worst_filter = 0.0
        for t in range(16):
            ref = np.array([sum(g[t][i, j] * x[t, j] for j in range(8))
                            for i in range(8)])
            worst_filter = max(worst_filter,
                               np.max(np.abs(seq.filtered.data[t] - ref)))
        h_again = gr.encode_nodes(Tensor(x), params)
        worst_equiv = 0.0
        for t in range(16):
            g_t = gr.infer_adjacency(h_again[t])
            f_t = gr.graph_filter(g_t, Tensor(x[t]), mode="raw")
            worst_equiv = max(worst_equiv,
                              np.max(np.abs(g[t] - g_t.data)),
                              np.max(np.abs(seq.filtered.data[t] - f_t.data)))
        report(9, sym_exact and worst_adj < 1e-12 and worst_filter < 1e-12
               and worst_equiv < 1e-12,
               f"symmetry exact={sym_exact}, adjacency oracle {worst_adj:.1e}, "
               f"filter oracle {worst_filter:.1e}, per-step equivalence "
               f"{worst_equiv:.1e}")


@pytest.mark.slow
class TestCriterion10Determinism:
    def test_two_train_runs_identical_metrics(self, tmp_path):
        args = ["--seed", "21", "--epochs", "2", "--threads", "1", "--quiet",
                "--set", "data.subjects_per_class=5", "--set", "data.length=32"]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        ok1 = cli_main(["train", "--out", str(r1)] + args) == 0
        ok2 = cli_main(["train", "--out", str(r2)] + args) == 0
        same = (r1 / "metrics.json").read_bytes() == (r2 / "metrics.json").read_bytes()
        acc = json.loads((r1 / "metrics.json").read_text())["accuracy"]
        report(10, ok1 and ok2 and same,
               f"metrics.json byte-identical across two --threads 1 runs "
               f"(accuracy {acc:.3f})")

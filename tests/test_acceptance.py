"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line as it
happens. The directional experiments (ablation ordering, entropy dynamics,
forgetting) share one 4-arm x 20-seed sweep on the default benchmark.
"""

import io
import json
import math
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest

import conftest
from entrocl import LayeredNet, ReplayBuffer, composite_loss
from entrocl import tensor as T
from entrocl.cli import ExperimentPlan, apply_arm, run_plan
from entrocl.modulation import alpha_from_accuracies, entropy_summary, gamma_from_entropies, layer_zscores
from entrocl.streams import StreamConfig, make_synthetic_stream
from entrocl.training import RunConfig, run_sequence

mpmath.mp.dps = 50

SEEDS = tuple(range(20))
ARMS = ("full", "no_entropy_scaling", "no_adaptive_training", "plain_er")


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def sign_test_p(wins, losses):
    """One-sided paired sign test, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    return sum(comb(n, k) for k in range(wins, n + 1)) / 2.0**n


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """The 4-arm x 20-seed default-benchmark sweep, shared by criteria 5-7."""
    out = tmp_path_factory.mktemp("sweep")
    plan = ExperimentPlan(
        run_config=RunConfig(),
        stream_config=StreamConfig(),
        seeds=SEEDS,
        arms=ARMS,
        out=out,
        jobs=4,
    )
    assert run_plan(plan) == 0
    summaries = {}
    for arm in ARMS:
        summaries[arm] = [
            json.loads((out / arm / str(seed) / "summary.json").read_text())
            for seed in SEEDS
        ]
    return summaries


class TestGradientOracle:
    def _check_instance(self, rng, widths, sample_entries):
        input_dim = int(rng.integers(3, 9))
        num_classes = int(rng.integers(3, 7))
        batch = int(rng.integers(2, 9))
        net = LayeredNet.init(input_dim, widths, num_classes, seed=int(rng.integers(1 << 30)))
        x = rng.standard_normal((batch, input_dim))
        y = rng.integers(0, num_classes, size=batch)
        alpha = tuple(float(a) for a in rng.uniform(0.5, 2.0, size=len(widths)))

        objective = composite_loss(net.forward(x), y, alpha, beta=0.005)
        gamma = objective.gamma  # frozen: gamma and alpha are constants of the objective
        analytic = dict(net.views(T.backward(objective)))

        # perturbing these views in place moves net's own parameters
        params = dict(net.parameters())
        entries = None
        if sample_entries is not None:
            entries = {
                name: rng.choice(arr.size, size=min(sample_entries, arr.size), replace=False)
                for name, arr in params.items()
            }
        fd = T.finite_difference_gradient(
            conftest.loss_fn(net, x, y, alpha, 0.005, gamma), params, step=1e-5, entries=entries
        )

        worst = 0.0
        for name in params:
            picked = slice(None) if entries is None else entries[name]
            # entries below 1e-6 are checked in absolute terms: the FD
            # truncation floor (~1e-10) makes smaller ratios meaningless
            rel = conftest.relative_error(
                analytic[name].reshape(-1)[picked], fd[name].reshape(-1)[picked], floor=1e-6
            )
            worst = max(worst, float(rel.max()))
        return worst

    def test_criterion_1_gradient_oracle(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        instances = 0
        for widths, count, sample in (
            ((8, 8), 40, None),
            ((16, 16, 16), 35, 4),
            ((64, 64, 64, 64), 30, 3),
        ):
            for _ in range(count):
                worst = max(worst, self._check_instance(rng, widths, sample))
                instances += 1
        elapsed = time.perf_counter() - started
        ok = worst < 1e-4 and instances >= 100 and elapsed < 60.0
        assert report(
            "gradient-oracle",
            ok,
            f"{instances} instances, max rel err {worst:.3e}, {elapsed:.1f}s",
        )


class TestModulatorBounds:
    def test_criterion_2_modulator_bounds(self):
        cfg = RunConfig(seed=0)
        tasks = make_synthetic_stream(StreamConfig(seed=0))
        result = run_sequence(tasks, cfg)
        lo_a, hi_a = math.exp(-1), math.e
        lo_g, hi_g = cfg.beta * math.exp(-1), cfg.beta * math.e
        alpha, gamma = result.telemetry["alpha"], result.telemetry["gamma"]
        violations = int((~((lo_a <= alpha) & (alpha <= hi_a))).sum())
        violations += int((~((lo_g <= gamma) & (gamma <= hi_g))).sum())
        ok = violations == 0
        assert report(
            "modulator-bounds",
            ok,
            f"{len(result.telemetry)} steps, {violations} violations",
        )


class TestClosedForms:
    def test_criterion_3_closed_forms(self):
        from test_model import zero_net

        net = zero_net(input_dim=6, widths=(5, 5, 5, 5), num_classes=10)
        record = net.forward(np.ones((4, 6)))
        objective = composite_loss(record, [0, 3, 6, 9], alpha=(1.0,) * 4, beta=0.005)
        closed_form = 4 * 1.005 * math.log(10)
        loss_ok = abs(objective.total - closed_form) < 1e-9

        def mp_z(values):
            vals = [mpmath.mpf(v) for v in values]
            mu = sum(vals) / len(vals)
            sigma = mpmath.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))
            return [(v - mu) / sigma if sigma > 0 else mpmath.mpf(0) for v in vals]

        worst = 0.0
        _, _, z = layer_zscores([1.0, 2.0, 3.0])
        for got, want in zip(z, mp_z([1.0, 2.0, 3.0])):
            worst = max(worst, abs(got - float(want)))
        gamma = gamma_from_entropies(entropy_summary([1.0, 2.0, 3.0]), 0.005)
        for got, zi in zip(gamma, mp_z([1.0, 2.0, 3.0])):
            want = mpmath.mpf("0.005") * mpmath.e ** mpmath.tanh(zi)
            worst = max(worst, abs(got - float(want)))
        alpha = alpha_from_accuracies([0.2, 0.5, 0.8])
        for got, si in zip(alpha, mp_z([0.2, 0.5, 0.8])):
            want = mpmath.e ** mpmath.tanh(-si)
            worst = max(worst, abs(got - float(want)))
        alpha2 = alpha_from_accuracies([0.9, 0.1])
        for got, si in zip(alpha2, mp_z([0.9, 0.1])):
            want = mpmath.e ** mpmath.tanh(-si)
            worst = max(worst, abs(got - float(want)))
        formulas_ok = worst < 1e-6
        ok = loss_ok and formulas_ok
        assert report(
            "closed-forms",
            ok,
            f"degenerate loss err {abs(objective.total - closed_form):.2e}, "
            f"worked examples max err {worst:.2e}",
        )


class TestReservoirLaw:
    def test_criterion_4_reservoir_law(self):
        started = time.perf_counter()
        capacity, n, trials = 10, 1000, 10000
        target = capacity / n
        counts = np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(7)
        for _ in range(trials):
            buf = ReplayBuffer(capacity, rng)
            buf.extend(range(n))
            counts[buf.items] += 1
        freq = counts / trials
        max_dev = float(np.abs(freq - target).max())
        elapsed = time.perf_counter() - started
        ok = max_dev < 0.01 and elapsed < 60.0
        assert report(
            "reservoir-law",
            ok,
            f"{trials} trials, max |freq - {target}| = {max_dev:.4f}, {elapsed:.1f}s",
        )


class TestAblationDirection:
    def test_criterion_5_ablation_direction(self, sweep):
        acc = {arm: np.array([s["acc_final"] for s in sweep[arm]]) for arm in ARMS}
        full, no_es, no_at = acc["full"], acc["no_entropy_scaling"], acc["no_adaptive_training"]

        mean_es_ok = full.mean() > no_es.mean()
        w_es, l_es = int((full > no_es).sum()), int((full < no_es).sum())
        p_es = sign_test_p(w_es, l_es)

        mean_at_ok = full.mean() >= no_at.mean()
        w_at, l_at = int((full > no_at).sum()), int((full < no_at).sum())
        p_at = sign_test_p(w_at, l_at)

        ok = mean_es_ok and p_es < 0.05 and mean_at_ok and p_at < 0.05
        assert report(
            "ablation-direction",
            ok,
            f"full={full.mean():.4f} no_es={no_es.mean():.4f} "
            f"(w/l {w_es}/{l_es}, p={p_es:.4f}); "
            f"no_at={no_at.mean():.4f} (w/l {w_at}/{l_at}, p={p_at:.4f})",
        )


class TestEntropyDynamics:
    def test_criterion_6_entropy_dynamics(self, sweep):
        full = np.array([s["entropy_spread_final"] for s in sweep["full"]])
        no_es = np.array(
            [s["entropy_spread_final"] for s in sweep["no_entropy_scaling"]]
        )
        wins = int((full < no_es).sum())
        ok = wins >= 0.7 * len(SEEDS)
        assert report(
            "entropy-dynamics",
            ok,
            f"spread(full) < spread(no_entropy_scaling) in {wins}/{len(SEEDS)} seeds",
        )


class TestForgettingDirection:
    def test_criterion_7_forgetting_direction(self, sweep):
        full = np.array([s["average_forgetting"] for s in sweep["full"]])
        plain = np.array([s["average_forgetting"] for s in sweep["plain_er"]])
        ok = full.mean() <= plain.mean()
        assert report(
            "forgetting-direction",
            ok,
            f"AF(full)={full.mean():.4f} vs AF(plain_er)={plain.mean():.4f}",
        )


class TestOverhead:
    def test_criterion_8_overhead(self):
        # paired rounds and a median ratio keep transient machine load from
        # polluting the intrinsic single-job comparison
        ratios = []
        for seed in range(5):
            tasks = make_synthetic_stream(StreamConfig(seed=seed))
            round_times = {}
            for arm in ("full", "no_entropy_scaling"):
                cfg = replace(apply_arm(RunConfig(), arm), seed=seed)
                started = time.perf_counter()
                run_sequence(tasks, cfg)
                round_times[arm] = time.perf_counter() - started
            ratios.append(round_times["full"] / round_times["no_entropy_scaling"])
        ratio = float(np.median(ratios))
        ok = ratio < 1.10
        assert report(
            "overhead",
            ok,
            f"median of {len(ratios)} paired rounds, "
            f"full/no_entropy_scaling ratio {ratio:.3f}",
        )


class TestDeterminism:
    def test_criterion_9_determinism(self, tmp_path):
        stream_cfg = StreamConfig(train_per_class=60, test_per_class=20)
        run_cfg = RunConfig(widths=(16, 16), buffer_capacity=60)
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            plan = ExperimentPlan(
                run_config=run_cfg,
                stream_config=stream_cfg,
                seeds=(0, 1),
                arms=("full", "plain_er"),
                out=out,
                jobs=1,
            )
            assert run_plan(plan) == 0
            blob = [(out / "report.csv").read_bytes()]
            for arm in ("full", "plain_er"):
                for seed in (0, 1):
                    run_dir = out / arm / str(seed)
                    blob.append((run_dir / "accuracy_matrix.csv").read_bytes())
                    blob.append((run_dir / "telemetry.csv").read_bytes())
            digests.append(blob)
        ok = digests[0] == digests[1]
        assert report(
            "determinism",
            ok,
            f"{len(digests[0])} artifacts compared bitwise, identical={ok}",
        )

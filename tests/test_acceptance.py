"""Acceptance checks for the whole package.

Each test covers one shipping requirement and prints a single
"criterion N (...): PASS/FAIL" line so a log scrape can collect the
verdicts. Tolerances and budgets are part of the requirement, not of
the test style, so they are asserted literally.
"""

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest

from cdrsweep import (
    PerSlotPolicy,
    SimConfig,
    TrainConfig,
    build_schedule,
    evaluate,
    expected_delay_static,
    fit,
    grad_check_by_tensor,
    gru_step,
    init_params,
    make_windows,
    predict_next,
    rank_sectors,
    rates_from_counts,
    sequential_ranking,
    simulate,
    synthetic_series,
)
from _cli import run_cli
from _oracles import gru_step_scalar, weights_as_lists

# Upper 1% point of the chi-square distribution with 23 degrees of
# freedom (24 orderings - 1), precomputed once with scipy.stats.chi2.
CHI2_DF23_ALPHA01 = 41.638398118858476


@contextmanager
def _verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_gradient_check_battery():
    with _verdict(1, "gradient check battery"):
        rng = np.random.default_rng(np.random.SeedSequence(101))
        t0 = perf_counter()
        worst = 0.0
        for i in range(20):
            hidden = (4, 8)[i % 2]
            p = init_params(4, hidden, 4, rng)
            seq_len = int(rng.integers(2, 11))
            xs = rng.normal(size=(seq_len, 4))
            y = rng.normal(size=4)
            errs = grad_check_by_tensor(p, (xs, y), epsilon=1e-5)
            for name, err in errs.items():
                assert err < 1e-4, f"model {i} tensor {name}: {err:.3e}"
                worst = max(worst, err)
        elapsed = perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        print(f"  worst tensor error {worst:.3e} in {elapsed:.1f}s")


def test_criterion_2_step_matches_scalar_reference():
    with _verdict(2, "recurrence vs scalar reference"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            hidden = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 6))
            p = init_params(dim, hidden, dim, rng)
            for arr in p.arrays().values():
                arr[:] = rng.normal(size=arr.shape)
            h_prev = rng.normal(size=hidden)
            x = rng.normal(size=dim)
            ours = gru_step(p, h_prev, x).h
            ref = np.array(gru_step_scalar(
                weights_as_lists(p), list(h_prev), list(x)))
            assert np.max(np.abs(ours - ref)) <= 1e-12

        zero = init_params(1, 1, 1, np.random.default_rng(0))
        for arr in zero.arrays().values():
            arr[:] = 0.0
        h_prev = np.array([0.8])
        x = np.array([0.3])
        assert abs(gru_step(zero, h_prev, x).h[0] - 0.4) <= 1e-8

        zero.b_u[:] = -100.0
        assert abs(gru_step(zero, h_prev, x).h[0] - 0.8) <= 1e-8
        zero.b_u[:] = 100.0
        zero.b_z[:] = 2.0
        assert abs(gru_step(zero, h_prev, x).h[0] - np.tanh(2.0)) <= 1e-8


def test_criterion_3_window_split_sizes():
    with _verdict(3, "window split sizes"):
        series = synthetic_series(2016, seed=2013)
        ds = make_windows(series, window_len=144, train_fraction=0.9)
        assert ds.n_train == 1684
        assert ds.n_test == 188


def test_criterion_4_demo_ingest_counts(tmp_path):
    with _verdict(4, "demo ingest counts"):
        proc = run_cli(["fixture", "--kind", "raw", "--out", "demo.tsv"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["ingest", "--raw", "demo.tsv", "--out", "demo.csv"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "demo.csv").read_text().splitlines()
        assert lines == [
            "time,A,B,C,D",
            "2013-11-17T22:10:00Z,3,3,3,5",
            "2013-11-17T22:20:00Z,2,2,2,2",
            "2013-11-17T22:30:00Z,3,2,1,2",
            "2013-11-17T22:40:00Z,2,3,3,4",
            "2013-11-17T22:50:00Z,3,1,2,5",
        ]


def test_criterion_5_learning_beats_persistence():
    with _verdict(5, "forecast beats persistence"):
        t0 = perf_counter()
        series = synthetic_series(2016, seed=2013)
        ds = make_windows(series, window_len=144, train_fraction=0.9)
        wins = 0
        ratios = []
        for seed in range(5):
            p, norm, _ = fit(ds, TrainConfig(seed=seed), hidden_dim=32)
            res = evaluate(p, norm, ds)
            ratio = res.mse_total / res.persistence_mse_total
            ratios.append(ratio)
            if ratio <= 0.9:
                wins += 1
        elapsed = perf_counter() - t0
        print("  ratios " + " ".join(f"{r:.3f}" for r in ratios)
              + f" in {elapsed:.0f}s")
        assert wins >= 4, f"only {wins}/5 seeds beat persistence"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_6_tie_shuffle_is_uniform():
    with _verdict(6, "tie shuffle uniformity"):
        rng = np.random.default_rng(606)
        values = np.array([2.0, 2.0, 2.0, 2.0])
        counts = Counter()
        n_draws = 100_000
        for _ in range(n_draws):
            counts[rank_sectors(values, rng).order] += 1
        assert len(counts) == 24
        expected = n_draws / 24.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        print(f"  chi2 {chi2:.2f} vs critical {CHI2_DF23_ALPHA01:.2f}")
        assert chi2 < CHI2_DF23_ALPHA01


def test_criterion_7_simulator_matches_closed_form():
    with _verdict(7, "simulator calibration"):
        rng = np.random.default_rng(707)
        for trial in range(5):
            ranking = rank_sectors(rng.normal(size=4), rng)
            schedule = build_schedule(ranking)
            shares = rng.random(4) + 0.05
            shares /= shares.sum()

            horizon_us = 600e6  # one simulator slot, 600 s
            total_rate = 1e5 / 600.0
            cfg = SimConfig(arrival_rates_per_s=shares * total_rate,
                            horizon_us=horizon_us, detect_prob=1.0,
                            seed=1000 + trial)
            report = simulate(cfg, PerSlotPolicy.from_ranking(ranking, name="cal"))
            assert report.n_ues > 90_000
            want = expected_delay_static(schedule, shares)
            rel = abs(report.mean_us - want) / want
            print(f"  trial {trial}: mc {report.mean_us:.1f} vs "
                  f"closed form {want:.1f} (rel {rel:.4f})")
            assert rel <= 0.01


def test_criterion_8_predicted_order_cuts_delay():
    with _verdict(8, "predicted order cuts delay"):
        t0 = perf_counter()
        shares = (0.1, 0.1, 0.1, 0.7)
        series = synthetic_series(2016, seed=99, shares=shares)
        ds = make_windows(series, window_len=144, train_fraction=0.9)
        p, norm, _ = fit(ds, TrainConfig(seed=0), hidden_dim=16)

        window_len = 144
        sim_slots = 36
        counts = series.counts
        start = counts.shape[0] - sim_slots
        preds = np.empty((sim_slots, 4))
        for i in range(sim_slots):
            preds[i] = predict_next(p, norm, counts, window_len, start + i, start + i)[0]
        truth = counts[start:start + sim_slots].astype(float)

        rates = rates_from_counts(truth, 0.15)
        tie_a, tie_b, run_src = np.random.SeedSequence(777).spawn(3)
        policies = (
            PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"),
            PerSlotPolicy.from_values("predicted", preds,
                                      np.random.default_rng(tie_a)),
            PerSlotPolicy.from_values("oracle", truth,
                                      np.random.default_rng(tie_b)),
        )
        run_seeds = np.random.default_rng(run_src).integers(
            0, 2**63, size=30, dtype=np.uint64)

        means = {pol.name: [] for pol in policies}
        wins = 0
        for s in run_seeds:
            cfg = SimConfig(arrival_rates_per_s=rates,
                            horizon_us=sim_slots * 600e6,
                            detect_prob=1.0, seed=int(s))
            by_name = {pol.name: simulate(cfg, pol) for pol in policies}
            for name, rep in by_name.items():
                means[name].append(rep.mean_us)
            if by_name["predicted"].mean_us < by_name["sequential"].mean_us:
                wins += 1

        seq_mean = float(np.mean(means["sequential"]))
        pred_mean = float(np.mean(means["predicted"]))
        orac_mean = float(np.mean(means["oracle"]))
        elapsed = perf_counter() - t0
        print(f"  sequential {seq_mean:.1f}us predicted {pred_mean:.1f}us "
              f"oracle {orac_mean:.1f}us wins {wins}/30 in {elapsed:.0f}s")
        assert wins >= 28, f"predicted won only {wins}/30 paired seeds"
        assert orac_mean <= pred_mean
        assert orac_mean <= seq_mean
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    with _verdict(9, "CLI reruns byte-identical"):
        base = tmp_path
        prep = run_cli(["fixture", "--kind", "series", "--slots", "220",
                        "--out", "series.csv"], cwd=base)
        assert prep.returncode == 0, prep.stderr
        prep = run_cli(["train", "--series", "series.csv",
                        "--window-len", "24", "--hidden", "5",
                        "--epochs", "1", "--steps", "6", "--batch", "8",
                        "--seed", "3", "--model-out", "model.txt"], cwd=base)
        assert prep.returncode == 0, prep.stderr

        cases = [
            (["fixture", "--kind", "raw", "--out", "demo.tsv"],
             ["demo.tsv"]),
            (["fixture", "--kind", "series", "--slots", "96",
              "--out", "synth.csv"],
             ["synth.csv"]),
            (["ingest", "--raw", "../demo_in.tsv", "--out", "demo.csv"],
             ["demo.csv"]),
            (["train", "--series", "../series.csv", "--window-len", "24",
              "--hidden", "5", "--epochs", "1", "--steps", "6",
              "--batch", "8", "--seed", "3"],
             ["model.txt", "history.csv"]),
            (["predict", "--model", "../model.txt", "--series",
              "../series.csv", "--window-len", "24"],
             []),
            (["schedule", "--model", "../model.txt", "--series",
              "../series.csv", "--window-len", "24", "--seed", "5",
              "--out", "sched.csv"],
             ["sched.csv"]),
            (["eval", "--model", "../model.txt", "--series", "../series.csv",
              "--window-len", "24", "--out", "eval.csv"],
             ["eval.csv"]),
            (["simulate", "--series", "../series.csv", "--model",
              "../model.txt", "--window-len", "24", "--n-seeds", "2",
              "--sim-slots", "3", "--seed", "11"],
             ["sim_report.csv", "sim_summary.csv", "sim_compare.csv"]),
            (["gradcheck", "--models", "1", "--hidden", "4",
              "--max-len", "4", "--seed", "2"],
             []),
        ]

        demo = run_cli(["fixture", "--kind", "raw", "--out", "demo_in.tsv"],
                       cwd=base)
        assert demo.returncode == 0, demo.stderr

        for args, outputs in cases:
            stdouts = []
            for sub in ("a", "b"):
                (base / sub).mkdir(exist_ok=True)
                proc = run_cli(args + ["--out-dir", "."], cwd=base / sub)
                assert proc.returncode == 0, (args, proc.stderr)
                stdouts.append(proc.stdout)
            assert stdouts[0] == stdouts[1], args
            for name in outputs:
                first = (base / "a" / name).read_bytes()
                second = (base / "b" / name).read_bytes()
                assert first == second, (args, name)

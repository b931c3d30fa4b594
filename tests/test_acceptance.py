"""Acceptance gate.

Ten criteria, one printed PASS/FAIL line each (run with -s to see them):
slip reduction on the snow launch, torque-metric orderings, gap-metric
correctness, gap orderings across controller families, classifier
accuracy, the feature pipeline, class separability, plant numerics, the
torque-clamp contract, and CLI determinism.
"""

import dataclasses
import itertools
import math
import os
import shutil
import tempfile
import time

import numpy as np
import pytest

import arte_tcs.cli as cli
from arte_tcs.arte_classifier import (FeatureDataset, ROAD_ORDER,
                                      bootstrap_intra, confusion_matrix,
                                      kl_distance, prune_features,
                                      split_dataset, train_mlp)
from arte_tcs.arte_dsp import Frame, band_energies, lpc
from arte_tcs.controllers import MaxTransmissibleTorque
from arte_tcs.harness import (ScenarioConfig, max_torque, metrics,
                              run_scenario, slip_deviation, torque_area)
from arte_tcs.robustness import (chordal_distance, eval_freq, make_tf,
                                 nu_gap, plant_family)
from arte_tcs.synth_corpus import build_corpus
from arte_tcs.tire_road import DEFAULT_CURVES, RoadType
from arte_tcs.vehicle_plant import VehicleParams, plant_step

PARAMS = VehicleParams()

BATTERY = [make_tf([1.0], [1.0, 1.0]), make_tf([1.5], [1.0, 1.0]),
           make_tf([2.0], [1.0, 0.5]), make_tf([1.0], [1.0, 2.0, 1.0]),
           make_tf([0.5], [1.0, 0.2, 4.0]), make_tf([3.0], [1.0, 3.0]),
           make_tf([1.0, 0.0], [1.0, 1.0, 1.0]), make_tf([1.0], [0.5, 1.0]),
           make_tf([-1.0], [1.0, 0.7]), make_tf([4.0], [1.0, 4.0, 8.0]),
           make_tf([2.0], [1.0, 0.1]), make_tf([1.0], [2.0, 0.3, 1.0])]

_bench = {}


def _report(n, ok, detail):
    print("criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def bench(tag, mode):
    if (tag, mode) not in _bench:
        cfg = ScenarioConfig(controller=tag, arte_mode=mode)
        _bench[(tag, mode)] = run_scenario(cfg)
    return _bench[(tag, mode)]


def test_criterion_01_slip_reduction():
    t0 = time.perf_counter()
    ratios = {}
    for tag in ("src", "mtte"):
        off = slip_deviation(bench(tag, "off"))
        on = slip_deviation(bench(tag, "oracle"))
        ratios[tag] = on / off
    elapsed = time.perf_counter() - t0
    ok = all(r <= 0.5 for r in ratios.values()) and elapsed < 10.0
    stretch = all(r <= 0.35 for r in ratios.values())
    _report(1, ok, "src %.3f mtte %.3f stretch(0.35)=%s %.1fs" % (
        ratios["src"], ratios["mtte"], stretch, elapsed))


def test_criterion_02_torque_orderings():
    src_off, src_on = bench("src", "off"), bench("src", "oracle")
    mtte_off, mtte_on = bench("mtte", "off"), bench("mtte", "oracle")
    sat = float(np.max(src_off.t_cmd))
    ok = (sat == 300.0
          and abs(max_torque(src_off) - 300.0) < 1e-3
          and torque_area(src_on) < torque_area(src_off)
          and torque_area(mtte_on) < torque_area(mtte_off)
          and max_torque(mtte_on) < max_torque(mtte_off))
    _report(2, ok, "src sat %.9g, areas %.1f<%.1f / %.1f<%.1f, "
            "mtte max %.1f<%.1f, mfc exempt" % (
                sat, torque_area(src_on), torque_area(src_off),
                torque_area(mtte_on), torque_area(mtte_off),
                max_torque(mtte_on), max_torque(mtte_off)))


def brute_force_gap(tf1, tf2, points=1000000):
    omega = np.logspace(-4, 5, points)
    sup = np.max(chordal_distance(eval_freq(tf1, omega),
                                  eval_freq(tf2, omega)))
    at_zero = chordal_distance(eval_freq(tf1, 0.0), eval_freq(tf2, 0.0))
    return max(float(sup), float(at_zero))


def test_criterion_03_gap_metric_properties():
    worst_self = max(nu_gap(tf, tf).value for tf in BATTERY[:4])
    worst_sym = worst_err = bound_bad = 0.0
    for tf1, tf2 in itertools.combinations(BATTERY, 2):
        g12, g21 = nu_gap(tf1, tf2), nu_gap(tf2, tf1)
        worst_sym = max(worst_sym, abs(g12.value - g21.value))
        bound_bad = max(bound_bad, g12.value - 1.0, -g12.value)
        if g12.winding_ok:
            worst_err = max(worst_err,
                            abs(g12.value - brute_force_gap(tf1, tf2)))
    static = nu_gap(make_tf([1.0], [1.0]), make_tf([2.0], [1.0]))
    static_err = abs(static.value - 1.0 / math.sqrt(10.0))
    ok = (worst_self < 1e-9 and worst_sym < 1e-9 and bound_bad <= 0.0
          and worst_err < 1e-4 and static_err < 1e-9)
    _report(3, ok, "self %.1e sym %.1e brute %.1e static %.1e" % (
        worst_self, worst_sym, worst_err, static_err))


def test_criterion_04_gap_orderings():
    off = {tag: nu_gap(*plant_family(tag, PARAMS)).value
           for tag in ("mfc", "src", "mtte")}
    on = {tag: nu_gap(*plant_family(tag, PARAMS, arte_on=True)).value
          for tag in ("mfc", "src", "mtte")}
    ok = (off["mfc"] < off["mtte"] < off["src"]
          and all(on[tag] < off[tag] for tag in off))
    _report(4, ok, "off mfc %.3f < mtte %.3f < src %.3f; on %.3f/%.3f/%.3f"
            % (off["mfc"], off["mtte"], off["src"],
               on["mfc"], on["mtte"], on["src"]))


def test_criterion_05_classifier_accuracy():
    ds = build_corpus(seed=1)
    train, test = split_dataset(ds, 0.3, seed=4)
    mask = prune_features(train)
    centroids = {road: train.normalized()[:, mask.indices][
        [i for i, lab in enumerate(train.labels) if lab is road]].mean(axis=0)
        for road in ROAD_ORDER}
    rows = test.normalized()[:, mask.indices]
    hits = sum(min(centroids, key=lambda r: float(
        np.sum((row - centroids[r]) ** 2))) is lab
        for row, lab in zip(rows, test.labels))
    nc_acc = hits / len(test.labels)
    t0 = time.perf_counter()
    model = train_mlp(train, mask, seed=0)
    train_s = time.perf_counter() - t0
    _, acc = confusion_matrix(model, test.select(mask))
    ok = acc >= 0.85 and 0.80 <= nc_acc <= 0.98 and train_s < 30.0
    _report(5, ok, "mlp %.4f nc %.4f train %.1fs" % (acc, nc_acc, train_s))


def test_criterion_06_feature_pipeline():
    a1, a2 = 2.0 * 0.9 * math.cos(math.pi / 4.0), -0.81
    x = np.zeros(1600)
    x[0] = 1.0
    x[1] = a1 * x[0]
    for t in range(2, 1600):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2]
    x += 1e-6 * np.random.default_rng(0).standard_normal(1600)
    coeffs = lpc(Frame(x, 0))
    ar_err = max(abs(coeffs[0] / a1 - 1.0), abs(coeffs[1] / a2 - 1.0))

    noise = Frame(np.random.default_rng(3).standard_normal(1600), 0)
    lin = np.sum(10.0 ** band_energies(noise))
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(1600) / 1600)
    parseval_err = abs(lin / np.sum((noise.samples * w) ** 2) - 1.0)

    gain_err = float(np.max(np.abs(lpc(Frame(3.7 * noise.samples, 0))
                                   - lpc(noise))))

    train, _ = split_dataset(build_corpus(seed=1), 0.3, seed=4)
    mask = prune_features(train)
    part = (mask.lpc_kept, mask.band_kept, mask.cep_kept)
    ok = (ar_err < 0.05 and parseval_err < 0.01 and gain_err < 1e-9
          and part == (3, 2, 2) and len(mask.indices) == 7)
    _report(6, ok, "ar %.3f parseval %.4f gain %.1e partition %d,%d,%d" % (
        ar_err, parseval_err, gain_err, part[0], part[1], part[2]))


def test_criterion_07_class_separability():
    h = 1.0 / math.sqrt(2.0)
    pair = FeatureDataset(np.array([[-h], [h], [1 - h], [1 + h]]),
                          [RoadType.ASPHALT, RoadType.ASPHALT,
                           RoadType.SNOW, RoadType.SNOW])
    closed_err = abs(kl_distance(pair, RoadType.ASPHALT, RoadType.SNOW)
                     - 1.0)

    ds = build_corpus(seed=1)
    sub = ds.select(prune_features(ds))
    self_kl = max(kl_distance(sub, road, road) for road in RoadType)
    roads = list(RoadType)
    inter = min(kl_distance(sub, a, b)
                for a, b in itertools.combinations(roads, 2))
    intra = max(np.max(bootstrap_intra(sub, road)) for road in RoadType)
    ok = self_kl < 1e-12 and closed_err < 1e-9 and inter > 10.0 * intra
    _report(7, ok, "self %.1e closed %.1e inter/intra %.1f" % (
        self_kl, closed_err, inter / intra))


def test_criterion_08_plant_numerics():
    from arte_tcs.tire_road import MuLambdaCurve
    zero = MuLambdaCurve(b=10.0, c=2.0, d=0.0, e=1.0)
    T, dt = 60.0, 1e-4
    v, w, ta = 0.0, 0.0, 0.0
    for _ in range(10000):
        v, w, ta = plant_step(v, w, ta, T, dt, zero, PARAMS)
    analytic = (T / PARAMS.jw) * (1.0 - PARAMS.tau_motor
                                  * (1.0 - math.exp(-1.0 / PARAMS.tau_motor)))
    spin_err = abs(w / analytic - 1.0)

    curve = DEFAULT_CURVES[RoadType.ASPHALT]

    def run(dt, n):
        v, w, ta = 5.0, 5.0 / PARAMS.r, 0.0
        for _ in range(n):
            v, w, ta = plant_step(v, w, ta, 400.0, dt, curve, PARAMS)
        return v

    halving_err = abs(run(2e-4, 25000) / run(1e-4, 50000) - 1.0)

    from arte_tcs.vehicle_plant import drive_force, driving_resistance
    snow = DEFAULT_CURVES[RoadType.SNOW]
    dtm, steps = 1e-5, 50000
    v, w, ta = 0.0, 0.0, 0.0
    net = np.empty(steps + 1)

    def net_force(v, w):
        fdr = driving_resistance(v, PARAMS) if v > 0.0 else 0.0
        return 4.0 * drive_force(v, w, snow, PARAMS) - fdr

    net[0] = net_force(v, w)
    for i in range(steps):
        v, w, ta = plant_step(v, w, ta, 300.0, dtm, snow, PARAMS)
        net[i + 1] = net_force(v, w)
    mom_err = abs(np.trapezoid(net, dx=dtm) / (PARAMS.m_vehicle * v) - 1.0)
    ok = spin_err < 1e-4 and halving_err < 1e-3 and mom_err < 5e-3
    _report(8, ok, "spin %.1e halving %.1e momentum %.1e" % (
        spin_err, halving_err, mom_err))


def test_criterion_09_torque_clamp_contract():
    m = MaxTransmissibleTorque(PARAMS)
    fd_true, torque, dt = 800.0, 300.0, 1e-3
    dwdt = (torque - PARAMS.r * fd_true) / PARAMS.jw
    w = 0.0
    for _ in range(250):
        w += dwdt * dt
        m.update(0.0, w, torque, 700.0, dt)
    settle_err = abs(m.fd_hat - fd_true) / fd_true

    low_drag = dataclasses.replace(PARAMS, mu_roll=1e-9, cda=1e-9)
    snow = DEFAULT_CURVES[RoadType.SNOW]
    ratios = {}
    for alpha in (0.8, 0.9):
        m = MaxTransmissibleTorque(low_drag, alpha=alpha)
        m.reset(fd_hat0=3000.0)
        v, w, ta = 1.0, 1.0 / PARAMS.r, 0.0
        ts, vs, ws = [], [], []
        for i in range(60000):
            tc = m.update(v, w, ta, 400.0, 1e-4)
            v, w, ta = plant_step(v, w, ta, tc, 1e-4, snow, low_drag)
            ts.append((i + 1) * 1e-4)
            vs.append(v)
            ws.append(PARAMS.r * w)
        ts = np.asarray(ts)
        sel = ts >= 3.0
        sv = np.polyfit(ts[sel], np.asarray(vs)[sel], 1)[0]
        sw = np.polyfit(ts[sel], np.asarray(ws)[sel], 1)[0]
        ratios[alpha] = sv / sw
    ok = (settle_err < 0.01
          and all(ratios[a] >= a - 0.05 for a in ratios))
    _report(9, ok, "observer %.4f ratios %.3f@0.8 %.3f@0.9" % (
        settle_err, ratios[0.8], ratios[0.9]))


def test_criterion_10_cli_determinism(capsys):
    root = tempfile.mkdtemp(prefix="arte_accept_")
    try:
        def twice(argv_fn, out_name):
            blobs = []
            for rep in ("a", "b"):
                out = os.path.join(root, rep + "_" + out_name)
                assert cli.main(argv_fn(out)) == 0
                with open(out, "rb") as fh:
                    blobs.append(fh.read())
            return blobs[0] == blobs[1]

        results = {}
        wavs = {}
        for rep in ("a", "b"):
            tree = os.path.join(root, "tree_" + rep)
            assert cli.main(["synth", "--out", tree, "--seed", "0"]) == 0
            for road in RoadType:
                path = os.path.join(tree, road.value, "0_0.wav")
                with open(path, "rb") as fh:
                    wavs.setdefault(road, []).append(fh.read())
        results["synth"] = all(a == b for a, b in wavs.values())
        snow_wav = os.path.join(root, "tree_a", "snow", "0_0.wav")

        results["train"] = twice(
            lambda out: ["train", "--out", out, "--epochs", "500"],
            "model.txt")
        model = os.path.join(root, "a_model.txt")
        results["classify"] = twice(
            lambda out: ["classify", "--model", model, snow_wav, "--out", out],
            "cls.csv")
        results["features"] = twice(
            lambda out: ["features", snow_wav, "--frames", "5", "--out", out],
            "feat.csv")
        results["gap"] = twice(
            lambda out: ["gap", "--controller", "src", "--out", out],
            "gap.csv")

        scen = os.path.join(root, "scen.ini")
        with open(scen, "w") as fh:
            fh.write("[scenario]\nduration_s = 0.5\ncontroller = mtte\n"
                     "arte_mode = oracle\n")
        results["simulate"] = twice(
            lambda out: ["simulate", "--config", scen, "--out", out],
            "trace.csv")
        results["compare"] = twice(
            lambda out: ["compare", "--config", scen, "--controllers", "mtte",
                         "--modes", "off", "oracle", "--out", out], "cmp.csv")
        capsys.readouterr()
        ok = all(results.values())
        _report(10, ok, " ".join("%s=%s" % (k, v) for k, v in results.items()))
    finally:
        shutil.rmtree(root, ignore_errors=True)

"""Command-line front end.

Subcommands cover the simulation harness (simulate, compare), the
classifier pipeline (train, classify, features), the robustness metric
(gap), and the synthetic corpus (synth).  Exit codes: 0 success, 2 bad
configuration or parameter, 3 numerical divergence, 4 I/O or file
format error; each class in `errors` maps to one of them.
"""

import argparse
import os
import sys

from .arte_classifier import (LOSS_TARGET, MAX_EPOCHS, SelectionMask,
                              arte_estimate, confusion_matrix, load_model,
                              prune_features, save_model, split_dataset,
                              train_mlp)
from .arte_dsp import extract_raw, load_wav, sample_frames
from .errors import (AudioFormatError, ConfigError, ModelFormatError,
                     SimulationDiverged)
from .controllers import CONTROLLERS
from .harness import (ARTE_MODES, ScenarioConfig, compare, compare_lines,
                      load_scenario, metrics, run_scenario, write_trace_csv)
from .robustness import FAMILY_BOXES, make_tf, nu_gap, plant_family
from .synth_corpus import build_corpus, export_wavs
from .tire_road import RoadType
from .vehicle_plant import VehicleParams


def _coeffs(text):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError("bad coefficient list %r" % (text,)) from exc


def _wav_label(path, override):
    if override is not None:
        return override
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    try:
        return RoadType.from_name(parent).value
    except ConfigError:
        return "unknown"


def _at_least(lo, **options):
    """ConfigError unless every named integer option is at least lo."""
    for name, value in options.items():
        if value < lo:
            raise ConfigError("--%s must be at least %d, got %d"
                              % (name.replace("_", "-"), lo, value))


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _check_writable(path):
    """OSError now, before any work, unless `path` can be written (None,
    for stdout, always can); a file this makes is removed again."""
    if path is None:
        return
    made = not os.path.lexists(path)
    open(path, "ab").close()
    if made:
        os.remove(path)


def cmd_simulate(args):
    cfg = load_scenario(args.config)
    _check_writable(args.out)
    trace = run_scenario(cfg)
    write_trace_csv(args.out, trace)
    rep = metrics(trace)
    print("slip_deviation=%.9g max_torque=%.9g torque_area=%.9g" % (
        rep.slip_deviation, rep.max_torque, rep.torque_area))
    return 0


def cmd_compare(args):
    base = load_scenario(args.config) if args.config else ScenarioConfig()
    _check_writable(args.out)
    rows = compare(tuple(args.controllers), tuple(args.modes), base)
    _emit(compare_lines(rows), args.out)
    return 0


def cmd_train(args):
    _at_least(0, corpus_seed=args.corpus_seed, split_seed=args.split_seed,
              seed=args.seed)
    _at_least(1, epochs=args.epochs)
    _check_writable(args.out)
    ds = build_corpus(seed=args.corpus_seed)
    train, test = split_dataset(ds, seed=args.split_seed)
    mask = None if args.full_features else prune_features(train)
    model = train_mlp(train, mask, seed=args.seed, max_epochs=args.epochs)
    save_model(args.out, model)
    _, acc = confusion_matrix(model, test if mask is None
                              else test.select(mask))
    print("model=%s features=%d accuracy=%.4f" % (
        args.out, model.sizes[0], acc))
    return 0


def cmd_classify(args):
    model = load_model(args.model)
    mask = SelectionMask(indices=model.mask_indices)
    _check_writable(args.out)
    lines = ["path,road,lambda_opt,mu_peak"]
    for path in args.wav:
        road, lam, mu = arte_estimate(model, mask, load_wav(path))
        lines.append("%s,%s,%.9g,%.9g" % (path, road.value, lam, mu))
    _emit(lines, args.out)
    return 0


def cmd_features(args):
    _at_least(0, seed=args.seed)
    _at_least(1, frames=args.frames)
    _check_writable(args.out)
    lines = ["label," + ",".join("f%d" % k for k in range(20))]
    for path in args.wav:
        label = _wav_label(path, args.label)
        clip = load_wav(path)
        for frame in sample_frames(clip, args.frames, seed=args.seed):
            raw = extract_raw(frame)
            lines.append(label + "," + ",".join("%.9g" % x for x in raw))
    _emit(lines, args.out)
    return 0


def cmd_gap(args):
    by_hand = [args.num1, args.den1, args.num2, args.den2]
    if args.controller is None:
        if any(c is None for c in by_hand):
            raise ConfigError("gap needs --controller or all four of "
                              "--num1/--den1/--num2/--den2")
        tf1 = make_tf(_coeffs(args.num1), _coeffs(args.den1))
        tf2 = make_tf(_coeffs(args.num2), _coeffs(args.den2))
    elif any(c is not None for c in by_hand):
        raise ConfigError("--controller excludes coefficient lists")
    _check_writable(args.out)
    if args.controller is not None:
        tf1, tf2 = plant_family(args.controller, VehicleParams(),
                                arte_on=args.arte)
    res = nu_gap(tf1, tf2)
    lines = ["value,winding_ok,peak_frequency",
             "%.9g,%s,%.9g" % (res.value, str(res.winding_ok).lower(),
                               res.peak_frequency)]
    _emit(lines, args.out)
    return 0


def cmd_synth(args):
    _at_least(0, seed=args.seed)
    _at_least(1, clips=args.clips)
    paths = export_wavs(args.out, seed=args.seed,
                        clips_per_class=args.clips)
    print("wrote %d files under %s" % (len(paths), args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arte-tcs",
        description="Traction-control simulation with acoustic road-type "
                    "estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario, write a trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare",
                       help="metric table over controllers and ARTE modes")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--controllers", nargs="+", default=tuple(FAMILY_BOXES),
                   choices=CONTROLLERS)
    p.add_argument("--modes", nargs="+", default=("off", "oracle"),
                   choices=ARTE_MODES)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="fit the road classifier, save to file")
    p.add_argument("--out", required=True)
    p.add_argument("--corpus-seed", type=int, default=1)
    p.add_argument("--split-seed", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=MAX_EPOCHS,
                   help="upper bound on training epochs (default %%(default)s);"
                   " training stops once the loss is below LOSS_TARGET = %g"
                   % LOSS_TARGET)
    p.add_argument("--full-features", action="store_true",
                   help="skip pruning, train on all 20 features")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify",
                       help="road type and friction point per WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("wav", nargs="+")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("features",
                       help="CSV of label + 20 raw features per frame")
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default=None,
                   help="override the directory-derived label")
    p.add_argument("--out", default=None)
    p.add_argument("wav", nargs="+")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("gap", help="nu-gap between two plants")
    p.add_argument("--controller", choices=tuple(FAMILY_BOXES), default=None,
                   help="use the uncertainty family of this controller")
    p.add_argument("--arte", action="store_true",
                   help="shrink the family to the estimator-on box")
    p.add_argument("--num1", default=None)
    p.add_argument("--den1", default=None)
    p.add_argument("--num2", default=None)
    p.add_argument("--den2", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("synth", help="export the synthetic corpus as WAVs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clips", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SimulationDiverged as exc:
        print("diverged: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, AudioFormatError, ModelFormatError) as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: train, certify, check, eval.

`train` drives the whole pipeline from a sectioned key=value config file:
build or load the dataset, optionally train a prior on its own split, freeze
it, train the posterior, and certify. Every run directory receives the
resolved config, the input content hash, per-phase CSV logs, model
snapshots, and the certificate, which together reproduce the run
bit-identically. All randomness flows from the single [run] seed through
named stream derivations; CONDGAUSS_THREADS only fans out independent
certification draws and never changes results.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .bounds import BoundKind, BoundSpec
from .certify import draw_errors, final_certificate
from .checks import run_battery
from .data import (
    LabelledDataset,
    load_mnist_idx,
    save_idx,
    split_holdout,
    split_prior_bound,
    synth_blobs,
)
from .network import ModelSpec, StochasticModel, load_model, save_model
from .rng import RngStream
from .trainer import TrainConfig, TrainLog, train_condgauss

__all__ = ["main", "cmd_train", "cmd_certify", "cmd_check", "cmd_eval", "RunConfig"]


class ConfigError(ValueError):
    """Invalid run configuration; reported before any compute starts."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _parse_schedule(text: str) -> tuple[tuple[int, float], ...]:
    entries = []
    for part in text.split():
        epochs, _, lr = part.partition(":")
        entries.append((int(epochs), _finite(lr)))
    return tuple(entries)


def _parse_widths(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split())


def _existing_file(text: str) -> str:
    if not Path(text).exists():
        raise ValueError(text)
    return text


# Each parser a config key may use, with the writer that renders its value
# back to text that parses to the same value, and what a value that does not
# parse should have been.
_KINDS = {
    int: (str, "an integer"),
    _count: (str, "an integer >= 1"),
    _seed: (str, "an integer >= 0"),
    _finite: (repr, "a finite number"),
    _parse_schedule: (lambda s: " ".join(f"{e}:{lr!r}" for e, lr in s), "epochs:rate entries"),
    _parse_widths: (lambda w: " ".join(str(v) for v in w), "integers"),
    _existing_file: (str, "an existing file"),
    str: (str, None),
    Path: (str, None),
}

_REQUIRED = object()  # the default of a key every config sets
# [data] keys only a synth source reads, and those only an mnist source reads.
_SYNTH_DATA = {
    "classes": (int, _REQUIRED),
    "per_class": (_count, _REQUIRED),
    "dim": (int, _REQUIRED),
    "separation": (_finite, _REQUIRED),
    "holdout_per_class": (int, 0),
}
_MNIST_DATA = {"images": (_existing_file, _REQUIRED), "labels": (_existing_file, _REQUIRED)}
# The comma-separated fields of --synth, in synth_blobs' order, each parsed
# as its [data] key is.
_SYNTH_FIELDS = {"q": int, "per_class": _count, "dim": int, "separation": _finite, "seed": _seed}
# The keys of a phase that trains, whatever its method.
_PHASE = {
    "schedule": (_parse_schedule, ()),
    "momentum": (_finite, 0.9),
    "batch_size": (int, 250),
    "repeats": (int, 100),
}
# Every section and key a config may contain, each as (kind, default) and in
# the order config.resolved.cfg lists them; anything else is a typo. A key
# whose value is None (prior_fraction unset) is left out of the resolved file.
_SCHEMA = {
    "data": {
        "source": (str, _REQUIRED),
        "seed": (_seed, None),  # None: the [run] seed
        **_SYNTH_DATA,
        **_MNIST_DATA,
        "prior_fraction": (_finite, None),
    },
    "model": {"widths": (_parse_widths, _REQUIRED), "sigma0": (_finite, 0.01)},
    "prior": {"method": (str, "none"), "kappa": (_finite, 1.0), "dropout": (_finite, 0.0),
              **_PHASE},
    "posterior": {"method": (str, "condgauss"), "objective": (str, "invkl"),
                  "kappa": (_finite, 1.0), "lambda": (_finite, 0.5), **_PHASE},
    "certify": {
        "n_draws": (_count, 1000),
        "delta": (_finite, 0.025),
        "delta_prime": (_finite, 0.01),
    },
    "run": {"seed": (_seed, _REQUIRED), "output_dir": (Path, _REQUIRED)},
}
# Per section, each key that decides which later keys a run reads, every
# value it may take, and the keys that value leaves unread: a synth source
# reads no files, an mnist source has no blob shape, prior method none trains
# no prior, an erm prior has no bound objective, and only lbd reads lambda.
# Setting an unread key is an error rather than silently dropped.
_UNREAD = {
    "data": [("source", {"synth": set(_MNIST_DATA), "mnist": set(_SYNTH_DATA)})],
    "prior": [
        ("method", {"none": set(_SCHEMA["prior"]) - {"method"}, "erm": {"kappa"}, "invkl": set()}),
    ],
    "posterior": [
        ("method", {"condgauss": set(), "surrogate": set()}),
        ("objective", {k.value: set() if k == BoundKind.LBD else {"lambda"} for k in BoundKind}),
    ],
}


@dataclass
class RunConfig:
    """Validated contents of a run config file: the [data] keys its source
    reads, the training settings of each phase (no prior training when
    ``prior_train`` is None), and ``resolved``, the config.resolved.cfg text
    listing every key the run reads."""

    data: dict
    spec: ModelSpec
    sigma0: float
    prior_train: TrainConfig | None
    posterior_train: TrainConfig
    n_draws: int
    delta: float
    delta_prime: float
    seed: int
    output_dir: Path
    resolved: str


def _parse(kind, text: str, where: str):
    """``kind(text)``; text it cannot parse is a ConfigError naming ``where``."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where} must be {_KINDS[kind][1]}, got {text!r}") from None


def _read_section(cp: configparser.ConfigParser, section: str) -> dict:
    """The typed value of each key of ``section`` the run reads, defaults
    filled in; a required key left out, or a set key the run does not read, is
    a ConfigError."""
    deciders = dict(_UNREAD.get(section, []))
    keys = _SCHEMA[section]
    unread: set = set()
    values = {}
    for key, (kind, default) in keys.items():
        if key in unread:
            continue
        text = cp.get(section, key, fallback=None)
        if text is not None:
            values[key] = _parse(kind, text, f"[{section}] {key}")
        elif default is _REQUIRED:
            raise ConfigError(f"[{section}] {key} is required")
        else:
            values[key] = default
        if key in deciders:
            value, unread_by_value = values[key], deciders[key]
            if value not in unread_by_value:
                raise ConfigError(
                    f"[{section}] {key} must be one of {', '.join(unread_by_value)}, got {value!r}"
                )
            ignored = [k for k in keys if k in unread_by_value[value] and cp.has_option(section, k)]
            if ignored:
                raise ConfigError(f"[{section}] {', '.join(ignored)}: unused when {key} = {value}")
            unread |= unread_by_value[value]
    return values


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # No interpolation: a value such as "runs/50%done" is read as written.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.read(path)
    unknown = [f"[{cp.default_section}] {k}" for k in cp.defaults()]
    for section in cp.sections():
        if section not in _SCHEMA:
            unknown.append(f"[{section}]")
            continue
        unknown += [f"[{section}] {k}" for k in cp.options(section) if k not in _SCHEMA[section]]
    if unknown:
        raise ConfigError("unknown config entries: " + ", ".join(unknown))

    values = {section: _read_section(cp, section) for section in _SCHEMA}
    data, model, prior, posterior, certify, run = values.values()
    if data["seed"] is None:
        data["seed"] = run["seed"]
    try:
        spec = ModelSpec(model["widths"])
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None
    _validate(values)

    resolved = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMA.items():
        resolved[section] = {
            key: _KINDS[kind][0](values[section][key])
            for key, (kind, _) in keys.items()
            if values[section].get(key) is not None
        }
    text = io.StringIO()
    resolved.write(text)

    return RunConfig(
        data=data,
        spec=spec,
        sigma0=model["sigma0"],
        prior_train=None if prior["method"] == "none" else _train_config(values, "prior", "prior"),
        posterior_train=_train_config(
            values, "posterior", "baseline" if posterior["method"] == "surrogate" else "posterior"
        ),
        n_draws=certify["n_draws"],
        delta=certify["delta"],
        delta_prime=certify["delta_prime"],
        seed=run["seed"],
        output_dir=run["output_dir"],
        resolved=text.getvalue(),
    )


def _validate(values: dict) -> None:
    data, model, prior, _, certify, _ = values.values()
    for key in ("delta", "delta_prime"):
        if not 0.0 < certify[key] < 1.0:
            raise ConfigError(f"[certify] {key} must lie in (0, 1), got {certify[key]!r}")
    total = certify["delta"] + certify["delta_prime"]
    if total >= 1.0:
        raise ConfigError(f"[certify] delta + delta_prime must be < 1, got {total!r}")
    if data["source"] == "synth":
        holdout, classes, dim = data["holdout_per_class"], data["classes"], data["dim"]
        if holdout < 0:
            raise ConfigError(f"[data] holdout_per_class must be >= 0, got {holdout}")
        if classes < 2:
            raise ConfigError(f"[data] classes must be >= 2, got {classes}")
        if dim < classes:
            raise ConfigError(f"[data] dim must be >= classes = {classes}, got {dim}")
        if not 0.0 <= data["separation"] <= 1.0:
            raise ConfigError(f"[data] separation must lie in [0, 1], got {data['separation']!r}")
    fraction = data["prior_fraction"]
    if prior["method"] != "none" and fraction is None:
        raise ConfigError(
            f"[data] prior_fraction is required when [prior] method = {prior['method']}"
        )
    if prior["method"] == "none" and fraction is not None:
        raise ConfigError("[data] prior_fraction: unused when [prior] method = none")
    if fraction is not None and not 0.0 < fraction < 1.0:
        raise ConfigError(f"[data] prior_fraction must lie in (0, 1), got {fraction!r}")
    if not model["sigma0"] > 0.0:
        raise ConfigError(f"[model] sigma0 must be positive, got {model['sigma0']!r}")
    for phase in ("prior", "posterior"):
        if values[phase]["method"] != "none" and not values[phase]["schedule"]:
            raise ConfigError(f"[{phase}] schedule is empty")


def _build_dataset(cfg: RunConfig):
    """Returns (train_or_whole_dataset, holdout_or_None)."""
    d = cfg.data
    if d["source"] == "mnist":
        return load_mnist_idx(d["images"], d["labels"]), None
    total = d["per_class"] + d["holdout_per_class"]
    ds = synth_blobs(d["classes"], total, d["dim"], d["separation"], d["seed"])
    if d["holdout_per_class"] == 0:
        return ds, None
    return split_holdout(ds, d["per_class"])


def _train_config(values: dict, section: str, phase: str) -> TrainConfig:
    """The TrainConfig of one [section] of the parsed ``values``; its phase
    rules fail as a ConfigError naming the section."""
    ph = values[section]
    # A prior's method names its objective.
    name = ph.get("objective", ph["method"])
    try:
        objective = None if name == "erm" else BoundSpec(
            BoundKind(name), ph["kappa"], values["certify"]["delta"], lam=ph.get("lambda")
        )
        return TrainConfig(
            objective=objective,
            lr_schedule=ph["schedule"],
            momentum=ph["momentum"],
            batch_size=ph["batch_size"],
            repeats=ph["repeats"],
            seed=values["run"]["seed"],
            phase=phase,
            dropout_prob=ph.get("dropout", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def cmd_train(config_path) -> int:
    cfg = parse_config(config_path)
    whole, holdout = _build_dataset(cfg)
    if cfg.spec.p != whole.p:
        raise ConfigError(f"model input width {cfg.spec.p} != data dim {whole.p}")
    if cfg.spec.q != whole.q:
        raise ConfigError(f"model output width {cfg.spec.q} != class count {whole.q}")
    # Split before any output, so a refused split leaves no run directory.
    if cfg.prior_train is not None:
        prior_ds, bound_ds = split_prior_bound(whole, cfg.data["prior_fraction"], cfg.seed)
    else:
        prior_ds, bound_ds = None, whole

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.cfg").write_text(cfg.resolved)
    content = hashlib.sha256()
    content.update(whole.fingerprint.encode())
    content.update(cfg.resolved.encode())
    (out / "inputs.sha256").write_text(content.hexdigest() + "\n")
    del whole  # after a prior split, keeping it would hold the data twice

    model = StochasticModel.initialize(cfg.spec, cfg.sigma0, RngStream(cfg.seed).child("model"))

    if prior_ds is not None:
        model, prior_log = train_condgauss(model, prior_ds, cfg.prior_train)
        del prior_ds  # never read again
    else:
        prior_log = TrainLog(rows=[])
    prior_log.to_csv(out / "train_prior.csv")
    save_model(model, out / "prior.model")

    model, post_log = train_condgauss(model, bound_ds, cfg.posterior_train)
    post_log.to_csv(out / "train_posterior.csv")
    save_model(model, out / "posterior.model")

    cert = final_certificate(
        model,
        bound_ds,
        cfg.n_draws,
        cfg.delta,
        cfg.delta_prime,
        RngStream(cfg.seed).child("certify"),
    )
    (out / "certificate.txt").write_text(cert.to_text())

    if holdout is not None:
        save_idx(holdout, out / "holdout_images.idx", out / "holdout_labels.idx")
    print(f"final_bound={cert.final_bound!r} (confidence {cert.confidence!r})")
    return 0


def _dataset_from_args(args) -> LabelledDataset:
    if args.synth:
        fields = args.synth.split(",")
        if len(fields) != len(_SYNTH_FIELDS):
            raise ConfigError(f"--synth takes {','.join(_SYNTH_FIELDS)}; got {args.synth!r}")
        ds = synth_blobs(*(
            _parse(kind, text, f"--synth field {name}")
            for (name, kind), text in zip(_SYNTH_FIELDS.items(), fields)
        ))
    else:
        if not (args.images and args.labels):
            raise ConfigError("provide --synth or both --images and --labels")
        ds = load_mnist_idx(args.images, args.labels)
    if args.prior_fraction is not None:
        _, ds = split_prior_bound(ds, args.prior_fraction, args.split_seed)
    return ds


def cmd_certify(args) -> int:
    model = load_model(args.model)
    ds = _dataset_from_args(args)
    cert = final_certificate(
        model,
        ds,
        args.n_draws,
        args.delta,
        args.delta_prime,
        RngStream(args.seed).child("certify"),
    )
    text = cert.to_text()
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    print(f"final_bound={cert.final_bound!r}")
    return 0


def cmd_eval(args) -> int:
    """Held-out 0-1 error of a snapshot, averaged over full parameter draws.

    This is a proxy estimate of the (unobservable) true error; it never
    claims to equal it.
    """
    model = load_model(args.model)
    ds = _dataset_from_args(args)
    errs = draw_errors(model, ds, args.n_draws, RngStream(args.seed).child("eval"))
    std = float(errs.std(ddof=1)) if len(errs) > 1 else 0.0
    print(f"heldout_error={float(errs.mean())!r} std={std!r} draws={args.n_draws}")
    return 0


def cmd_check(_args=None) -> int:
    results = run_battery()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--synth", help="q,per_class,dim,separation,seed")
    p.add_argument("--images", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--prior-fraction", type=float, default=None,
                   help="reproduce a prior/bound split and use the bound half")
    p.add_argument("--split-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condgauss",
        description="PAC-Bayes training of stochastic Gaussian classifiers with certified bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run prior + posterior training and certify")
    p_train.add_argument("--config", required=True)

    p_cert = sub.add_parser("certify", help="certify a model snapshot")
    p_cert.add_argument("--model", required=True)
    _add_data_args(p_cert)
    p_cert.add_argument("--n-draws", type=int, default=1000)
    p_cert.add_argument("--delta", type=float, default=0.025)
    p_cert.add_argument("--delta-prime", type=float, default=0.01)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="held-out error of a snapshot")
    p_eval.add_argument("--model", required=True)
    _add_data_args(p_eval)
    p_eval.add_argument("--n-draws", type=int, default=100)
    p_eval.add_argument("--seed", type=int, default=0)

    sub.add_parser("check", help="run the built-in validator battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "certify":
            return cmd_certify(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "check":
            return cmd_check(args)
        raise AssertionError("unreachable")
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

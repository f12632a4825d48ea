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

_OBJECTIVES = {k.value: k for k in BoundKind}

_PHASE_KEYS = "method objective kappa lambda dropout schedule momentum batch_size repeats"
# [prior] keys a prior method never reads: none trains no prior, and erm has
# no bound objective. Setting one is an error rather than silently dropped.
_UNREAD_PRIOR_KEYS = {
    "none": set(_PHASE_KEYS.split()) - {"method"},
    "erm": {"objective", "kappa", "lambda"},
}
# Every section and key a config may contain; anything else is a typo.
_CONFIG_KEYS = {
    "data": "source seed classes per_class dim separation holdout_per_class images labels "
    "prior_fraction",
    "model": "widths activation sigma0",
    "prior": _PHASE_KEYS,
    "posterior": _PHASE_KEYS,
    "certify": "n_draws delta delta_prime",
    "run": "seed output_dir",
}
# The comma-separated fields of --synth.
_SYNTH_FIELDS = ("q", "per_class", "dim", "separation", "seed")


class ConfigError(ValueError):
    """Invalid run configuration; reported before any compute starts."""


@dataclass
class PhaseSettings:
    method: str
    objective: str
    kappa: float
    lam: float
    dropout: float
    schedule: tuple[tuple[int, float], ...]
    momentum: float
    batch_size: int
    repeats: int


@dataclass
class RunConfig:
    """Validated contents of a run config file, with the training settings of
    each phase (no prior training when ``prior_train`` is None)."""

    source: str
    synth: dict
    mnist_images: str | None
    mnist_labels: str | None
    data_seed: int
    prior_fraction: float | None
    spec: ModelSpec
    sigma0: float
    prior: PhaseSettings
    posterior: PhaseSettings
    n_draws: int
    delta: float
    delta_prime: float
    seed: int
    output_dir: Path
    prior_train: TrainConfig | None = None
    posterior_train: TrainConfig | None = None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
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


_EXPECTED = {
    int: "an integer",
    _finite: "a finite number",
    _parse_schedule: "epochs:rate entries",
    _parse_widths: "integers",
}


def _parse(kind, text: str, where: str):
    """``kind(text)``; text it cannot parse is a ConfigError naming ``where``."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where} must be {_EXPECTED[kind]}, got {text!r}") from None


def _read(cp: configparser.ConfigParser, section: str, key: str, kind, *fallback):
    """[section] key parsed by ``kind``; the key is required unless a
    fallback is given."""
    text = cp.get(section, key, fallback=None) if fallback else cp.get(section, key)
    return fallback[0] if text is None else _parse(kind, text, f"[{section}] {key}")


def _phase(cp: configparser.ConfigParser, section: str, default_method: str) -> PhaseSettings:
    def get(key, kind, fallback):
        return _read(cp, section, key, kind, fallback)

    return PhaseSettings(
        method=cp.get(section, "method", fallback=default_method),
        objective=cp.get(section, "objective", fallback="invkl"),
        kappa=get("kappa", _finite, 1.0),
        lam=get("lambda", _finite, 0.5),
        dropout=get("dropout", _finite, 0.0),
        schedule=get("schedule", _parse_schedule, ()),
        momentum=get("momentum", _finite, 0.9),
        batch_size=get("batch_size", int, 250),
        repeats=get("repeats", int, 100),
    )


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(path)
    unknown = [f"[{cp.default_section}] {k}" for k in cp.defaults()]
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            unknown.append(f"[{section}]")
            continue
        unknown += [
            f"[{section}] {k}"
            for k in cp.options(section)
            if k not in _CONFIG_KEYS[section].split()
        ]
    if unknown:
        raise ConfigError("unknown config entries: " + ", ".join(unknown))
    for section in ("data", "model", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    prior_method = cp.get("prior", "method", fallback="none")
    unread = _UNREAD_PRIOR_KEYS.get(prior_method, set())
    ignored = [k for k in cp.options("prior") if k in unread] if cp.has_section("prior") else []
    if ignored:
        raise ConfigError(f"[prior] {', '.join(ignored)}: unused when method = {prior_method}")

    source = cp.get("data", "source")
    if source not in ("synth", "mnist"):
        raise ConfigError(f"data source must be synth or mnist, got {source}")
    seed = _read(cp, "run", "seed", int)
    synth = {}
    mnist_images = mnist_labels = None
    if source == "synth":
        synth = {
            "classes": _read(cp, "data", "classes", int),
            "per_class": _read(cp, "data", "per_class", int),
            "dim": _read(cp, "data", "dim", int),
            "separation": _read(cp, "data", "separation", _finite),
            "holdout_per_class": _read(cp, "data", "holdout_per_class", int, 0),
        }
    else:
        mnist_images = cp.get("data", "images")
        mnist_labels = cp.get("data", "labels")
        for p in (mnist_images, mnist_labels):
            if not Path(p).exists():
                raise ConfigError(f"dataset file not found: {p}")
    widths = _read(cp, "model", "widths", _parse_widths)
    try:
        spec = ModelSpec(widths, cp.get("model", "activation", fallback="relu"))
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None

    cfg = RunConfig(
        source=source,
        synth=synth,
        mnist_images=mnist_images,
        mnist_labels=mnist_labels,
        data_seed=_read(cp, "data", "seed", int, seed),
        prior_fraction=_read(cp, "data", "prior_fraction", _finite, None),
        spec=spec,
        sigma0=_read(cp, "model", "sigma0", _finite, 0.01),
        prior=_phase(cp, "prior", "none"),
        posterior=_phase(cp, "posterior", "condgauss"),
        n_draws=_read(cp, "certify", "n_draws", int, 1000),
        delta=_read(cp, "certify", "delta", _finite, 0.025),
        delta_prime=_read(cp, "certify", "delta_prime", _finite, 0.01),
        seed=seed,
        output_dir=Path(cp.get("run", "output_dir")),
    )
    _validate(cfg)
    if cfg.prior.method != "none":
        cfg.prior_train = _train_config(cfg.prior, "prior", "prior", cfg)
    posterior_phase = "baseline" if cfg.posterior.method == "surrogate" else "posterior"
    cfg.posterior_train = _train_config(cfg.posterior, "posterior", posterior_phase, cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not (0.0 < cfg.delta < 1.0 and 0.0 < cfg.delta_prime < 1.0):
        raise ConfigError("delta and delta_prime must lie in (0, 1)")
    if cfg.delta + cfg.delta_prime >= 1.0:
        raise ConfigError(
            f"delta + delta_prime must be < 1, got {cfg.delta + cfg.delta_prime}"
        )
    if cfg.prior.method not in ("none", "erm", "invkl"):
        raise ConfigError(f"prior method must be none, erm, or invkl, got {cfg.prior.method}")
    if cfg.posterior.method not in ("condgauss", "surrogate"):
        raise ConfigError(
            f"posterior method must be condgauss or surrogate, got {cfg.posterior.method}"
        )
    if cfg.prior.method != "none" and cfg.prior_fraction is None:
        raise ConfigError("a trained prior needs data.prior_fraction")
    if cfg.prior.method == "none" and cfg.prior_fraction is not None:
        raise ConfigError("data.prior_fraction is set but prior.method is none")
    if cfg.prior_fraction is not None and not 0.0 < cfg.prior_fraction < 1.0:
        raise ConfigError(f"[data] prior_fraction must lie in (0, 1), got {cfg.prior_fraction!r}")
    if not cfg.sigma0 > 0.0:
        raise ConfigError(f"[model] sigma0 must be positive, got {cfg.sigma0!r}")
    if not cfg.posterior.schedule:
        raise ConfigError("posterior schedule is empty")
    if cfg.n_draws < 1:
        raise ConfigError("certify.n_draws must be >= 1")


def _build_dataset(cfg: RunConfig):
    """Returns (train_or_whole_dataset, holdout_or_None)."""
    if cfg.source == "mnist":
        return load_mnist_idx(cfg.mnist_images, cfg.mnist_labels), None
    s = cfg.synth
    total = s["per_class"] + s["holdout_per_class"]
    ds = synth_blobs(s["classes"], total, s["dim"], s["separation"], cfg.data_seed)
    if s["holdout_per_class"] == 0:
        return ds, None
    return split_holdout(ds, s["per_class"])


def _resolved_config_text(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp["data"] = {"source": cfg.source, "seed": str(cfg.data_seed)}
    if cfg.source == "synth":
        cp["data"].update({k: str(v) for k, v in cfg.synth.items()})
    else:
        cp["data"].update({"images": cfg.mnist_images, "labels": cfg.mnist_labels})
    if cfg.prior_fraction is not None:
        cp["data"]["prior_fraction"] = repr(cfg.prior_fraction)
    cp["model"] = {
        "widths": " ".join(str(w) for w in cfg.spec.layer_widths),
        "activation": cfg.spec.activation,
        "sigma0": repr(cfg.sigma0),
    }
    for name, ph in (("prior", cfg.prior), ("posterior", cfg.posterior)):
        entries = {
            "method": ph.method,
            "objective": ph.objective,
            "kappa": repr(ph.kappa),
            "lambda": repr(ph.lam),
            "dropout": repr(ph.dropout),
            "schedule": " ".join(f"{e}:{lr!r}" for e, lr in ph.schedule),
            "momentum": repr(ph.momentum),
            "batch_size": str(ph.batch_size),
            "repeats": str(ph.repeats),
        }
        unread = _UNREAD_PRIOR_KEYS.get(ph.method, set()) if name == "prior" else set()
        cp[name] = {k: v for k, v in entries.items() if k not in unread}
    cp["certify"] = {
        "n_draws": str(cfg.n_draws),
        "delta": repr(cfg.delta),
        "delta_prime": repr(cfg.delta_prime),
    }
    cp["run"] = {"seed": str(cfg.seed), "output_dir": str(cfg.output_dir)}
    from io import StringIO

    buf = StringIO()
    cp.write(buf)
    return buf.getvalue()


def _train_config(ph: PhaseSettings, section: str, phase: str, cfg: RunConfig) -> TrainConfig:
    """The TrainConfig of one [section]; its phase rules fail as a ConfigError
    naming the section."""
    try:
        if ph.method == "erm":
            objective = None
        elif ph.objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective: {ph.objective}")
        else:
            kind = _OBJECTIVES[ph.objective]
            objective = BoundSpec(
                kind=kind,
                kappa=ph.kappa,
                delta=cfg.delta,
                lam=ph.lam if kind == BoundKind.LBD else None,
            )
        return TrainConfig(
            objective=objective,
            lr_schedule=ph.schedule,
            momentum=ph.momentum,
            batch_size=ph.batch_size,
            repeats=ph.repeats,
            seed=cfg.seed,
            phase=phase,
            dropout_prob=ph.dropout,
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
        prior_ds, bound_ds = split_prior_bound(whole, cfg.prior_fraction, cfg.seed)
    else:
        prior_ds, bound_ds = None, whole

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.cfg").write_text(_resolved_config_text(cfg))
    content = hashlib.sha256()
    content.update(whole.fingerprint.encode())
    content.update(_resolved_config_text(cfg).encode())
    (out / "inputs.sha256").write_text(content.hexdigest() + "\n")

    model = StochasticModel.initialize(cfg.spec, cfg.sigma0, RngStream(cfg.seed).child("model"))

    if prior_ds is not None:
        model, prior_log = train_condgauss(model, prior_ds, cfg.prior_train)
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
        if len(fields) != 5:
            raise ConfigError(f"--synth takes {','.join(_SYNTH_FIELDS)}; got {args.synth!r}")
        kinds = (int, int, int, _finite, int)
        ds = synth_blobs(
            *(_parse(k, t, f"--synth field {n}") for n, k, t in zip(_SYNTH_FIELDS, kinds, fields))
        )
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

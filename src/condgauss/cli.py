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
from .trainer import (
    TrainConfig,
    TrainLog,
    train_condgauss,
    train_lambda_alternating,
    train_prior,
    train_surrogate_baseline,
)

__all__ = ["main", "cmd_train", "cmd_certify", "cmd_check", "cmd_eval", "RunConfig"]

_OBJECTIVES = {k.value: k for k in BoundKind}

_PHASE_KEYS = "method objective kappa lambda dropout schedule momentum batch_size repeats"
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
    """Validated contents of a run config file."""

    source: str
    synth: dict
    mnist_images: str | None
    mnist_labels: str | None
    data_seed: int
    prior_fraction: float | None
    widths: tuple[int, ...]
    activation: str
    sigma0: float
    prior: PhaseSettings
    posterior: PhaseSettings
    n_draws: int
    delta: float
    delta_prime: float
    seed: int
    output_dir: Path


def _parse_schedule(text: str) -> tuple[tuple[int, float], ...]:
    entries = []
    for part in text.split():
        epochs, _, lr = part.partition(":")
        entries.append((int(epochs), float(lr)))
    return tuple(entries)


def _phase(cp: configparser.ConfigParser, section: str, default_method: str) -> PhaseSettings:
    def get(key, fallback):
        return cp.get(section, key, fallback=fallback)

    return PhaseSettings(
        method=get("method", default_method),
        objective=get("objective", "invkl"),
        kappa=float(get("kappa", "1.0")),
        lam=float(get("lambda", "0.5")),
        dropout=float(get("dropout", "0.0")),
        schedule=_parse_schedule(get("schedule", "")),
        momentum=float(get("momentum", "0.9")),
        batch_size=int(get("batch_size", "250")),
        repeats=int(get("repeats", "100")),
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

    source = cp.get("data", "source")
    if source not in ("synth", "mnist"):
        raise ConfigError(f"data source must be synth or mnist, got {source}")
    seed = cp.getint("run", "seed")
    synth = {}
    mnist_images = mnist_labels = None
    if source == "synth":
        synth = {
            "classes": cp.getint("data", "classes"),
            "per_class": cp.getint("data", "per_class"),
            "dim": cp.getint("data", "dim"),
            "separation": cp.getfloat("data", "separation"),
            "holdout_per_class": cp.getint("data", "holdout_per_class", fallback=0),
        }
    else:
        mnist_images = cp.get("data", "images")
        mnist_labels = cp.get("data", "labels")
        for p in (mnist_images, mnist_labels):
            if not Path(p).exists():
                raise ConfigError(f"dataset file not found: {p}")

    prior_fraction = cp.getfloat("data", "prior_fraction", fallback=None)
    cfg = RunConfig(
        source=source,
        synth=synth,
        mnist_images=mnist_images,
        mnist_labels=mnist_labels,
        data_seed=cp.getint("data", "seed", fallback=seed),
        prior_fraction=prior_fraction,
        widths=tuple(int(w) for w in cp.get("model", "widths").split()),
        activation=cp.get("model", "activation", fallback="relu"),
        sigma0=cp.getfloat("model", "sigma0", fallback=0.01),
        prior=_phase(cp, "prior", "none"),
        posterior=_phase(cp, "posterior", "condgauss"),
        n_draws=cp.getint("certify", "n_draws", fallback=1000),
        delta=cp.getfloat("certify", "delta", fallback=0.025),
        delta_prime=cp.getfloat("certify", "delta_prime", fallback=0.01),
        seed=seed,
        output_dir=Path(cp.get("run", "output_dir")),
    )
    _validate(cfg)
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
    if cfg.posterior.objective not in _OBJECTIVES:
        raise ConfigError(f"unknown objective: {cfg.posterior.objective}")
    if cfg.prior.method != "none" and cfg.prior_fraction is None:
        raise ConfigError("a trained prior needs data.prior_fraction")
    if cfg.prior.method == "none" and cfg.prior_fraction is not None:
        raise ConfigError("data.prior_fraction is set but prior.method is none")
    if not cfg.posterior.schedule:
        raise ConfigError("posterior schedule is empty")
    if cfg.n_draws < 1:
        raise ConfigError("certify.n_draws must be >= 1")
    if len(cfg.widths) < 3:
        raise ConfigError("model.widths needs input, hidden, and output entries")


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
        "widths": " ".join(str(w) for w in cfg.widths),
        "activation": cfg.activation,
        "sigma0": repr(cfg.sigma0),
    }
    for name, ph in (("prior", cfg.prior), ("posterior", cfg.posterior)):
        cp[name] = {
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


def _train_config(ph: PhaseSettings, phase: str, seed: int, delta: float) -> TrainConfig:
    if phase == "prior" and ph.method == "erm":
        objective = None
    else:
        kind = _OBJECTIVES[ph.objective]
        objective = BoundSpec(
            kind=kind,
            kappa=ph.kappa,
            delta=delta,
            lam=ph.lam if kind == BoundKind.LBD else None,
        )
    return TrainConfig(
        objective=objective,
        lr_schedule=ph.schedule,
        momentum=ph.momentum,
        batch_size=ph.batch_size,
        repeats=ph.repeats,
        seed=seed,
        phase=phase,
        dropout_prob=ph.dropout if phase == "prior" else 0.0,
    )


def cmd_train(config_path) -> int:
    cfg = parse_config(config_path)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    whole, holdout = _build_dataset(cfg)
    if cfg.widths[0] != whole.p:
        raise ConfigError(f"model input width {cfg.widths[0]} != data dim {whole.p}")
    if cfg.widths[-1] != whole.q:
        raise ConfigError(f"model output width {cfg.widths[-1]} != class count {whole.q}")

    (out / "config.resolved.cfg").write_text(_resolved_config_text(cfg))
    content = hashlib.sha256()
    content.update(whole.fingerprint.encode())
    content.update(_resolved_config_text(cfg).encode())
    (out / "inputs.sha256").write_text(content.hexdigest() + "\n")

    model = StochasticModel.initialize(
        ModelSpec(cfg.widths, cfg.activation), cfg.sigma0, RngStream(cfg.seed).child("model")
    )

    if cfg.prior.method != "none":
        prior_ds, bound_ds = split_prior_bound(whole, cfg.prior_fraction, cfg.seed)
        prior_cfg = _train_config(cfg.prior, "prior", cfg.seed, cfg.delta)
        model, prior_log = train_prior(model, prior_ds, prior_cfg)
    else:
        bound_ds = whole
        prior_log = TrainLog(rows=[])
    prior_log.to_csv(out / "train_prior.csv")
    save_model(model, out / "prior.model")

    post_cfg = _train_config(cfg.posterior, _posterior_phase(cfg), cfg.seed, cfg.delta)
    if cfg.posterior.method == "surrogate":
        model, post_log = train_surrogate_baseline(model, bound_ds, post_cfg)
    elif post_cfg.objective.kind == BoundKind.LBD:
        model, post_log = train_lambda_alternating(model, bound_ds, post_cfg)
    else:
        model, post_log = train_condgauss(model, bound_ds, post_cfg)
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


def _posterior_phase(cfg: RunConfig) -> str:
    return "baseline" if cfg.posterior.method == "surrogate" else "posterior"


def _dataset_from_args(args) -> LabelledDataset:
    if args.synth:
        q, n, p, sep, seed = args.synth.split(",")
        ds = synth_blobs(int(q), int(n), int(p), float(sep), int(seed))
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

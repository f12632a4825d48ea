"""Command-line surface: full pipeline runs, validation failures, rerun
determinism, certification and evaluation of snapshots, and the check
battery with its negative control."""
import itertools
import os
import re
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import condgauss.cli as cli
import condgauss.gaussian as gaussian
import condgauss.network as network
from condgauss.certify import Certificate
from condgauss.cli import ConfigError, main, parse_config
from condgauss.data import save_idx, split_prior_bound, synth_blobs
from condgauss.network import ModelSpec, StochasticModel, load_model, save_model
from condgauss.rng import RngStream
from condgauss.trainer import CSV_HEADER, train_condgauss

QUICK_CONFIG = """\
[data]
source = synth
classes = 3
per_class = 60
dim = 10
separation = 0.8
holdout_per_class = 10

[model]
widths = 10 32 3
sigma0 = 0.01

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 6:0.002 2:0.0004
momentum = 0.5
batch_size = 90
repeats = 5

[certify]
n_draws = 40
delta = 0.025
delta_prime = 0.01

[run]
seed = 7
output_dir = {out}
"""

SPLIT_CONFIG = """\
[data]
source = synth
classes = 3
per_class = 80
dim = 10
separation = 0.8
prior_fraction = 0.5

[model]
widths = 10 32 3
sigma0 = 0.01

[prior]
method = erm
schedule = 3:0.002
momentum = 0.5
batch_size = 120
repeats = 4

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 4:0.002
momentum = 0.5
batch_size = 120
repeats = 4

[certify]
n_draws = 25
delta = 0.025
delta_prime = 0.01

[run]
seed = 11
output_dir = {out}
"""

# An mnist-source run over IDX files of synthetic blobs, no prior.
MNIST_CONFIG = """\
[data]
source = mnist
images = {images}
labels = {labels}

[model]
widths = 10 32 3
sigma0 = 0.01

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 3:0.002
momentum = 0.5
batch_size = 90
repeats = 5

[certify]
n_draws = 20
delta = 0.025
delta_prime = 0.01

[run]
seed = 7
output_dir = {out}
"""

# config.resolved.cfg of QUICK_CONFIG and SPLIT_CONFIG: every key the run
# reads, in schema order, with defaults filled in and floats as repr.
QUICK_RESOLVED = """\
[data]
source = synth
seed = 7
classes = 3
per_class = 60
dim = 10
separation = 0.8
holdout_per_class = 10

[model]
widths = 10 32 3
sigma0 = 0.01

[prior]
method = none

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 6:0.002 2:0.0004
momentum = 0.5
batch_size = 90
repeats = 5

[certify]
n_draws = 40
delta = 0.025
delta_prime = 0.01

[run]
seed = 7
output_dir = {out}

"""

SPLIT_RESOLVED = """\
[data]
source = synth
seed = 11
classes = 3
per_class = 80
dim = 10
separation = 0.8
holdout_per_class = 0
prior_fraction = 0.5

[model]
widths = 10 32 3
sigma0 = 0.01

[prior]
method = erm
dropout = 0.0
schedule = 3:0.002
momentum = 0.5
batch_size = 120
repeats = 4

[posterior]
method = condgauss
objective = invkl
kappa = 1.0
schedule = 4:0.002
momentum = 0.5
batch_size = 120
repeats = 4

[certify]
n_draws = 25
delta = 0.025
delta_prime = 0.01

[run]
seed = 11
output_dir = {out}

"""


# Trainer paths beyond QUICK_CONFIG and SPLIT_CONFIG, as (template, edit).
PHASE_VARIANTS = {
    "invkl_prior": (SPLIT_CONFIG, ("method = erm", "method = invkl\nkappa = 0.1")),
    "lbd_posterior": (QUICK_CONFIG, ("objective = invkl", "objective = lbd\nlambda = 0.4")),
    "surrogate_quad": (QUICK_CONFIG, ("method = condgauss\nobjective = invkl",
                                      "method = surrogate\nobjective = quad")),
    "surrogate_lbd": (QUICK_CONFIG, ("method = condgauss\nobjective = invkl",
                                     "method = surrogate\nobjective = lbd")),
}


def write_config(tmp_path, template, name="run.cfg", **fmt):
    out = tmp_path / fmt.pop("out_name", "run_out")
    cfg = tmp_path / name
    cfg.write_text(template.format(out=out, **fmt))
    return cfg, out


def write_idx_pair(tmp_path):
    """IDX files of 3-class, 10-wide synthetic blobs, as an mnist source reads."""
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    save_idx(synth_blobs(3, 60, 10, 0.8, 7), images, labels)
    return images, labels


def numeric_csv_columns(path):
    """CSV rows with the wall-time column dropped."""
    lines = Path(path).read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestTrainCommand:
    def test_minimal_synth_run_produces_artifacts(self, tmp_path):
        cfg, out = write_config(tmp_path, QUICK_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        for name in (
            "prior.model",
            "posterior.model",
            "train_prior.csv",
            "train_posterior.csv",
            "certificate.txt",
            "config.resolved.cfg",
            "inputs.sha256",
            "holdout_images.idx",
            "holdout_labels.idx",
        ):
            assert (out / name).exists(), name
        cert = Certificate.from_text((out / "certificate.txt").read_text())
        assert 0.0 <= cert.final_bound <= 1.0
        # Data-free prior: empty prior log, just the header.
        assert (out / "train_prior.csv").read_text().count("\n") == 1
        model = load_model(out / "posterior.model")
        assert model.spec.layer_widths == (10, 32, 3)
        assert (out / "config.resolved.cfg").read_text() == QUICK_RESOLVED.format(out=out)
        assert parse_config(out / "config.resolved.cfg") == parse_config(cfg)

    def test_invalid_deltas_rejected_before_compute(self, tmp_path, capsys):
        cfg, _ = write_config(
            tmp_path,
            QUICK_CONFIG.replace("delta_prime = 0.01", "delta_prime = 0.98"),
        )
        assert main(["train", "--config", str(cfg)]) == 1
        assert "delta" in capsys.readouterr().err

    def test_prior_fraction_requires_method(self, tmp_path, capsys):
        cfg, _ = write_config(
            tmp_path, QUICK_CONFIG.replace("[data]", "[data]\nprior_fraction = 0.5")
        )
        assert main(["train", "--config", str(cfg)]) == 1
        assert "prior" in capsys.readouterr().err

    def test_rerun_is_byte_identical_up_to_walltime(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            cfg, out = write_config(
                tmp_path, QUICK_CONFIG, name=f"run_{run}.cfg", out_name=f"out_{run}"
            )
            assert main(["train", "--config", str(cfg)]) == 0
            outputs.append(out)
        a, b = outputs
        assert numeric_csv_columns(a / "train_posterior.csv") == numeric_csv_columns(
            b / "train_posterior.csv"
        )
        assert (a / "certificate.txt").read_text() == (b / "certificate.txt").read_text()
        assert (a / "posterior.model").read_text() == (b / "posterior.model").read_text()

    def test_data_dependent_prior_run(self, tmp_path):
        cfg, out = write_config(tmp_path, SPLIT_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        cert = Certificate.from_text((out / "certificate.txt").read_text())
        assert cert.m == 120  # bound half of 240
        prior_rows = (out / "train_prior.csv").read_text().strip().splitlines()
        assert len(prior_rows) == 4  # header + 3 epochs
        model = load_model(out / "posterior.model")
        assert model.prior_fingerprint is not None
        assert (out / "config.resolved.cfg").read_text() == SPLIT_RESOLVED.format(out=out)
        assert parse_config(out / "config.resolved.cfg") == parse_config(cfg)

    @pytest.mark.parametrize("variant", sorted(PHASE_VARIANTS))
    def test_phase_variant_runs(self, tmp_path, variant):
        template, (old, new) = PHASE_VARIANTS[variant]
        cfg, out = write_config(tmp_path, template.replace(old, new))
        assert main(["train", "--config", str(cfg)]) == 0
        rows = [r.split(",") for r in (out / "train_posterior.csv").read_text().splitlines()[1:]]
        epochs = sum(e for e, _ in parse_config(cfg).posterior_train.lr_schedule)
        if "lbd" in variant:
            # Alternating parameter and lambda epochs, lambda logged on each.
            assert len(rows) == 2 * epochs
            assert all(r[6] != "NA" for r in rows)
        else:
            assert len(rows) == epochs
            assert all(r[6] == "NA" for r in rows)
        if variant == "invkl_prior":
            prior = load_model(out / "prior.model")
            assert prior.prior_fingerprint is not None
            assert load_model(out / "posterior.model").prior_fingerprint == prior.prior_fingerprint
        assert Certificate.from_text((out / "certificate.txt").read_text()).final_bound <= 1.0
        assert parse_config(out / "config.resolved.cfg") == parse_config(cfg)

    @pytest.mark.parametrize(
        "section, old, new, message",
        [
            ("prior", "batch_size = 120", "batch_size = 0", "batch_size"),
            ("prior", "method = erm", "method = bogus", "method must be one of none, erm, invkl"),
            ("prior", "method = erm", "method = erm\nkappa = 0.1",
             "kappa: unused when method = erm"),
            ("posterior", "kappa = 1.0", "kappa = 1.0\nlambda = 0.4",
             "lambda: unused when objective = invkl"),
            ("posterior", "objective = invkl", "objective = mcall\nlambda = 0.4",
             "lambda: unused when objective = mcall"),
            ("prior", "method = erm\n", "",
             "schedule, momentum, batch_size, repeats: unused when method = none"),
            ("posterior", "schedule = 4:0.002", "schedule = 3:abc",
             "schedule must be epochs:rate entries, got '3:abc'"),
            ("posterior", "schedule = 4:0.002", "schedule = 3",
             "schedule must be epochs:rate entries, got '3'"),
            ("posterior", "kappa = 1.0", "kappa = abc", "kappa must be a finite number, got 'abc'"),
            ("posterior", "kappa = 1.0", "kappa = nan", "kappa must be a finite number, got 'nan'"),
            ("posterior", "schedule = 4:0.002", "schedule = 4:inf",
             "schedule must be epochs:rate entries, got '4:inf'"),
            ("posterior", "batch_size = 120\nrepeats = 4\n\n[certify]",
             "batch_size = 2.5\nrepeats = 4\n\n[certify]",
             "batch_size must be an integer, got '2.5'"),
            ("model", "widths = 10 32 3", "widths = 10 x 3", "widths must be integers, got '10 x 3'"),
            ("model", "widths = 10 32 3", "widths = 10 0 3", "widths must be positive"),
            ("model", "sigma0 = 0.01", "sigma0 = -1", "sigma0 must be positive, got -1.0"),
            ("data", "prior_fraction = 0.5", "prior_fraction = 1.5",
             r"prior_fraction must lie in \(0, 1\), got 1.5"),
            ("data", "classes = 3\n", "", "classes is required"),
            ("data", "per_class = 80", "per_class = 0", "per_class must be an integer >= 1, got '0'"),
            ("data", "per_class = 80", "per_class = 80\nholdout_per_class = -5",
             "holdout_per_class must be >= 0, got -5"),
            ("data", "classes = 3", "classes = 1", "classes must be >= 2, got 1"),
            ("data", "dim = 10", "dim = 2", "dim must be >= classes = 3, got 2"),
            ("data", "separation = 0.8", "separation = 1.5",
             r"separation must lie in \[0, 1\], got 1.5"),
            ("prior", "schedule = 3:0.002\n", "", "schedule is empty"),
            ("run", "seed = 11", "seed = -1", "seed must be an integer >= 0, got '-1'"),
            ("data", "separation = 0.8\n", "separation = 0.8\nseed = -4\n",
             "seed must be an integer >= 0, got '-4'"),
            ("data", "source = synth\nclasses = 3\nper_class = 80\ndim = 10\nseparation = 0.8",
             "source = mnist\nimages = missing.idx\nlabels = missing.idx",
             "images must be an existing file, got 'missing.idx'"),
        ],
    )
    def test_phase_settings_rejected_before_output(self, tmp_path, capsys, section, old, new, message):
        text = SPLIT_CONFIG.replace(old, new, 1)
        assert text != SPLIT_CONFIG
        cfg, out = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"\[{section}\] .*{message}"):
            parse_config(cfg)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"[{section}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, old, new, key",
        [
            ("model", "sigma0 = 0.01", "sigma0 = 0.01\nactivation = relu", "activation"),
            ("prior", "method = erm", "method = invkl\nobjective = invkl", "objective"),
            ("prior", "method = erm", "method = invkl\nlambda = 0.4", "lambda"),
            ("posterior", "kappa = 1.0", "kappa = 1.0\ndropout = 0.0", "dropout"),
        ],
        ids=["model-activation", "prior-objective", "prior-lambda", "posterior-dropout"],
    )
    def test_retired_keys_are_unknown_before_output(self, tmp_path, capsys, section, old, new, key):
        """Keys that could take only one value are gone: a config that sets
        one fails as a typo would, even at that one value."""
        cfg, out = write_config(tmp_path, SPLIT_CONFIG.replace(old, new, 1))
        message = f"unknown config entries: [{section}] {key}"
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert str(err.value) == message
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_datasets_released_before_posterior_training(self, tmp_path, monkeypatch):
        # The whole dataset and the prior half are dead weight once the prior
        # is trained: neither may outlive it into posterior training.
        refs = []

        def split(ds, fraction, seed):
            prior_ds, bound_ds = split_prior_bound(ds, fraction, seed)
            refs.extend([weakref.ref(ds), weakref.ref(prior_ds)])
            return prior_ds, bound_ds

        def train(model, dataset, config):
            if config.phase == "posterior":
                assert [ref() for ref in refs] == [None, None]
            return train_condgauss(model, dataset, config)

        monkeypatch.setattr(cli, "split_prior_bound", split)
        monkeypatch.setattr(cli, "train_condgauss", train)
        cfg, _ = write_config(tmp_path, SPLIT_CONFIG)
        assert cli.cmd_train(cfg) == 0
        assert len(refs) == 2

    def test_refused_split_writes_no_output(self, tmp_path, capsys):
        # 1200 points at fraction 0.995 leave 6 for the bound half.
        text = SPLIT_CONFIG.replace("per_class = 80", "per_class = 400").replace(
            "prior_fraction = 0.5", "prior_fraction = 0.995"
        )
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "bound split would have 6 < 8 points" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_with_mnist_source_writes_no_output(self, tmp_path, capsys):
        images, labels = write_idx_pair(tmp_path)
        text = MNIST_CONFIG.replace("seed = 7", "seed = -1")
        cfg, out = write_config(tmp_path, text, images=images, labels=labels)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "[run] seed must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "widths, message",
        [
            ("12 32 3", "model input width 12 != data dim 10"),
            ("10 32 4", "model output width 4 != class count 3"),
        ],
        ids=["width", "classes"],
    )
    def test_model_not_matching_data_writes_no_output(self, tmp_path, capsys, widths, message):
        text = QUICK_CONFIG.replace("widths = 10 32 3", f"widths = {widths}")
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_mnist_source_certificate_matches_certify_command(self, tmp_path):
        images, labels = write_idx_pair(tmp_path)
        cfg, out = write_config(tmp_path, MNIST_CONFIG, images=images, labels=labels)
        assert main(["train", "--config", str(cfg)]) == 0
        args = ["certify", "--model", str(out / "posterior.model"), "--images", str(images),
                "--labels", str(labels), "--n-draws", "20", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "cert.txt")]) == 0
        assert (tmp_path / "cert.txt").read_bytes() == (out / "certificate.txt").read_bytes()

    @pytest.mark.parametrize("method", ["", "method = none\n"], ids=["absent", "none"])
    def test_prior_keys_without_prior_method_rejected(self, tmp_path, method):
        prior = f"[prior]\n{method}kappa = 0.5\ndropout = 0.5\nschedule = 3:0.1\n\n"
        text = QUICK_CONFIG.replace("[posterior]", prior + "[posterior]")
        cfg, _ = write_config(tmp_path, text)
        with pytest.raises(
            ConfigError, match=r"\[prior\] kappa, dropout, schedule: unused when method = none"
        ):
            parse_config(cfg)

    def test_missing_config(self, capsys):
        assert main(["train", "--config", "/nonexistent/run.cfg"]) == 1
        assert "not found" in capsys.readouterr().err


class TestCertifyCommand:
    def test_certify_snapshot(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, QUICK_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(
            [
                "certify",
                "--model",
                str(out / "posterior.model"),
                "--synth",
                "3,60,10,0.8,7",
                "--n-draws",
                "20",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "cert2.txt"),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "final_bound=" in printed
        assert (tmp_path / "cert2.txt").exists()

    def test_refusal_maps_to_nonzero_exit(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, SPLIT_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        # Certifying on the whole dataset must be refused: the prior saw half.
        code = main(
            [
                "certify",
                "--model",
                str(out / "posterior.model"),
                "--synth",
                "3,80,10,0.8,11",
                "--n-draws",
                "5",
            ]
        )
        assert code == 1
        assert "disjoint" in capsys.readouterr().err

    def test_prior_split_certificate_reproduced(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, SPLIT_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        args = ["certify", "--model", str(out / "posterior.model"), "--synth", "3,80,10,0.8,11",
                "--prior-fraction", "0.5", "--n-draws", "25", "--seed", "11"]
        assert main(args + ["--split-seed", "11", "--out", str(tmp_path / "cert.txt")]) == 0
        assert (tmp_path / "cert.txt").read_bytes() == (out / "certificate.txt").read_bytes()
        capsys.readouterr()
        # Another split seed draws another split, which the prior may overlap.
        assert main(args + ["--split-seed", "12"]) == 1
        assert "not provably disjoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "eval"])
    def test_negative_seed_rejected_before_draws(self, tmp_path, capsys, monkeypatch, command):
        def no_draw(*args):
            raise AssertionError("a draw ran")

        monkeypatch.setattr("condgauss.certify.sample_full", no_draw)
        model = StochasticModel.initialize(ModelSpec((6, 8, 3)), 0.01, RngStream(1))
        save_model(model, tmp_path / "m.model")
        args = [command, "--model", str(tmp_path / "m.model"), "--synth", "3,20,6,0.8,1",
                "--n-draws", "3", "--seed", "-3"]
        assert main(args) == 1
        assert "error: negative seed: -3" in capsys.readouterr().err


class TestEvalCommand:
    def test_synth_field_count_rejected(self, tmp_path, capsys):
        model = StochasticModel.initialize(ModelSpec((10, 4, 3)), 0.01, RngStream(1))
        save_model(model, tmp_path / "m.model")
        assert main(["eval", "--model", str(tmp_path / "m.model"), "--synth", "3,10,4"]) == 1
        assert "q,per_class,dim,separation,seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "synth, message",
        [("3,x,4,0.8,1", "--synth field per_class must be an integer >= 1, got 'x'"),
         ("3,0,4,0.8,1", "--synth field per_class must be an integer >= 1, got '0'"),
         ("3,10,4,far,1", "--synth field separation must be a finite number, got 'far'"),
         ("3,10,4,0.8,-1", "--synth field seed must be an integer >= 0, got '-1'")],
        ids=["per_class-text", "per_class-zero", "separation-text", "seed-negative"],
    )
    def test_synth_field_value_rejected(self, tmp_path, capsys, synth, message):
        model = StochasticModel.initialize(ModelSpec((4, 4, 3)), 0.01, RngStream(1))
        save_model(model, tmp_path / "m.model")
        assert main(["eval", "--model", str(tmp_path / "m.model"), "--synth", synth]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, synth, message",
        [
            pytest.param(command, synth, message, id=f"{command}-{case}")
            for command in ("certify", "eval")
            for case, synth, message in (
                ("labels", "5,20,6,0.8,1", "data labels span 1..5, but the model's classes are 1..3"),
                ("width", "3,20,4,0.8,1", "data rows have width 4, but the model takes p=6"),
            )
        ],
    )
    def test_data_not_matching_model_rejected(self, tmp_path, capsys, command, synth, message):
        model = StochasticModel.initialize(ModelSpec((6, 8, 3)), 0.01, RngStream(1))
        save_model(model, tmp_path / "m.model")
        args = [command, "--model", str(tmp_path / "m.model"), "--synth", synth, "--n-draws", "3"]
        assert main(args) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_eval_holdout(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, QUICK_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--model",
                str(out / "posterior.model"),
                "--images",
                str(out / "holdout_images.idx"),
                "--labels",
                str(out / "holdout_labels.idx"),
                "--n-draws",
                "10",
            ]
        )
        assert code == 0
        assert "heldout_error=" in capsys.readouterr().out


class TestCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_psi_fails_unbiasedness(self, capsys, monkeypatch):
        # Negative control: bias the CDF the estimators use and the
        # unbiasedness check must notice.
        true_cdf = gaussian.std_normal_cdf

        def corrupted(t):
            return np.clip(true_cdf(t) + 0.05, 0.0, 1.0)

        monkeypatch.setattr(gaussian, "std_normal_cdf", corrupted)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert any("estimator_unbiasedness" in line and "FAIL" in line for line in out.splitlines())

    def test_shrunk_screen_bound_fails_screened_scoring(self, capsys, monkeypatch):
        # Negative control: a float32 screen whose bound is too small must
        # fail the screened-scoring check.
        true_tolerance = network.ScoreScreen.tolerance

        def shrunk(self, x32):
            bound, held = true_tolerance(self, x32)
            return bound * 1e-3, held

        monkeypatch.setattr(network.ScoreScreen, "tolerance", shrunk)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert any("screened_scoring" in line and "FAIL" in line for line in out.splitlines())


class TestParseConfig:
    def test_resolves_defaults(self, tmp_path):
        cfg, out = write_config(tmp_path, QUICK_CONFIG)
        rc = parse_config(cfg)
        assert rc.spec.layer_widths == (10, 32, 3)
        assert rc.delta == 0.025
        assert rc.prior_train is None
        assert rc.output_dir == out

    def test_percent_in_value_round_trips(self, tmp_path):
        cfg, out = write_config(tmp_path, QUICK_CONFIG, out_name="runs/50%done")
        rc = parse_config(cfg)
        assert rc.output_dir == out
        assert f"output_dir = {out}\n" in rc.resolved
        resolved = tmp_path / "config.resolved.cfg"
        resolved.write_text(rc.resolved)
        again = parse_config(resolved)
        assert again.output_dir == out
        assert again.resolved == rc.resolved

    def test_shipped_synth_config_parses(self):
        cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "synth_quick.cfg")
        assert cfg.posterior_train.batch_size == 1000

    def test_unknown_key_and_section_rejected(self, tmp_path):
        typo = QUICK_CONFIG.replace("batch_size = 90", "batchsize = 1000")
        cfg, _ = write_config(tmp_path, typo + "\n[posteriour]\nrepeats = 3\n")
        with pytest.raises(ConfigError, match=r"\[posterior\] batchsize, \[posteriour\]"):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("source = synth", "source = synth\nimages = x",
             r"\[data\] images: unused when source = synth"),
            ("source = synth", "source = mnist\nimages = x\nlabels = y",
             r"\[data\] classes, per_class, dim, separation, holdout_per_class: "
             "unused when source = mnist"),
        ],
        ids=["synth", "mnist"],
    )
    def test_data_keys_the_source_never_reads_rejected(self, tmp_path, old, new, message):
        cfg, _ = write_config(tmp_path, QUICK_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)

    def test_unknown_objective(self, tmp_path):
        cfg, _ = write_config(tmp_path, QUICK_CONFIG.replace("objective = invkl", "objective = magic"))
        with pytest.raises(
            ConfigError,
            match=r"^\[posterior\] objective must be one of invkl, mcall, quad, lbd, got 'magic'$",
        ):
            parse_config(cfg)

    def test_every_key_is_read_under_some_decider_values(self):
        """Each schema key is read under at least one combination of its
        section's decider values, so no key can only ever fail as unused;
        and each unread set names keys of its own section only."""
        for section, keys in cli._SCHEMA.items():
            tables = [table for _, table in cli._UNREAD.get(section, [])]
            for table in tables:
                for unread in table.values():
                    assert unread <= set(keys), section
            never_read = set(keys)
            for combination in itertools.product(*(table.values() for table in tables)):
                never_read -= set(keys) - set().union(*combination)
            assert never_read == set(), section


def test_readme_lists_run_file_formats():
    """The README's certificate keys and CSV header are the ones the code writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = re.search(r"`certificate.txt` \(keys `([^`]*)`\)", readme).group(1)
    assert re.split(r",\s+", keys) == [f.name for f in fields(Certificate)]
    assert re.search(r"CSV logs\s+\(`([^`]*)`\)", readme).group(1) == CSV_HEADER

"""Dataset ingestion and synthesis: IDX parsing against hand-built bytes,
split bookkeeping, and blob generator properties."""
import struct

import numpy as np
import pytest

from condgauss.data import (
    IdxParseError,
    LabelledDataset,
    load_mnist_idx,
    save_idx,
    split_prior_bound,
    synth_blobs,
)


def write_fixture(tmp_path, pixels=(0, 128, 255, 64, 10, 20, 30, 40), labels=(3, 7),
                  n=2, rows=2, cols=2, image_magic=0x803, label_magic=0x801,
                  truncate_pixels=0, label_count=None):
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    body = bytes(pixels)
    if truncate_pixels:
        body = body[:-truncate_pixels]
    img.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + body)
    lab.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else n)
        + bytes(labels)
    )
    return img, lab


class TestLoadIdx:
    def test_hand_built_fixture_exact_pixels(self, tmp_path):
        img, lab = write_fixture(tmp_path)
        ds = load_mnist_idx(img, lab)
        assert len(ds) == 2
        assert ds.p == 4
        np.testing.assert_allclose(
            ds.inputs[0], np.array([0, 128, 255, 64]) / 255.0, atol=1e-15
        )
        np.testing.assert_allclose(
            ds.inputs[1], np.array([10, 20, 30, 40]) / 255.0, atol=1e-15
        )
        # 0-based file labels become 1-based internally.
        np.testing.assert_array_equal(ds.labels, [4, 8])
        assert ds.q == 8
        assert np.all(ds.inputs >= 0) and np.all(ds.inputs <= 1)

    def test_bad_image_magic_names_offset(self, tmp_path):
        img, lab = write_fixture(tmp_path, image_magic=0x802)
        with pytest.raises(IdxParseError, match="offset 0"):
            load_mnist_idx(img, lab)

    def test_bad_label_magic(self, tmp_path):
        img, lab = write_fixture(tmp_path, label_magic=0x803)
        with pytest.raises(IdxParseError, match="label magic"):
            load_mnist_idx(img, lab)

    def test_truncated_pixels_names_offset(self, tmp_path):
        img, lab = write_fixture(tmp_path, truncate_pixels=3)
        with pytest.raises(IdxParseError, match="offset 16"):
            load_mnist_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_fixture(tmp_path, labels=(3, 7, 1), label_count=3)
        with pytest.raises(IdxParseError, match="does not match"):
            load_mnist_idx(img, lab)

    def test_save_load_round_trip(self, tmp_path):
        ds = synth_blobs(3, 20, 6, 0.7, seed=3)
        img, lab = tmp_path / "s.idx", tmp_path / "sl.idx"
        save_idx(ds, img, lab)
        back = load_mnist_idx(img, lab)
        np.testing.assert_array_equal(back.labels, ds.labels)
        # Pixels survive up to the byte quantization of the format.
        assert np.abs(back.inputs - ds.inputs).max() <= 0.5 / 255.0 + 1e-12


class TestSplitPriorBound:
    def test_half_split_counts(self):
        ds = synth_blobs(2, 300, 5, 0.5, seed=4)
        s1, s2 = split_prior_bound(ds, 0.5, seed=9)
        assert len(s1) == 300 and len(s2) == 300

    def test_seventy_thirty(self):
        ds = synth_blobs(2, 50, 5, 0.5, seed=4)
        s1, s2 = split_prior_bound(ds, 0.7, seed=9)
        assert len(s1) == 70 and len(s2) == 30

    def test_disjoint_and_exhaustive(self):
        ds = synth_blobs(3, 40, 5, 0.5, seed=5)
        s1, s2 = split_prior_bound(ds, 0.6, seed=10)
        combined = np.vstack([s1.inputs, s2.inputs])
        assert combined.shape[0] == len(ds)
        whole_sorted = np.sort(ds.inputs.view([("", ds.inputs.dtype)] * ds.p), axis=0)
        comb_sorted = np.sort(combined.view([("", combined.dtype)] * ds.p), axis=0)
        np.testing.assert_array_equal(whole_sorted, comb_sorted)

    def test_same_seed_same_split(self):
        ds = synth_blobs(2, 100, 5, 0.5, seed=6)
        a1, a2 = split_prior_bound(ds, 0.5, seed=11)
        b1, b2 = split_prior_bound(ds, 0.5, seed=11)
        np.testing.assert_array_equal(a1.inputs, b1.inputs)
        np.testing.assert_array_equal(a2.labels, b2.labels)
        assert a1.pair_token == b1.pair_token == a2.pair_token

    def test_tags_and_tokens(self):
        ds = synth_blobs(2, 100, 5, 0.5, seed=6)
        s1, s2 = split_prior_bound(ds, 0.5, seed=12)
        assert s1.split_tag == "prior" and s2.split_tag == "bound"
        assert s1.pair_token == s2.pair_token
        assert s1.fingerprint != s2.fingerprint

    def test_too_small_bound_half(self):
        ds = synth_blobs(2, 6, 5, 0.5, seed=6)
        with pytest.raises(ValueError):
            split_prior_bound(ds, 0.9, seed=13)


class TestSynthBlobs:
    def test_reproducible(self):
        a = synth_blobs(4, 25, 12, 0.6, seed=77)
        b = synth_blobs(4, 25, 12, 0.6, seed=77)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inputs_in_unit_box_balanced_labels(self):
        ds = synth_blobs(3, 40, 8, 0.9, seed=78)
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)
        counts = np.bincount(ds.labels)[1:]
        np.testing.assert_array_equal(counts, [40, 40, 40])

    def test_zero_separation_indistinguishable(self):
        ds = synth_blobs(4, 200, 10, 0.0, seed=79)
        # Class-conditional means coincide: a linear probe stays near chance.
        X = np.hstack([ds.inputs, np.ones((len(ds), 1))])
        W, *_ = np.linalg.lstsq(X, np.eye(4)[ds.labels - 1], rcond=None)
        err = np.mean(np.argmax(X @ W, axis=1) + 1 != ds.labels)
        assert err > 0.55  # chance is 0.75

    def test_large_separation_linearly_separable(self):
        ds = synth_blobs(4, 1000, 20, 0.8, seed=80)
        X = np.hstack([ds.inputs, np.ones((len(ds), 1))])
        W, *_ = np.linalg.lstsq(X, np.eye(4)[ds.labels - 1], rcond=None)
        err = np.mean(np.argmax(X @ W, axis=1) + 1 != ds.labels)
        assert err == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 10, 5, 0.5, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(6, 10, 5, 0.5, seed=0)  # classes > dim
        with pytest.raises(ValueError):
            synth_blobs(2, 10, 5, 1.5, seed=0)


class TestLabelledDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabelledDataset(inputs=np.zeros((3, 2)), labels=np.array([0, 1, 2]), q=3)
        with pytest.raises(ValueError):
            LabelledDataset(inputs=np.zeros((3, 2)), labels=np.array([1, 1]), q=2)

    def test_rejects_non_finite_inputs(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.inf
        with pytest.raises(ValueError, match="row 1"):
            LabelledDataset(inputs=x, labels=np.array([1, 2, 1]), q=2)

    def test_fingerprint_tracks_content(self):
        a = synth_blobs(2, 10, 4, 0.5, seed=1)
        b = synth_blobs(2, 10, 4, 0.5, seed=2)
        assert a.fingerprint != b.fingerprint
        again = synth_blobs(2, 10, 4, 0.5, seed=1)
        assert a.fingerprint == again.fingerprint

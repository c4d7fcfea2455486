"""Ingestion, normalization, splitting, and the synthetic generator."""

import warnings

import numpy as np
import pytest

from dynssm import data as D
from dynssm.errors import ConfigError, ContentError, ParseError, SplitError


class TestLoadRoiCsv:
    def test_three_rows_two_cols(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("roi_0,roi_1\n0.0,0.0\n0.0,0.0\n0.0,0.0\n")
        ts = D.load_roi_csv(path)
        assert ts.length == 3 and ts.n_rois == 2
        assert np.all(ts.values == 0.0)

    def test_header_only_is_content_error(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("roi_0,roi_1\n")
        with pytest.raises(ContentError):
            D.load_roi_csv(path)

    def test_ragged_row_parse_error_with_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("roi_0,roi_1\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            D.load_roi_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("roi_0,roi_1\n1,2\nx,4\n")
        with pytest.raises(ParseError, match="line 3"):
            D.load_roi_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(ParseError, match="line 1"):
            D.load_roi_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("roi_0\n1\n2\n3\n")
        with pytest.raises(ContentError):
            D.load_roi_csv(path)

    def test_ragged_row_among_full_rows_names_its_line(self, tmp_path):
        path = tmp_path / "r4.csv"
        path.write_text("roi_0,roi_1\n1,2\n3,4\n5,6,7\n8,9\n")
        with pytest.raises(ParseError, match="line 4"):
            D.load_roi_csv(path)

    def test_error_after_a_blank_line_names_the_files_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("roi_0,roi_1\n1,2\n\n3,x\n4,5\n")
        with pytest.raises(ParseError, match="^line 4:"):
            D.load_roi_csv(path)
        path.write_text("\n\na,b\n1,2\n")
        with pytest.raises(ParseError, match="^line 3:"):
            D.load_roi_csv(path)

    def test_hash_inside_a_field_is_parse_error(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("roi_0,roi_1\n1,2\n3,4#5\n6,7\n")
        with pytest.raises(ParseError, match="line 3"):
            D.load_roi_csv(path)

    def test_consistent_width_other_than_header_is_parse_error(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("roi_0,roi_1\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(ParseError, match="line 2"):
            D.load_roi_csv(path)

    def test_fields_follow_float_rules(self, tmp_path):
        fields = ["1_0", " 2.5 ", "-0.0", "4.", ".5", "+7", "1e-300", "6"]
        path = tmp_path / "f.csv"
        path.write_text("roi_0,roi_1\n" + "\n".join(
            f"{a},{b}" for a, b in zip(fields[::2], fields[1::2])) + "\n")
        values = D.load_roi_csv(path).values
        expect = np.array([float(v) for v in fields]).reshape(4, 2)
        assert values.tobytes() == expect.tobytes()

    def test_header_only_warns_nothing(self, tmp_path):
        path = tmp_path / "h0.csv"
        path.write_text("roi_0,roi_1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContentError):
                D.load_roi_csv(path)

    def test_write_read_round_trip_bit_identical(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(13, 7))
        D.write_roi_csv(tmp_path / "rt.csv", vals)
        back = D.load_roi_csv(tmp_path / "rt.csv")
        assert np.array_equal(back.values, vals)


class TestNormalize:
    def test_hand_computation(self):
        ts = D.RoiTimeSeries("s", np.array([[1.0], [2.0], [3.0]] ) * np.ones((3, 2)))
        ts.values[:, 1] = 5.0
        out = D.normalize_zscore(ts)
        assert np.allclose(out.values[:, 0], [-1.224745, 0.0, 1.224745], atol=1e-6)
        assert np.array_equal(out.values[:, 1], [0.0, 0.0, 0.0])

    def test_idempotent(self):
        ts = D.RoiTimeSeries("s", np.random.default_rng(1).normal(size=(50, 4)))
        once = D.normalize_zscore(ts)
        twice = D.normalize_zscore(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_population_std_used(self):
        ts = D.RoiTimeSeries("s", np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        out = D.normalize_zscore(ts)
        assert abs(out.values[:, 0].std() - 1.0) < 1e-10
        assert abs(out.values[:, 0].mean()) < 1e-10

    def test_too_short(self):
        with pytest.raises(ContentError):
            D.normalize_zscore(D.RoiTimeSeries("s", np.zeros((1, 3))))


class TestSplitDataset:
    @staticmethod
    def _subjects(n_asd, n_tc):
        mk = lambda i, lab: D.RoiTimeSeries(f"{lab}{i}", np.zeros((4, 2)), lab)
        return [mk(i, "ASD") for i in range(n_asd)] + [mk(i, "TC") for i in range(n_tc)]

    def test_80_20(self):
        split = D.split_dataset(self._subjects(5, 5), 0.8, seed=0)
        assert len(split.train) == 8 and len(split.test) == 2

    def test_same_seed_identical_different_seed_not(self):
        subs = self._subjects(10, 10)
        s1 = D.split_dataset(subs, 0.8, seed=3)
        s2 = D.split_dataset(subs, 0.8, seed=3)
        s3 = D.split_dataset(subs, 0.8, seed=4)
        ids = lambda sp: [s.subject_id for s in sp.train]
        assert ids(s1) == ids(s2)
        assert ids(s1) != ids(s3)
        assert sorted(ids(s1)) != ids(s1)   # actually shuffled

    def test_paper_scale_counts(self):
        split = D.split_dataset(self._subjects(505, 530), 0.8, seed=1)
        tr_asd = sum(1 for s in split.train if s.label == "ASD")
        te_asd = sum(1 for s in split.test if s.label == "ASD")
        assert abs(tr_asd - 404) <= 1 and abs(te_asd - 101) <= 1
        assert abs((len(split.train) - tr_asd) - 424) <= 1

    def test_disjoint_always(self):
        for seed in range(10):
            split = D.split_dataset(self._subjects(7, 9), 0.7, seed=seed)
            train_ids = {s.subject_id for s in split.train}
            test_ids = {s.subject_id for s in split.test}
            assert not (train_ids & test_ids)
            assert len(train_ids | test_ids) == 16

    def test_small_class_rejected(self):
        with pytest.raises(SplitError):
            D.split_dataset(self._subjects(1, 5), 0.8, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            D.split_dataset(self._subjects(5, 5), 1.0, seed=0)


class TestSynthGenerate:
    def test_same_seed_bit_identical(self):
        spec = D.default_synth_spec(seed=7, subjects_per_class=3, length=32)
        a = D.synth_generate(spec)
        b = D.synth_generate(D.default_synth_spec(seed=7, subjects_per_class=3, length=32))
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_different_seed_differs(self):
        a = D.synth_generate(D.default_synth_spec(seed=1, subjects_per_class=2, length=16))
        b = D.synth_generate(D.default_synth_spec(seed=2, subjects_per_class=2, length=16))
        assert not np.array_equal(a[0].values, b[0].values)

    def test_identity_template_gives_uncorrelated_rois(self):
        spec = D.SynthSpec(n_rois=8, length=512, subjects_per_class=1,
                           class_templates={"ASD": [np.eye(8)], "TC": [np.eye(8)]},
                           switch_rate=0.0, noise_std=0.0, seed=3,
                           allow_identical_classes=True)
        subj = D.synth_generate(spec)[0]
        corr = np.corrcoef(subj.values.T)
        off = np.abs(corr[~np.eye(8, dtype=bool)])
        assert off.mean() < 0.1

    def test_planted_template_recovered_in_sample_correlation(self):
        templates = D.default_class_templates(16, separation=1.0)
        spec = D.SynthSpec(n_rois=16, length=2048, subjects_per_class=1,
                           class_templates={"ASD": [templates["ASD"][0]],
                                            "TC": [templates["TC"][0]]},
                           switch_rate=0.0, noise_std=0.0, seed=5)
        subj = next(s for s in D.synth_generate(spec) if s.label == "ASD")
        corr = np.corrcoef(subj.values.T)
        target = D._project_pd(templates["ASD"][0])
        assert np.max(np.abs(corr - target)) < 0.15

    def test_identical_templates_need_opt_in(self):
        spec = D.null_synth_spec(seed=0, subjects_per_class=2, length=16)
        spec.allow_identical_classes = False
        with pytest.raises(ConfigError):
            D.synth_generate(spec)

    def test_template_validation(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5   # asymmetric
        spec = D.SynthSpec(n_rois=4, length=16, subjects_per_class=1,
                           class_templates={"ASD": [bad], "TC": [np.eye(4)]}, seed=0)
        with pytest.raises(ConfigError, match="symmetric"):
            D.synth_generate(spec)

    def test_non_pd_template_projected(self):
        # rank-1 correlation-like template: projection must make it samplable
        v = np.ones(6)
        g = np.outer(v, v)
        spec = D.SynthSpec(n_rois=6, length=32, subjects_per_class=1,
                           class_templates={"ASD": [g], "TC": [np.eye(6)]}, seed=0)
        out = D.synth_generate(spec)
        assert all(np.all(np.isfinite(s.values)) for s in out)

    def test_switch_rate_zero_single_regime(self):
        templates = D.default_class_templates(16)
        spec = D.SynthSpec(n_rois=16, length=64, subjects_per_class=2,
                           class_templates=templates, switch_rate=0.0, seed=1)
        assert len(D.synth_generate(spec)) == 4

    @pytest.mark.parametrize("key", ["noise_std", "switch_rate"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_rate_must_be_finite_and_non_negative(self, key, value):
        spec = D.default_synth_spec(seed=0, subjects_per_class=1, length=16, **{key: value})
        with pytest.raises(ConfigError, match=key):
            D.synth_generate(spec)

    def test_labels_and_counts(self):
        out = D.synth_generate(D.default_synth_spec(seed=0, subjects_per_class=5, length=32))
        assert sum(1 for s in out if s.label == "ASD") == 5
        assert sum(1 for s in out if s.label == "TC") == 5
        assert len({s.subject_id for s in out}) == 10


class TestPlantedSignalMonotonicity:
    def test_linear_probe_accuracy_never_decreases(self):
        # static-correlation linear probe as the oracle classifier
        def probe_accuracy(separation):
            spec = D.default_synth_spec(seed=11, subjects_per_class=20, length=128,
                                        separation=separation)
            subjects = D.synth_generate(spec)
            split = D.split_dataset(subjects, 0.8, seed=11)
            def feats(subjects_list):
                rows = []
                for s in subjects_list:
                    c = np.corrcoef(D.normalize_zscore(s).values.T)
                    rows.append(c[np.triu_indices_from(c, k=1)])
                return np.array(rows)
            xtr, xte = feats(split.train), feats(split.test)
            ytr = np.array([1.0 if s.label == "ASD" else -1.0 for s in split.train])
            yte = np.array([1.0 if s.label == "ASD" else -1.0 for s in split.test])
            w, *_ = np.linalg.lstsq(
                np.hstack([xtr, np.ones((len(xtr), 1))]), ytr, rcond=None)
            pred = np.sign(np.hstack([xte, np.ones((len(xte), 1))]) @ w)
            return float((pred == yte).mean())
        accs = [probe_accuracy(s) for s in (0.1, 0.5, 0.9)]
        assert accs[0] <= accs[1] + 1e-9 and accs[1] <= accs[2] + 1e-9

    def test_null_signal_probe_near_chance(self):
        spec = D.null_synth_spec(seed=13, subjects_per_class=20, length=128)
        subjects = D.synth_generate(spec)
        labels = [s.label for s in subjects]
        assert set(labels) == {"ASD", "TC"}


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        spec = D.default_synth_spec(seed=2, subjects_per_class=3, length=24)
        subjects = D.synth_generate(spec)
        manifest = D.save_dataset(tmp_path, subjects, spec)
        loaded = D.load_dataset(manifest)
        by_id = {s.subject_id: s for s in loaded}
        for s in subjects:
            match = by_id[s.subject_id]
            assert np.array_equal(match.values, s.values)
            assert match.label == s.label

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"subjects": []}')
        with pytest.raises(ContentError):
            D.load_dataset(path)

    def test_mixed_roi_counts_rejected(self, tmp_path):
        subjects = [s for n_rois in (16, 8, 16) for s in D.synth_generate(
            D.default_synth_spec(seed=n_rois, n_rois=n_rois, subjects_per_class=1, length=24))]
        for i, s in enumerate(subjects):
            s.subject_id = f"s{i}"
        manifest = D.save_dataset(tmp_path, subjects)
        with pytest.raises(ContentError, match="subject s2 has 8 ROIs, but s0 has 16"):
            D.load_dataset(manifest)

    @pytest.mark.parametrize("text", [
        '[{"subject_id": "s0", "path": "s0.csv"}]',       # top level is a list
        '{"subjects": {"subject_id": "s0", "path": "s0.csv"}}',
        '{"subjects": [{"subject_id": "s0"}]}',           # no path
        '{"subjects": [{"path": "s0.csv"}]}',             # no subject_id
        '{"subjects": [{"subject_id": "s0", "path": 3}]}',
        '{"subjects": ["s0.csv"]}',
    ])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="manifest.json"):
            D.load_dataset(path)

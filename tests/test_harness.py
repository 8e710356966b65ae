"""Instance generation, experiment runner, CSV ingestion and emission."""

import hashlib
import math

import numpy as np
import pytest

from spcarec.errors import MatrixParseError
from spcarec.graph import ObservationGraph, adjacency, random_graph
from spcarec.harness import (
    DEFAULT_MAX_TRIES,
    PITPROPS_SUPPORT_NAMES,
    PITPROPS_VARIABLES,
    ExperimentRow,
    emit_csv,
    gen_instance,
    load_matrix_csv,
    parse_rows_csv,
    pitprops_experiment,
    run_bucket_experiment,
    write_mask_csv,
    write_matrix_csv,
    _read_rows,
    _rep_task,
    _sdp_recoveries,
    _Spec,
)
from spcarec.numerics import SymMatrix, eigh

from helpers import _complete_with_loops


class TestGenInstance:
    def test_gap_exact(self):
        g = random_graph(12, 100, 1)
        inst = gen_instance(12, 3, 4.0, 0.0, g, 2)
        vals = np.linalg.eigvalsh(inst.m_star.a)
        assert vals[-1] - vals[-2] == pytest.approx(4.0, abs=1e-10)

    def test_noiseless_complete_observation(self):
        g = _complete_with_loops(8)
        inst = gen_instance(8, 2, 3.0, 0.0, g, 3)
        np.testing.assert_array_equal(inst.m.a, inst.m_star.a)

    def test_min_entry_of_leading_eigenvector(self):
        g = random_graph(10, 70, 4)
        inst = gen_instance(10, 4, 5.0, 0.0, g, 5)
        u1 = eigh(inst.m_star).vectors[:, 0]
        idx = sorted(inst.support)
        assert np.abs(u1[idx]).min() == pytest.approx(1 / math.sqrt(4), abs=1e-12)
        off = [i for i in range(10) if i not in inst.support]
        assert np.abs(u1[off]).max(initial=0.0) <= 1e-12

    def test_noise_symmetric_and_masked(self):
        g = random_graph(9, 40, 6)
        inst = gen_instance(9, 3, 4.0, 0.7, g, 7)
        assert np.array_equal(inst.m.a, inst.m.a.T)
        unobserved = adjacency(g).a == 0
        assert np.abs(inst.m.a[unobserved]).max(initial=0.0) == 0.0

    def test_fixed_support_honored(self):
        g = random_graph(8, 40, 8)
        inst = gen_instance(8, 3, 4.0, 0.0, g, 9, support=[0, 2, 5])
        assert inst.support == {0, 2, 5}

    def test_deterministic(self):
        g = random_graph(8, 40, 10)
        a = gen_instance(8, 3, 4.0, 0.5, g, 11)
        b = gen_instance(8, 3, 4.0, 0.5, g, 11)
        assert np.array_equal(a.m.a, b.m.a)
        assert a.support == b.support

    def test_validation(self):
        g = random_graph(5, 10, 0)
        with pytest.raises(ValueError):
            gen_instance(5, 0, 1.0, 0.0, g, 0)
        with pytest.raises(ValueError):
            gen_instance(5, 2, 0.0, 0.0, g, 0)
        with pytest.raises(ValueError):
            gen_instance(6, 2, 1.0, 0.0, g, 0)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        # NaN used to fail the `sigma > 0` noise test and return the
        # noiseless instance with sigma=nan recorded
        g = random_graph(5, 10, 0)
        message = "^sigma must be a nonnegative finite real$"
        with pytest.raises(ValueError, match=message):
            gen_instance(5, 2, 1.0, sigma, g, 0)


class TestRunBucketExperiment:
    def test_single_rep_reproducible(self):
        kwargs = dict(
            d=14, s=3, gap=8.0, sigma=0.0, budget=120,
            buckets=[(0.0, 4.0)], reps=1, rho_grid=(0.1, 0.3), a=0.5, rng_seed=5,
        )
        rows1 = run_bucket_experiment(**kwargs)
        rows2 = run_bucket_experiment(**kwargs)
        assert rows1 == rows2
        assert rows1[0].exact_recovery_rate in (0.0, 1.0)
        assert not rows1[0].skipped

    def test_skipped_follows_rate(self):
        row = ExperimentRow(0.0, 1.0, 5.0, 0.0, 2, math.nan, math.nan)
        assert row.skipped
        assert not ExperimentRow(0.0, 1.0, 5.0, 0.0, 2, 0.5, 1.0).skipped
        with pytest.raises(TypeError):
            ExperimentRow(0.0, 1.0, 5.0, 0.0, 2, 0.5, 1.0, skipped=True)

    def test_impossible_bucket_marks_skipped(self):
        rows = run_bucket_experiment(
            d=10, s=3, gap=5.0, sigma=0.0, budget=60,
            buckets=[(-5.0, -1.0)], reps=2, rho_grid=(0.1,), a=0.5, rng_seed=6,
            max_tries=10,
        )
        assert rows[0].skipped
        assert math.isnan(rows[0].exact_recovery_rate)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"s": 7}, "need 1 <= s <= d"),
            ({"gap": -1.0}, "spectral gap must be positive"),
            ({"sigma": -1.0}, "sigma must be a nonnegative finite real"),
            ({"sigma": math.nan}, "sigma must be a nonnegative finite real"),
            ({"a": 1.5}, "weight a must lie strictly between 0 and 1"),
            ({"rho_grid": (-1.0,)}, "grid values must be nonnegative finite reals"),
        ],
        ids=["s", "gap", "sigma-negative", "sigma-nan", "a", "grid"],
    )
    def test_bad_input_rejected_before_sampling(self, bad, message):
        # the bucket is unreachable, so an input checked only after a graph
        # draw would end in a skipped row instead of the error
        kwargs = dict(
            d=6, s=2, gap=2.0, sigma=0.0, budget=20, buckets=[(-5.0, 0.0)],
            reps=1, max_tries=3,
        )
        with pytest.raises(ValueError, match=message):
            run_bucket_experiment(**{**kwargs, **bad})

    def test_csv_bytes_pinned(self, tmp_path):
        # SHA-256 of the emitted CSV, recorded before the experiment
        # plumbing was rebuilt around one spec object
        rows = run_bucket_experiment(
            d=12, s=3, gap=8.0, sigma=0.1, budget=90,
            buckets=[(0.0, 2.0), (2.0, 6.0)], reps=2,
            rho_grid=(0.1, 0.3, 0.6), a=0.5, rng_seed=3,
        )
        assert _csv_sha256(rows, tmp_path) == (
            "46c45d2597ba766f117de27aaad85e7c0092c5ed91e8c03ed62247279f23953d"
        )

    def test_repetitions_share_no_state(self, tmp_path):
        # every (bucket, rep) result must not depend on which repetitions
        # ran before it, and a second run must give the same bytes
        kwargs = dict(
            d=12, s=4, gap=8.0, sigma=0.1, budget=100,
            buckets=[(0.0, 2.0), (2.0, 5.0)], reps=4,
            rho_grid=(0.1, 0.3, 0.6), a=0.5, rng_seed=7,
        )
        spec = _Spec(
            d=12, s=4, gap=8.0, sigma=0.1, budget=100, reps=4, rng_seed=7,
            max_tries=DEFAULT_MAX_TRIES, score=_sdp_recoveries,
            rho_grid=(0.1, 0.3, 0.6), a=0.5,
        )
        keys = [(b, bucket, rep) for b, bucket in enumerate(kwargs["buckets"])
                for rep in range(4)]
        shuffled = [keys[i] for i in np.random.default_rng(0).permutation(len(keys))]
        runs = [
            {key: _rep_task(spec, *key) for key in order}
            for order in (keys, keys[::-1], shuffled)
        ]
        assert runs[0] == runs[1] == runs[2]
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        emit_csv(run_bucket_experiment(**kwargs), p1)
        emit_csv(run_bucket_experiment(**kwargs), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _csv_sha256(rows, tmp_path):
    p = tmp_path / "pinned.csv"
    emit_csv(rows, p)
    return hashlib.sha256(p.read_bytes()).hexdigest()


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadMatrixCsv:
    def test_complete_two_by_two(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,0.5\n0.5,2\n")
        m, g = load_matrix_csv(p)
        np.testing.assert_allclose(m.a, [[1.0, 0.5], [0.5, 2.0]])
        assert g == _complete_with_loops(2)

    def test_na_pattern(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,NA\nNA,2\n")
        m, g = load_matrix_csv(p)
        np.testing.assert_allclose(m.a, [[1.0, 0.0], [0.0, 2.0]])
        assert g == ObservationGraph(2, [(0, 0), (1, 1)])

    def test_ragged_rejected(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(MatrixParseError, match="row 1"):
            load_matrix_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        # a fully non-numeric first row would be taken as a header, so the
        # offending token sits in a later row
        p = _write(tmp_path, "m.csv", "1,0.5\n0.5,x\n")
        with pytest.raises(MatrixParseError, match="row 1, column 1"):
            load_matrix_csv(p)

    def test_asymmetric_values_rejected(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,0.5\n0.7,2\n")
        with pytest.raises(
            MatrixParseError,
            match=r"^values are asymmetric at \(0, 1\): \|difference\| = 0\.2$",
        ):
            load_matrix_csv(p)

    def test_asymmetric_pattern_rejected(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,NA\n0.5,2\n")
        with pytest.raises(
            MatrixParseError, match=r"^observation pattern is asymmetric at \(0, 1\)$"
        ):
            load_matrix_csv(p)

    def test_mask_file_variant(self, tmp_path):
        mp = _write(tmp_path, "m.csv", "1,0.5\n0.5,2\n")
        kp = _write(tmp_path, "k.csv", "1,0\n0,1\n")
        m, g = load_matrix_csv(mp, kp)
        np.testing.assert_allclose(m.a, [[1.0, 0.0], [0.0, 2.0]])
        assert g == ObservationGraph(2, [(0, 0), (1, 1)])

    def test_mask_dimension_mismatch_rejected(self, tmp_path):
        mp = _write(tmp_path, "m.csv", "1,0.5\n0.5,2\n")
        kp = _write(tmp_path, "k.csv", "1,0,0\n0,1,0\n0,0,1\n")
        with pytest.raises(MatrixParseError, match="mask dimension does not match"):
            load_matrix_csv(mp, kp)

    def test_ragged_mask_row_rejected(self, tmp_path):
        mp = _write(tmp_path, "m.csv", "1,0.5\n0.5,2\n")
        kp = _write(tmp_path, "k.csv", "1,0\n1\n")
        with pytest.raises(
            MatrixParseError, match="mask row 1: expected 2 columns, found 1"
        ):
            load_matrix_csv(mp, kp)

    @pytest.mark.parametrize("entry", ["2", "NA", "-1", "0.5", "nan"])
    def test_mask_entry_not_zero_or_one_rejected(self, tmp_path, entry):
        mp = _write(tmp_path, "m.csv", "1,0.5\n0.5,2\n")
        kp = _write(tmp_path, "k.csv", f"1,0\n0,{entry}\n")
        with pytest.raises(
            MatrixParseError, match=r"mask row 1, column 1: entries must be 0 or 1"
        ):
            load_matrix_csv(mp, kp)

    def test_mask_observing_na_cell_rejected(self, tmp_path):
        mp = _write(tmp_path, "m.csv", "1,NA\nNA,2\n")
        kp = _write(tmp_path, "k.csv", "1,1\n1,1\n")
        with pytest.raises(
            MatrixParseError,
            match=r"mask marks \(0, 1\) observed but the matrix file has NA there",
        ):
            load_matrix_csv(mp, kp)

    @pytest.mark.parametrize(
        "first, names",
        [
            ("a,b", ["a", "b"]),
            (" a ,1", ["a", "1"]),
            ("NA,NA", None),
            (" 1 ,NA", None),
            ("1e0,nan", None),
        ],
    )
    def test_header_detection(self, tmp_path, first, names):
        # a first row is a header unless every cell parses as a number or NA
        p = _write(tmp_path, "m.csv", f"{first}\n1,2\n")
        raw, got = _read_rows(p)
        assert got == names
        assert len(raw) == (1 if names else 2)

    def test_header_row_accepted(self, tmp_path):
        p = _write(tmp_path, "m.csv", "a,b\n1,0.5\n0.5,2\n")
        m, g = load_matrix_csv(p)
        assert m.dim == 2

    def test_roundtrip_with_writer(self, tmp_path):
        g = random_graph(5, 15, 3)
        inst = gen_instance(5, 2, 3.0, 0.2, g, 4)
        p = tmp_path / "inst.csv"
        write_matrix_csv(p, inst.m, graph=g)
        m, g2 = load_matrix_csv(p)
        assert g2 == g
        np.testing.assert_allclose(m.a, inst.m.a, atol=1e-15)

    def test_mask_writer_roundtrip(self, tmp_path):
        g = random_graph(6, 20, 9)
        mp = tmp_path / "m.csv"
        kp = tmp_path / "k.csv"
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a + a.T)
        write_matrix_csv(mp, m)
        write_mask_csv(kp, g)
        _, g2 = load_matrix_csv(mp, kp)
        assert g2 == g


class TestEmitCsv:
    def test_empty(self, tmp_path):
        p = tmp_path / "rows.csv"
        emit_csv([], p)
        assert p.read_text().strip() == "bucket_lo,bucket_hi,gap,sigma,reps,rate,mean_rescaled"

    def test_single_row(self, tmp_path):
        p = tmp_path / "rows.csv"
        row = ExperimentRow(0.0, 2.0, 10.0, 0.1, 20, 0.85, 123.456789)
        emit_csv([row], p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,2,10,0.1,20,0.85,123.457"

    def test_roundtrip(self, tmp_path):
        rows = [
            ExperimentRow(2.0, 4.0, 1.0, 0.0, 5, 0.6, 55.5),
            ExperimentRow(0.0, 2.0, 1.0, 0.0, 5, 1.0, 22.25),
        ]
        p = tmp_path / "rows.csv"
        emit_csv(rows, p)
        back = parse_rows_csv(p)
        # emitted sorted by bucket_lo
        assert [r.bucket_lo for r in back] == [0.0, 2.0]
        assert back[0].exact_recovery_rate == 1.0
        assert back[1].mean_rescaled == 55.5

    def test_parse_empty_file_rejected(self, tmp_path):
        p = _write(tmp_path, "rows.csv", "")
        with pytest.raises(MatrixParseError, match="^file is empty$"):
            parse_rows_csv(p)


def _synthetic_pitprops(tmp_path, header=True):
    """13x13 covariance with leading eigenvector on the classical 6 variables."""
    rng = np.random.default_rng(123)
    d = 13
    support = [PITPROPS_VARIABLES.index(v) for v in PITPROPS_SUPPORT_NAMES]
    u = np.zeros(d)
    u[support] = 1.0 / math.sqrt(len(support))
    basis = np.column_stack([u, rng.standard_normal((d, d - 1))])
    q, _ = np.linalg.qr(basis)
    q[:, 0] = u
    rest = np.sort(0.25 * rng.standard_normal(d - 1))[::-1]
    lams = np.concatenate([[rest[0] + 2.0], rest])
    m = SymMatrix((q * lams) @ q.T)
    path = tmp_path / "pitprops.csv"
    write_matrix_csv(path, m, names=PITPROPS_VARIABLES if header else None)
    return path


class TestPitpropsExperiment:
    def test_runs_with_named_header(self, tmp_path):
        path = _synthetic_pitprops(tmp_path)
        rows = pitprops_experiment(
            path, budget=100, buckets=[(0.0, 5.0)], sigma=0.05, reps=2,
            rho_grid=(0.1, 0.3), a=0.4, rng_seed=1,
        )
        assert len(rows) == 1
        assert not rows[0].skipped
        assert 0.0 <= rows[0].exact_recovery_rate <= 1.0

    def test_shuffled_header_located_by_name(self, tmp_path):
        # permute columns; the loader must find the support by variable name
        rng = np.random.default_rng(5)
        src = _synthetic_pitprops(tmp_path)
        m, _ = load_matrix_csv(src)
        perm = rng.permutation(13)
        names = [PITPROPS_VARIABLES[i] for i in perm]
        path = tmp_path / "shuffled.csv"
        write_matrix_csv(path, SymMatrix(m.a[np.ix_(perm, perm)]), names=names)
        rows = pitprops_experiment(
            path, budget=100, buckets=[(0.0, 5.0)], sigma=0.05, reps=2,
            rho_grid=(0.1, 0.3), a=0.4, rng_seed=1,
        )
        assert not rows[0].skipped

    def test_baseline_methods_run(self, tmp_path):
        # SHA-256 of the emitted CSV per method, recorded before the
        # experiment plumbing was rebuilt around one spec object
        pinned = {
            "sdp": "1630056c901b12321d6d37a68d04634ae33d262d5651bca76c9ce95754147331",
            "mc_sdp": "d8143a5c70a992895bd7dc044cc6a129e117abab73d6583e269b0015c43a2a25",
            "dtspca": "44c20043724dbaa946bab2ff315393924607a7b6d996bb23b09ab9ccc78d5a96",
            "itspca": "d8143a5c70a992895bd7dc044cc6a129e117abab73d6583e269b0015c43a2a25",
        }
        path = _synthetic_pitprops(tmp_path)
        for method, digest in pinned.items():
            rows = pitprops_experiment(
                path, budget=100, buckets=[(0.0, 5.0)], sigma=0.05, reps=2,
                rho_grid=(0.1, 0.3), a=0.4, rng_seed=2, method=method,
            )
            assert 0.0 <= rows[0].exact_recovery_rate <= 1.0
            assert _csv_sha256(rows, tmp_path) == digest, method

    def test_unknown_method_rejected_before_sampling(self, tmp_path):
        # the bucket is unreachable, so any graph draw would end in a
        # skipped row instead of the error
        path = _synthetic_pitprops(tmp_path)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            pitprops_experiment(
                path, budget=100, buckets=[(-5.0, 0.0)], reps=1, max_tries=3,
                method="bogus",
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"sigma": -1.0}, "sigma must be a nonnegative finite real"),
            ({"a": 1.5}, "weight a must lie strictly between 0 and 1"),
            ({"rho_grid": (-1.0,)}, "grid values must be nonnegative finite reals"),
        ],
        ids=["sigma", "a", "grid"],
    )
    def test_bad_input_rejected_before_sampling(self, tmp_path, bad, message):
        path = _synthetic_pitprops(tmp_path)
        with pytest.raises(ValueError, match=message):
            pitprops_experiment(
                path, budget=100, buckets=[(-5.0, 0.0)], reps=1, max_tries=3, **bad
            )

    def test_incomplete_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [",".join(PITPROPS_VARIABLES)]
        row = ["1.0"] * 13
        bad = row.copy()
        bad[1] = "NA"
        lines.append(",".join(bad))
        for i in range(1, 13):
            r = ["0.0"] * 13
            r[i] = "1.0"
            if i == 1:
                r[0] = "NA"
            lines.append(",".join(r))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MatrixParseError):
            pitprops_experiment(path, budget=100, buckets=[(0.0, 5.0)], reps=1)

    def test_wrong_dimension_rejected(self, tmp_path):
        p = _write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(MatrixParseError, match="13"):
            pitprops_experiment(p, budget=4, buckets=[(0.0, 5.0)], reps=1)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth import pipeline
from gatedepth.errors import DataFormatError, DegenerateSampleError
from gatedepth.pipeline import (
    CONTRAST_FLOOR,
    SATURATION_LIMIT,
    VARIANTS,
    RawDataset,
    Sample,
    build_dataset,
    load_samples,
    prefilter,
    prefilter_counts,
    save_samples,
    screen_triples,
    split,
    standardize_batch,
    standardized_arrays,
    variant,
)


def ds(rows):
    """A dataset from (s1, s2, s3, r) rows, each checked by the ``Sample`` rule."""
    samples = [Sample(*row) for row in rows]
    return RawDataset([s.triple for s in samples], [s.r for s in samples])


class TestLoadSave:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        original = ds([(10, 100, 30, 12.5), (0, 50, 200, 80.0), (250, 6, 0, 33.25)])
        save_samples(original, path)
        loaded = load_samples(path)
        assert loaded == original

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_samples(path)

    def test_out_of_range_value_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s1,s2,s3,r\n10,20,30,5.0\n300,20,30,5.0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_samples(path)

    @pytest.mark.parametrize("bad_row, message", [
        ("10,256,30,5.0", "s2=256 outside the 8-bit range"),
        ("-1,20,30,5.0", "s1=-1 outside the 8-bit range"),
        ("10,20,99999999999999999999,5.0", "s3=99999999999999999999 outside the 8-bit range"),
        ("10,20,30,nan", "range must be positive and finite, got nan"),
        ("10,20,30,inf", "range must be positive and finite, got inf"),
        ("10,20,30,0", "range must be positive and finite, got 0.0"),
        ("10,20,30,-3.5", "range must be positive and finite, got -3.5"),
    ])
    @pytest.mark.parametrize("blank_before", [False, True])
    def test_bad_value_names_its_line(self, tmp_path, bad_row, message, blank_before):
        path = tmp_path / "bad.csv"
        gap = "\n" if blank_before else ""
        path.write_text(f"s1,s2,s3,r\n10,20,30,5.0\n{gap}{bad_row}\n40,50,60,7.0\n{bad_row}\n")
        line = 4 if blank_before else 3
        with pytest.raises(DataFormatError, match=f":{line}: {message}"):
            load_samples(path)

    def test_non_numeric_field_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s1,s2,s3,r\n10,twenty,30,5.0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_samples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_samples(path)
        path.write_text("s1,s2,s3,r\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_samples(tmp_path / "nope.csv")


def _outcome(load, path):
    """A loader's result as bytes, or its error message."""
    try:
        data = load(path)
    except DataFormatError as exc:
        return str(exc)
    return (data.triples.dtype.str, data.triples.shape, data.triples.tobytes(),
            data.r.dtype.str, data.r.tobytes())


_gray_text = st.integers(0, 255).map(str)
_range_text = st.floats(min_value=5e-324, allow_infinity=False).map(repr)
_rows_text = st.lists(st.tuples(_gray_text, _gray_text, _gray_text, _range_text).map(list),
                      max_size=8)
# Odd spellings. The plain ones hold only digits, signs, points and exponents,
# the bytes the one-pass parser takes; ``int``, ``float`` or the range check
# reject most of them. Of the others, np.loadtxt reads 10\x1c as 10.
_PLAIN_INTS = ["+7", "-0", "007", "000", "256", "-1", "1.0", "1e2", "+-1", "-", "",
               "99999999999999999999", "9223372036854775808", "0" * 5000 + "1", "0" * 4299 + "1"]
_OTHER_INTS = [" 12", "12 ", "\t9", "1_0", "\u0663", '"12"', "10\x1c", "x"]
_PLAIN_RANGES = ["1e400", "0", "-0.0", "1e-400", "-3", "1e", ".", "e5", "", "+.5e1", "5.", "1E5"]
_OTHER_RANGES = ["nan", "inf", "-inf", " 2.5", "1_0.5", "\u0663", '"2.5"', "2.5\x1c", "Infinity"]
_PLAIN_LINES = ["", "1,2,3", "1,2,3,4.0,5", "10,20,30,4.0,", ",,,"]
_OTHER_LINES = ["   ", "#10,20,30,4.0", '"10,20",30,4.0', "10;20;30;4.0"]
_HEADERS = [" s1 , s2,s3,r ", "s1,s2,s3,r,", '"s1",s2,s3,r', "s1,s2,s3", "a,b,c,d", "\x1cs1,s2,s3,r"]


@st.composite
def _sample_files(draw):
    """Sample-file bytes: valid rows with up to three edits that put an odd
    field, line or header in, any line break, and, unless the file keeps to
    the one-pass bytes, maybe a byte that is not UTF-8."""
    plain = draw(st.booleans())
    ints, ranges, lines = _PLAIN_INTS, _PLAIN_RANGES, _PLAIN_LINES
    if not plain:
        ints, ranges, lines = ints + _OTHER_INTS, ranges + _OTHER_RANGES, lines + _OTHER_LINES
    rows = draw(_rows_text)
    text = [",".join(row) for row in rows]
    header = "s1,s2,s3,r"
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field", "field", "line", "header"]))
        if kind == "header":
            header = draw(st.sampled_from(_HEADERS))
        elif kind == "line" or not rows:
            text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(lines)))
        else:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, 3))
            rows[i][j] = draw(st.sampled_from(ranges if j == 3 else ints))
            text = [",".join(row) for row in rows]
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    raw = (end.join([header, *text]) + draw(st.sampled_from([end, ""]))).encode("utf-8")
    if not plain and draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + raw[at:]
    return raw


class TestOnePassLoad:
    """``load_samples`` parses plain files in one C pass; it must accept the
    same files, give the same values and raise the same errors as the
    per-row reader."""

    @staticmethod
    def assert_same_outcome(path, raw):
        path.write_bytes(raw)
        assert _outcome(load_samples, path) == _outcome(pipeline._load_samples_per_row, path), raw

    @given(_sample_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_reader(self, tmp_path_factory, raw):
        self.assert_same_outcome(tmp_path_factory.getbasetemp() / "property.csv", raw)

    @given(_rows_text.filter(bool), st.sampled_from(["\n", "\r\n"]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_each_odd_spelling_matches_the_per_row_reader(self, tmp_path_factory, rows, end,
                                                          data):
        path = tmp_path_factory.getbasetemp() / "spelling.csv"
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, 2), label="gray column")
        text = [",".join(row) for row in rows]

        def check(header, lines):
            self.assert_same_outcome(path, (end.join([header, *lines]) + end).encode("utf-8"))

        for col, fields in ((j, _PLAIN_INTS + _OTHER_INTS), (3, _PLAIN_RANGES + _OTHER_RANGES)):
            for field in fields:
                row = [*rows[i][:col], field, *rows[i][col + 1:]]
                check("s1,s2,s3,r", [*text[:i], ",".join(row), *text[i + 1:]])
        for line in _PLAIN_LINES + _OTHER_LINES:
            check("s1,s2,s3,r", [*text[:i], line, *text[i:]])
        for header in _HEADERS:
            check(header, text)

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
                              st.floats(min_value=5e-324, allow_infinity=False)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_saved_samples_load_bit_for_bit_in_one_pass(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        original = ds(rows)
        save_samples(original, path)
        assert pipeline._plain_body_start(path.read_bytes()) is not None
        loaded = load_samples(path)
        assert loaded.triples.tobytes() == original.triples.tobytes()
        assert loaded.r.tobytes() == original.r.tobytes()
        assert loaded.triples.flags.c_contiguous and loaded.r.flags.c_contiguous

    @pytest.mark.parametrize("field", ["10\x1c", "0" * 5000 + "10"], ids=["x1c", "5002_digits"])
    def test_a_field_numpy_would_read_is_still_rejected(self, tmp_path, field):
        # np.loadtxt reads both as 10; int() rejects a trailing \x1c and more
        # than 4300 digits
        path = tmp_path / "odd.csv"
        path.write_text(f"s1,s2,s3,r\n10,20,30,5.0\n{field},20,30,5.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":3: non-numeric field"):
            load_samples(path)

    @pytest.mark.parametrize("field", ["1_0", "\u0661\u0660", '"10"', " 10 ", "+10", "010"])
    def test_a_spelling_int_accepts_loads_as_before(self, tmp_path, field):
        path = tmp_path / "odd.csv"
        path.write_text(f"s1,s2,s3,r\n{field},20,30,5.0\n", encoding="utf-8")
        assert load_samples(path) == ds([(10, 20, 30, 5.0)])


class TestPrefilter:
    def test_saturated_removed(self):
        assert len(prefilter(ds([(251, 40, 10, 5.0)]))) == 0

    def test_low_contrast_removed(self):
        assert len(prefilter(ds([(100, 102, 104, 5.0)]))) == 0

    def test_normal_sample_kept(self):
        assert len(prefilter(ds([(10, 100, 30, 5.0)]))) == 1

    def test_boundaries_kept(self):
        # exactly 250 is not saturated; spread of exactly 6 is enough contrast
        kept = prefilter(ds([(250, 30, 10, 5.0), (100, 106, 104, 5.0)]))
        assert len(kept) == 2

    def test_counts(self):
        data = ds([(251, 40, 10, 5.0), (100, 102, 104, 5.0), (10, 100, 30, 5.0)])
        assert prefilter_counts(data) == (1, 1, 1)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
                st.floats(0.1, 200.0),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_order_preserving(self, rows):
        data = ds(rows)
        once = prefilter(data)
        twice = prefilter(once)
        assert once == twice
        # kept samples appear in their original order (subsequence check)
        it = iter(data)
        assert all(any(s == t for t in it) for s in once)


class TestVariants:
    def triple_group(self, triple, ranges):
        return [(*triple, r) for r in ranges]

    def test_dataset1_drops_outlier_and_collapses(self):
        data = ds(self.triple_group((10, 60, 7), [30.0, 30.4, 30.6, 32.0]))
        out = build_dataset(data, variant("dataset1"))
        # mean 30.75; only 32.0 deviates by more than 1 m; three survivors
        # remain, so one sample at the recomputed mean is emitted
        assert len(out) == 1
        assert next(iter(out)).triple == (10, 60, 7)
        assert out.r[0] == pytest.approx(30.333333333333332)

    def test_deviation_cut_uses_the_initial_mean_once(self):
        # a far outlier drags the initial mean so every sample deviates by
        # more than 1 m and the whole group dies; no re-iteration happens
        data = ds(self.triple_group((10, 60, 7), [30.0, 30.4, 30.6, 45.0]))
        out = build_dataset(data, variant("dataset1"))
        assert len(out) == 0

    def test_boundary_deviation_kept(self):
        data = ds(self.triple_group((10, 60, 7), [29.0, 30.0, 31.0]))
        out = build_dataset(data, variant("dataset1"))
        # deviations are exactly 1.0 m, which is not "more than 1 m"
        assert len(out) == 1
        assert out.r[0] == pytest.approx(30.0)

    def test_small_groups_dropped(self):
        data = ds(self.triple_group((10, 60, 7), [30.0, 30.4]))
        assert len(build_dataset(data, variant("dataset1"))) == 0

    def test_dataset2_keeps_survivors(self):
        data = ds(self.triple_group((10, 60, 7), [30.0, 30.4, 30.6, 32.0]))
        out = build_dataset(data, variant("dataset2"))
        assert out.r.tolist() == [30.0, 30.4, 30.6]

    def test_dataset3_softens_far_groups(self):
        far = self.triple_group((5, 20, 80), [65.0, 66.5])       # kept: 2 m rule, no minimum
        near = self.triple_group((10, 60, 7), [58.0, 59.5])      # dropped: fewer than 3
        out = build_dataset(ds(far + near), variant("dataset3"))
        assert len(out) == 1
        assert out.r[0] == pytest.approx(65.75)

    def test_dataset3_matches_dataset1_below_cutoff(self):
        rng = np.random.default_rng(3)
        samples = []
        for k in range(40):
            triple = (int(rng.integers(0, 200)), int(rng.integers(0, 200)), int(rng.integers(0, 200)))
            base = float(rng.uniform(5.0, 55.0))  # group means stay below 60 m
            for _ in range(int(rng.integers(1, 6))):
                samples.append((*triple, base + float(rng.uniform(-1.5, 1.5))))
        data = ds(samples)
        out1 = build_dataset(data, variant("dataset1"))
        out3 = build_dataset(data, variant("dataset3"))
        assert out1 == out3

    def test_dataset4_is_verbatim(self):
        data = ds([(10, 60, 7, 30.0), (5, 20, 80, 65.0), (10, 60, 7, 31.0)])
        out = build_dataset(data, variant("dataset4"))
        assert out == data

    def test_dataset1_emits_at_most_one_sample_per_triple(self):
        rng = np.random.default_rng(11)
        samples = []
        for _ in range(300):
            triple = (int(rng.integers(0, 30)), int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            samples.append((*triple, float(rng.uniform(10.0, 90.0))))
        out = build_dataset(ds(samples), variant("dataset1"))
        triples = [s.triple for s in out]
        assert len(triples) == len(set(triples))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant("dataset9")


_screen_values = st.one_of(st.integers(0, 255), st.floats(-20.0, 300.0),
                          st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 250.0, 251.0]))


class TestScreen:
    @given(st.integers(1, 5).flatmap(
        lambda k: st.lists(st.lists(_screen_values, min_size=k, max_size=k), min_size=1, max_size=30)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_reduction_rule(self, rows):
        values = np.array(rows, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            mx, spread = values.max(axis=1), values.max(axis=1) - values.min(axis=1)
        saturated = mx > SATURATION_LIMIT
        low = ~saturated & (spread < CONTRAST_FLOOR)
        usable = np.isfinite(values).all(axis=1) & ~saturated & ~low
        for got, want in zip(screen_triples(values), (saturated, low, usable)):
            assert got.tolist() == want.tolist()


class TestStandardize:
    def test_symmetric_triple(self):
        x, r = standardized_arrays(ds([(10, 20, 30, 5.0)]))
        np.testing.assert_allclose(x[0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert r[0] == 5.0

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateSampleError):
            standardized_arrays(ds([(10, 10, 10, 5.0)]))
        with pytest.raises(DegenerateSampleError):
            standardize_batch(np.array([[10.0, 10.0, 10.0]]))

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    @settings(max_examples=200, deadline=None)
    def test_zero_mean_unit_std(self, triple):
        if max(triple) == min(triple):
            return
        x = standardize_batch(np.array([triple]))[0]
        assert abs(x.mean()) < 1e-9
        assert abs(x.std(ddof=1) - 1.0) < 1e-9

    @given(
        st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100)),
        st.floats(0.25, 2.0),
        st.floats(0.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, triple, scale, shift):
        if max(triple) == min(triple):
            return
        base = standardize_batch(np.array([triple], dtype=float))
        moved = standardize_batch(np.array([triple], dtype=float) * scale + shift)
        np.testing.assert_allclose(moved, base, atol=1e-9)

    @given(st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=1, max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_shift_gives_identical_bits(self, triples, data):
        base = np.array(triples)
        shift = np.array([data.draw(st.integers(-min(row), 255 - max(row))) for row in triples])
        varied = base.max(axis=1) > base.min(axis=1)
        z = standardize_batch(base[varied])
        moved = standardize_batch((base + shift[:, None])[varied])
        assert moved.tobytes() == z.tobytes()
        assert np.array_equal(z, standardize_batch(base[varied] - base[varied][:, 2:]))

    def test_matches_the_mean_and_std_formula(self):
        rng = np.random.default_rng(4)
        triples = np.vstack([rng.integers(0, 256, (5000, 3)), rng.uniform(-50, 300, (5000, 3))])
        triples = triples[triples.max(axis=1) > triples.min(axis=1)]
        mu, sigma = triples.mean(axis=1, keepdims=True), triples.std(axis=1, ddof=1, keepdims=True)
        np.testing.assert_allclose(standardize_batch(triples), (triples - mu) / sigma,
                                   rtol=0, atol=1e-12)


class TestSplit:
    def test_fraction(self):
        data = ds([(10, 100, 30, float(i + 1)) for i in range(100)])
        train, val = split(data, 0.8, seed=3)
        assert (len(train), len(val)) == (80, 20)

    def test_partition_and_determinism(self):
        data = ds([(10, 100, 30, float(i + 1)) for i in range(37)])
        a_train, a_val = split(data, 0.6, seed=12)
        b_train, b_val = split(data, 0.6, seed=12)
        assert a_train == b_train and a_val == b_val
        merged = sorted([*a_train, *a_val], key=lambda s: s.r)
        assert merged == sorted(data, key=lambda s: s.r)

    def test_bad_fraction(self):
        data = ds([(10, 100, 30, 1.0)])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(data, bad, seed=0)


# The list-based rules the columnar data path replaced, kept as the reference.
# Rows are (s1, s2, s3, r) tuples.


def reference_prefilter(rows):
    return [row for row in rows
            if max(row[:3]) <= SATURATION_LIMIT and max(row[:3]) - min(row[:3]) >= CONTRAST_FLOOR]


def reference_build(rows, spec):
    if spec.passthrough:
        return list(rows)
    groups = {}
    for *triple, r in rows:
        groups.setdefault(tuple(triple), []).append(r)
    out = []
    for triple in sorted(groups):
        ranges = groups[triple]
        mean0 = sum(ranges) / len(ranges)
        if spec.far_cutoff_m is not None and mean0 > spec.far_cutoff_m:
            deviation, min_count = spec.far_deviation_m, spec.far_min_count
        else:
            deviation, min_count = spec.deviation_m, spec.min_count
        survivors = [r for r in ranges if abs(r - mean0) <= deviation]
        if len(survivors) < min_count:
            continue
        if spec.collapse:
            out.append((*triple, sum(survivors) / len(survivors)))
        else:
            out.extend((*triple, r) for r in sorted(survivors))
    return out


def reference_split(rows, train_fraction, seed):
    perm = np.random.default_rng(seed).permutation(len(rows))
    n_train = int(round(len(perm) * train_fraction))
    return [rows[i] for i in perm[:n_train]], [rows[i] for i in perm[n_train:]]


def as_rows(data):
    return [(s.s1, s.s2, s.s3, s.r) for s in data]


_gray = st.integers(0, 255)


@st.composite
def triple_groups(draw, mean):
    """1-6 ranges scattered up to 2.5 m around a drawn group centre."""
    centre = draw(mean)
    offsets = draw(st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6))
    return [centre + d for d in offsets]


@st.composite
def grouped_rows(draw):
    """Rows in shuffled file order whose groups of repeated triples have 1-6
    members, with group means below and above dataset3's 60 m far cutoff."""
    centres = [st.floats(20.0, 57.5), st.floats(62.5, 100.0)]
    centres += draw(st.lists(st.sampled_from([st.floats(20.0, 100.0), st.floats(57.5, 62.5)]),
                             max_size=8))
    triples = draw(st.lists(st.tuples(_gray, _gray, _gray), min_size=len(centres),
                            max_size=len(centres), unique=True))
    rows = [(*t, r) for t, centre in zip(triples, centres) for r in draw(triple_groups(centre))]
    return draw(st.permutations(rows))


class TestColumnarRulesMatchTheListRules:
    @given(grouped_rows(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_prefilter_variants_and_split(self, rows, fraction, seed):
        pre_rows = reference_prefilter(rows)
        pre = prefilter(ds(rows))
        assert as_rows(pre) == pre_rows
        for spec in VARIANTS.values():
            out_rows = reference_build(pre_rows, spec)
            out = build_dataset(pre, spec)
            assert as_rows(out) == out_rows
            train, val = split(out, fraction, seed)
            assert (as_rows(train), as_rows(val)) == reference_split(out_rows, fraction, seed)

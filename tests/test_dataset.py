import io
import tracemalloc
import warnings

import numpy as np
import pytest

import divshap.dataset as dataset_mod
from divshap.dataset import (
    SQUARE_CHUNK,
    Dataset,
    parse_ucr,
    recode_labels,
    stratified_folds,
    write_ucr,
    znormalize,
)
from divshap.distance import znorm_rows
from divshap.errors import (
    EmptyInputError,
    FoldCountTooLargeError,
    InvalidConfigError,
    NonNumericFieldError,
    RaggedRowError,
    UnknownLabelError,
    ValueRangeError,
)

from conftest import mean_std_znorm_rows


def test_parse_comma():
    d = parse_ucr("1,0.5,0.3\n2,0.1,0.2")
    assert d.m == 2
    assert list(d.classes) == [1, 2]
    assert d.n == 2
    assert np.allclose(d.X, [[0.5, 0.3], [0.1, 0.2]])


def test_parse_whitespace_equivalent():
    assert np.array_equal(parse_ucr("1 0.5 0.3").X, parse_ucr("1,0.5,0.3").X)


def test_parse_ragged_row():
    with pytest.raises(RaggedRowError):
        parse_ucr("1,0.5\n2,0.1,0.2")


def test_parse_rejects_non_numeric():
    with pytest.raises(NonNumericFieldError):
        parse_ucr("1,0.5,abc")
    with pytest.raises(NonNumericFieldError):
        parse_ucr("1,0.5,nan")


@pytest.mark.parametrize(
    "text",
    [
        "1,0.5,0.6,0.7\n2,0.5,,0.6,0.7\n",  # the values after it would shift
        "1,0.5,0.6,0.7\n2,0.5,,0.7\n",  # the field count would read 3
        "1,0.5,0.6\n2,0.5, ,\n",  # blank, before a trailing comma
        "1,0.5,0.6\n2,0.5,0.6,,\n",  # two trailing commas
        "1,0.5,0.6\n,0.5,0.6\n",  # no label
    ],
)
def test_parse_rejects_an_empty_field_and_names_its_line(text):
    with pytest.raises(NonNumericFieldError, match="line 2: empty field"):
        parse_ucr(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\n1,0.5,0.6\n\n2,0.5,abc\n", "line 4: bad field 'abc'"),
        ("# c\n1,0.5,0.6\n\n2,0.5,inf\n", "line 4: non-finite field 'inf'"),
        ("# c\n1,0.5,0.6\n\n2,0.5\n", "line 4: expected 3 fields, found 2"),
    ],
)
def test_parse_names_a_bad_sample_by_its_file_line_as_a_short_row(text, message):
    """Comments and blank lines count as lines, so a message names the line
    an editor shows, whatever is wrong on it."""
    with pytest.raises((NonNumericFieldError, RaggedRowError), match=f"^{message}$"):
        parse_ucr(text)


def test_parse_accepts_one_trailing_comma_per_line():
    d = parse_ucr("1,0.5,0.3,\n2,0.1,0.2,\n")
    assert np.array_equal(d.X, parse_ucr("1,0.5,0.3\n2,0.1,0.2\n").X)
    assert d.y.tolist() == [1, 2]


def test_parse_empty_and_label_only():
    with pytest.raises(EmptyInputError):
        parse_ucr("   \n\n")
    with pytest.raises(EmptyInputError):
        parse_ucr("1\n2")


def test_parse_skips_comments_and_blank_lines():
    d = parse_ucr("# header comment\n1,0.5,0.3\n\n2,0.1,0.2\n")
    assert d.n == 2


def test_integer_labels_keep_their_value():
    d = parse_ucr("-1,0.0,1.0\n1,1.0,0.0")
    assert list(d.classes) == [-1, 1]


def test_text_labels_coded_by_sort_order():
    d = parse_ucr("walk,0.0,1.0\nrun,1.0,0.0\nwalk,0.5,0.5")
    assert list(d.classes) == [0, 1]
    assert d.label_names == {0: "run", 1: "walk"}
    assert list(d.y) == [1, 0, 1]


def test_recode_labels_matches_training_names():
    train = parse_ucr("a,0\nb,0\nc,0")
    test = parse_ucr("c,0\nb,0\nc,0")
    assert list(test.y) == [1, 0, 1]
    recoded = recode_labels(test, train.label_names)
    assert list(recoded.y) == [2, 1, 2]
    assert recoded.label_names == train.label_names
    assert np.array_equal(recoded.X, test.X)


def test_recode_labels_matches_integral_labels_by_value():
    train = parse_ucr("1,0\n2,0")
    assert list(recode_labels(parse_ucr("2.0,0\n1,0"), train.label_names).y) == [2, 1]


def test_recode_labels_rejects_unseen_label():
    with pytest.raises(UnknownLabelError):
        recode_labels(parse_ucr("a,0\nd,0"), parse_ucr("a,0\nb,0").label_names)


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    d = Dataset(X=rng.normal(size=(5, 7)) * 1e3, y=np.array([1, 2, 1, 3, 2]), name="rt")
    buf = io.StringIO()
    write_ucr(d, buf)
    d2 = parse_ucr(buf.getvalue())
    assert np.array_equal(d.X, d2.X)
    assert np.array_equal(d.y, d2.y)


def test_dataset_rejects_values_too_large_to_square():
    """4 m max|x|^2 bounds every square a kernel takes; it must stay finite."""
    edge = np.sqrt(np.finfo(np.float64).max / 16)  # m = 4
    assert Dataset(X=np.array([[edge, -edge, 0.0, 1.0]]), y=[0]).m == 4
    for big in (edge * 1.01, -edge * 1.01):
        with pytest.raises(ValueRangeError):
            Dataset(X=np.array([[big, 0.0, 0.0, 1.0]]), y=[0])
    assert Dataset(X=np.empty((0, 4)), y=np.empty(0)).n == 0


def test_dataset_is_immutable(toy_train):
    with pytest.raises(ValueError):
        toy_train.X[0, 0] = 99.0


def test_znormalize_examples():
    assert np.allclose(znormalize([2, 3]), [-1, 1])
    assert np.array_equal(znormalize([5, 5, 5]), [0, 0, 0])
    z = znormalize([0, 1, 2, 3])
    assert abs(z.mean()) <= 1e-12
    assert abs(z.std() - 1) <= 1e-12


def test_znormalize_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(0, rng.uniform(0.5, 20), size=rng.integers(2, 40))
        z = znormalize(v)
        assert np.allclose(znormalize(z), z, atol=1e-9)
        # the row-wise form, as prepare_series applies it, agrees bit for
        # bit, on a flat row and on offsets far from zero as well
        M = rng.normal(0, rng.uniform(0.5, 20), (5, len(v))) + rng.uniform(-1e4, 1e4, (5, 1))
        M[1] = rng.uniform(-1e4, 1e4)
        assert np.array_equal(znorm_rows(M), np.vstack([znormalize(row) for row in M]))


@pytest.mark.parametrize("L", [1, 2, 5, 8, 9, 17, 64])
def test_znorm_rows_equals_numpy_mean_and_std_bit_for_bit(L):
    """znorm_rows takes the mean once and the std from the centred rows, by
    the steps np.mean and np.std run, so it must equal their form exactly:
    on flat rows, at row scales from 1e-9 to 1e150, on overlapping windows,
    into a column slice of a wider array, and for one-row blocks."""
    rng = np.random.default_rng(L)
    n = 300
    scale = 10.0 ** rng.uniform(-9, 150, (n, 1))
    M = (rng.normal(size=(n, L)) + rng.uniform(-1e3, 1e3, (n, 1))) * scale
    M[::7] = M[::7, :1]  # exactly flat rows
    want = mean_std_znorm_rows(M)
    assert np.array_equal(znorm_rows(M), want)
    assert np.array_equal(znorm_rows(M[:1]), want[:1])
    in_place = M.copy()
    assert znorm_rows(in_place, out=in_place) is in_place
    assert np.array_equal(in_place, want)
    # Windows.of_series writes the windows into the first L columns of its
    # scan matrix and z-normalizes them there
    wide = np.full((n, L + 1), 7.0)
    wide[:, :L] = M
    znorm_rows(wide[:, :L], out=wide[:, :L])
    assert np.array_equal(wide[:, :L], want) and np.all(wide[:, L] == 7.0)
    for s in (1e-9, 1e-8, 1.0, 1e150):
        t = rng.normal(size=L + 80) * s
        t[30:50] = t[30]  # a flat stretch
        w = np.lib.stride_tricks.sliding_window_view(t, L)
        assert np.array_equal(znorm_rows(w), mean_std_znorm_rows(w))


@pytest.mark.parametrize("L", [1, 5, 17])
@pytest.mark.parametrize("chunk_rows", [1, 7, 64])
def test_znorm_rows_in_chunks_equals_numpy_bit_for_bit(monkeypatch, L, chunk_rows):
    """The std is taken SQUARE_CHUNK bytes of rows at a time; each row's
    sum of squares keeps its bits, ragged last chunk included, and in a
    column slice as Windows.of_series passes it."""
    rng = np.random.default_rng(100 + L)
    M = (rng.normal(size=(300, L)) + rng.uniform(-1e3, 1e3, (300, 1))) * 10.0 ** rng.uniform(-9, 150, (300, 1))
    M[::7] = M[::7, :1]
    want = mean_std_znorm_rows(M)
    monkeypatch.setattr(dataset_mod, "SQUARE_CHUNK", 8 * L * chunk_rows)
    assert np.array_equal(znorm_rows(M), want)
    wide = np.full((300, L + 1), 7.0)
    wide[:, :L] = M
    znorm_rows(wide[:, :L], out=wide[:, :L])
    assert np.array_equal(wide[:, :L], want) and np.all(wide[:, L] == 7.0)


def test_znorm_rows_in_place_holds_one_chunk_of_squares():
    W = np.random.default_rng(4).normal(size=(4 * SQUARE_CHUNK // (8 * 50), 50))
    want = mean_std_znorm_rows(W)
    tracemalloc.start()
    try:
        znorm_rows(W, out=W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(W, want)
    # the chunk's squares, plus the row means and stds
    assert peak <= SQUARE_CHUNK + 4 * 8 * len(W), peak


def test_stratified_folds_balanced():
    d = Dataset(X=np.arange(20.0).reshape(10, 2), y=np.array([1] * 5 + [2] * 5))
    folds = stratified_folds(d, 5, seed=7)
    for f in range(5):
        members = d.y[folds == f]
        assert sorted(members) == [1, 2]


def test_stratified_folds_deterministic():
    d = Dataset(X=np.arange(20.0).reshape(10, 2), y=np.array([1] * 5 + [2] * 5))
    a = stratified_folds(d, 5, seed=7)
    b = stratified_folds(d, 5, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stratified_folds(d, 5, seed=8))


def test_stratified_folds_too_many():
    d = Dataset(X=np.arange(20.0).reshape(10, 2), y=np.array([1] * 5 + [2] * 5))
    with pytest.raises(FoldCountTooLargeError):
        stratified_folds(d, 11, seed=0)


@pytest.mark.parametrize("f", [1, 0, -2])
def test_stratified_folds_below_two_rejected(f):
    d = Dataset(X=np.arange(20.0).reshape(10, 2), y=np.array([1] * 5 + [2] * 5))
    with pytest.raises(InvalidConfigError):
        stratified_folds(d, f, seed=0)


def test_stratified_folds_small_class_warns():
    d = Dataset(X=np.arange(12.0).reshape(6, 2), y=np.array([1, 1, 1, 1, 2, 2]))
    with pytest.warns(UserWarning):
        folds = stratified_folds(d, 4, seed=0)
    # class 2's two members land in distinct folds
    assert len(set(folds[4:])) == 2


def test_stratified_folds_partition():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(6, 30))
        d = Dataset(X=rng.normal(size=(n, 3)), y=rng.integers(0, 3, size=n))
        f = int(rng.integers(2, min(6, n + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            folds = stratified_folds(d, f, seed=trial)
        assert folds.shape == (n,)
        assert ((folds >= 0) & (folds < f)).all()
        # per-class counts differ by at most one
        for c in d.classes:
            counts = np.bincount(folds[d.y == c], minlength=f)
            assert counts.max() - counts.min() <= 1

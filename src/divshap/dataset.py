"""Flat-file time-series datasets: parsing, normalization, and fold utilities.

The on-disk format is one labeled series per line: the first field is the
class label, the remaining fields are the samples. parse_ucr reads the text
of such a file and detects from its first data line whether fields are
separated by commas or whitespace. Lines starting with ``#`` are comments.
Every CSV line the package writes comes from csv_line.

FLAT_STD is an absolute bound on a window's standard deviation, not one
relative to the series' spread: a series scaled by 1e-9 reads as flat
everywhere, so all its z-normalized windows are zero.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import (
    EmptyInputError,
    FoldCountTooLargeError,
    LeaveOneOutFoldsWarning,
    NonNumericFieldError,
    RaggedRowError,
    UnknownLabelError,
    ValueRangeError,
    require_int,
)

FLAT_STD = 1e-8

# znorm_rows squares its rows at most this many bytes at a time to take the
# std, so that mining's largest window matrix is not held twice; a smaller
# block, such as one pair check's windows, is one chunk.
SQUARE_CHUNK = 2 * 2**20


@dataclass(frozen=True)
class Dataset:
    """A fixed-length labeled series collection.

    X holds one series per row (n, m); y holds the integer-coded class of
    each row. label_names maps each code back to the label text it was
    parsed from. Instances are immutable after construction and safe to
    share across threads.
    """

    X: np.ndarray
    y: np.ndarray
    label_names: dict[int, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        # zero rows are legal (an empty test set); zero-length series are not
        if X.ndim != 2 or X.shape[1] == 0:
            raise EmptyInputError("series need at least one sample")
        if y.shape != (X.shape[0],):
            raise RaggedRowError("one label per series required")
        if not np.all(np.isfinite(X)):
            raise NonNumericFieldError("series values must be finite")
        # Every sum of squares a kernel takes is at most 4 m max|x|^2: prefix
        # sums of centred squares and window stds (|x - mean| <= 2 max|x|),
        # the |w|^2/2 offsets of raw windows, and a window's squared distance
        # to a query.
        if X.size and max(X.max(), -X.min()) > np.sqrt(np.finfo(np.float64).max / (4 * X.shape[1])):
            raise ValueRangeError("series values are too large to square without overflow")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if not self.label_names:
            object.__setattr__(
                self, "label_names", {int(c): str(int(c)) for c in np.unique(y)}
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.y)

    def __len__(self) -> int:
        return self.n


def _label_value(tok: str) -> int | str:
    """A label token's identity: its integer value if integral, else its text."""
    try:
        v = float(tok)
    except ValueError:
        return tok
    return int(v) if np.isfinite(v) and v == int(v) else tok


def _code_labels(tokens: list[str]) -> tuple[list[int], dict[int, str]]:
    """Map label tokens to integer codes.

    Integral labels keep their own value (so files labeled 1/2 yield classes
    [1, 2]); anything else is ranked by the textual sort order of the
    distinct tokens.
    """
    distinct = sorted(set(tokens))
    values = {tok: _label_value(tok) for tok in distinct}
    if all(isinstance(v, int) for v in values.values()):
        mapping = values
    else:
        mapping = {tok: rank for rank, tok in enumerate(distinct)}
    names = {code: tok for tok, code in mapping.items()}
    return [mapping[t] for t in tokens], names


def recode_labels(d: Dataset, label_names: dict[int, str]) -> Dataset:
    """d with its labels coded as in another dataset's label_names.

    Codes depend on the file a dataset was parsed from, so a test file is
    recoded against the training vocabulary before labels are compared.
    Labels match by _label_value; one missing from label_names raises
    UnknownLabelError.
    """
    if d.label_names == label_names:
        return d
    vocab = {_label_value(name): code for code, name in label_names.items()}
    classes, inverse = np.unique(d.y, return_inverse=True)
    codes = []
    for c in classes:
        name = d.label_names.get(int(c), str(int(c)))
        code = vocab.get(_label_value(name))
        if code is None:
            raise UnknownLabelError(f"label {name!r} does not occur in the training data")
        codes.append(code)
    y = np.asarray(codes, dtype=np.int64)[inverse].reshape(d.y.shape)
    return Dataset(X=d.X, y=y, label_names=dict(label_names), name=d.name)


def parse_ucr(text: str, *, name: str = "") -> Dataset:
    """Parse the text of a flat time-series file into a Dataset.

    The delimiter (comma vs whitespace) is detected from the first data
    line; a comma-separated line may end in one trailing comma. Raises
    RaggedRowError on inconsistent field counts, NonNumericFieldError on
    unparseable samples or an empty field, and EmptyInputError when no
    series are found.
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not rows:
            sep = "," if "," in line else None  # None splits on whitespace
        fields = [f.strip() for f in line.split(sep)]
        if sep and not fields[-1]:
            fields.pop()  # one trailing comma is accepted
        if not all(fields):
            raise NonNumericFieldError(f"line {lineno}: empty field")
        if rows and len(fields) != len(rows[0]):
            raise RaggedRowError(
                f"line {lineno}: expected {len(rows[0])} fields, found {len(fields)}"
            )
        rows.append(fields)

    if not rows:
        raise EmptyInputError("no data lines in input")
    if len(rows[0]) < 2:
        raise EmptyInputError("rows contain a label but no samples")

    X = np.empty((len(rows), len(rows[0]) - 1), dtype=np.float64)
    for i, r in enumerate(rows):
        for j, tok in enumerate(r[1:]):
            try:
                X[i, j] = float(tok)
            except ValueError as exc:
                raise NonNumericFieldError(f"row {i}: bad field {tok!r}") from exc
            if not np.isfinite(X[i, j]):
                raise NonNumericFieldError(f"row {i}: non-finite field {tok!r}")

    codes, names = _code_labels([r[0] for r in rows])
    return Dataset(X=X, y=np.asarray(codes), label_names=names, name=name)


def read_ucr(path: str | Path) -> Dataset:
    """Read a flat time-series file; the set is named after the file's stem."""
    path = Path(path)
    return parse_ucr(path.read_text(encoding="utf-8"), name=path.stem)


def csv_field(value) -> str:
    """A float (numpy's too) as .17g, so that it reads back exactly; None as
    an empty field; anything else as str."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def csv_line(fields: Iterable) -> str:
    """One comma-separated line of csv_field values, with its newline."""
    return ",".join(map(csv_field, fields)) + "\n"


def write_ucr(d: Dataset, stream: TextIO) -> None:
    """Write a Dataset as comma-separated flat-file lines, so that
    parse_ucr(text written) reproduces d exactly."""
    for row, label in zip(d.X, d.y):
        stream.write(csv_line([d.label_names.get(int(label), int(label)), *row]))


def znorm_rows(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Shift/scale each float64 row of w to mean 0 and population std 1,
    into out if given (which may be w itself).

    A near-constant row (std below FLAT_STD) maps to all zeros so flat
    windows keep a well-defined distance.

    The mean and std are bit-identical to w.mean(axis=1) and w.std(axis=1):
    the mean is taken once, as np.mean takes it (a sum along the row, then
    / L), and the std from the centred rows by the steps np.std runs after
    its own mean (square, sum, / L, sqrt). The rows are squared and summed
    SQUARE_CHUNK bytes at a time; each row's sum is the same sum of the
    same squares.
    """
    L = w.shape[1]
    out = np.subtract(w, np.add.reduce(w, axis=1, keepdims=True) / L, out=out)
    sd = np.empty((len(out), 1))
    step = max(1, SQUARE_CHUNK // (8 * L))
    for lo in range(0, len(out), step):
        np.add.reduce(np.square(out[lo : lo + step]), axis=1, keepdims=True, out=sd[lo : lo + step])
    sd = np.sqrt(sd / L)
    flat = sd[:, 0] < FLAT_STD
    if flat.any():  # masking costs more than this test when no row is flat
        sd[flat] = 1.0
        out /= sd
        out[flat] = 0.0
    else:
        out /= sd
    return out


def znormalize(values: np.ndarray) -> np.ndarray:
    """One series z-normalized as a row of znorm_rows."""
    return znorm_rows(np.asarray(values, dtype=np.float64)[None, :])[0]


def stratified_folds(d: Dataset, f: int, seed: int) -> np.ndarray:
    """Assign each series to one of f folds, stratified by class.

    Deterministic for a fixed seed; per-class fold counts differ by at most
    one. A class with fewer than f members spreads one member per fold
    (leave-one-out on that class) and a LeaveOneOutFoldsWarning is raised. f below 2
    raises InvalidConfigError.
    """
    require_int("fold count", f, 2)
    if f > d.n:
        raise FoldCountTooLargeError(f"{f} folds requested for {d.n} series")
    rng = np.random.default_rng(seed)
    folds = np.empty(d.n, dtype=np.int64)
    for c in d.classes:
        idx = np.flatnonzero(d.y == c)
        if len(idx) < f:
            warnings.warn(
                f"class {d.label_names.get(int(c), c)} has {len(idx)} members "
                f"for {f} folds; falling back to leave-one-out on them",
                LeaveOneOutFoldsWarning,
                stacklevel=2,
            )
        perm = rng.permutation(idx)
        offset = int(rng.integers(f))
        folds[perm] = (np.arange(len(perm)) + offset) % f
    return folds

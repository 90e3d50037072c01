"""Pluggable mutual-information estimators over column groups.

Every estimator maps (dataset, left group, right group) to an
EstimateEnsemble of `repetitions` values in nats. The exact and binned
estimators are deterministic (all repetitions identical); the k-NN and
neural estimators draw their per-repetition randomness from counter-based
streams keyed by a repetition seed, so a given (config, base seed) is
bit-reproducible and every term estimated within one repetition shares the
same row subsample.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence, Union

import numpy as np

from .types import (
    _TARGET_ID,
    ColumnKind,
    ConfigError,
    Dataset,
    EstimateEnsemble,
    EstimatorError,
    GroupLike,
    _group_ids,
    philox,
    require_integer,
)

# Purpose words mixed into the second Philox key word so the row-subsample
# stream and each column's jitter stream never collide. The low bits hold
# column id + 1 (the target's id is -1, so 0); the subsample stream uses 1.
_PURPOSE_SUBSAMPLE = 0xA5 << 32
_PURPOSE_JITTER = 0xB6 << 32
_SEED_STRIDE = 1000003


def __getattr__(name: str):
    # scipy.spatial is most of the cost of importing this module and only
    # ksg uses it, so cKDTree loads on first use. Kept in the module's
    # globals, it stays an attribute that a stand-in can replace.
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        globals()[name] = cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _tree(points: np.ndarray):
    """A k-d tree over points, built by the module's cKDTree attribute."""
    return getattr(sys.modules[__name__], "cKDTree")(points)


@dataclass(frozen=True)
class ExactDiscrete:
    """Plug-in MI from exact joint frequencies; discrete columns only."""


@dataclass(frozen=True)
class Binned:
    """Equal-frequency binning of continuous columns, then plug-in MI."""

    bins: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "bins", require_integer(self.bins, "bins"))
        if self.bins < 2:
            raise ConfigError("binned estimator needs at least 2 bins")


@dataclass(frozen=True)
class Ksg:
    """k-nearest-neighbor MI estimator (variant 1, Chebyshev metric).

    Each repetition works on a 30% row subsample and adds seeded jitter of
    1e-9 column stds per column to break ties; the subsample is shared by
    every estimate within the repetition. Only k is settable.
    """

    k: int = 3
    subsample: float = field(default=0.3, init=False)
    jitter: float = field(default=1e-9, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", require_integer(self.k, "k"))
        if self.k < 1:
            raise ConfigError("ksg estimator needs k >= 1")


@dataclass(frozen=True)
class MineConfig:
    """Training hyperparameters for the neural estimator; Adam's betas and eps are fixed."""

    batch_size: int = 1000
    iterations: int = 20000
    learning_rate: float = 1e-4
    hidden: int = 50
    beta1: float = field(default=0.9, init=False)
    beta2: float = field(default=0.999, init=False)
    adam_eps: float = field(default=1e-8, init=False)

    def __post_init__(self) -> None:
        for name in ("batch_size", "iterations", "hidden"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.batch_size < 1:
            raise ConfigError("mine batch size must be >= 1")
        if self.iterations < 0:
            raise ConfigError("mine iterations must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("mine learning rate must be positive")
        if self.hidden < 1:
            raise ConfigError("mine hidden width must be >= 1")


@dataclass(frozen=True)
class Mine:
    """Neural lower-bound MI estimator trained by minibatch gradient ascent."""

    config: MineConfig = field(default_factory=MineConfig)


EstimatorKind = Union[ExactDiscrete, Binned, Ksg, Mine]

# Each estimator kind by the name the CLI and the report JSON give it.
KINDS = {"exact": ExactDiscrete, "binned": Binned, "ksg": Ksg, "mine": Mine}
_KIND_NAMES = {kind: name for name, kind in KINDS.items()}


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator kind plus the repetition protocol."""

    kind: EstimatorKind = field(default_factory=ExactDiscrete)
    repetitions: int = 5
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("repetitions", "base_seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if type(self.kind) not in _KIND_NAMES:
            raise ConfigError(f"unknown estimator kind {self.kind!r}")
        # Made once: every estimate asks for them.
        object.__setattr__(self, "_seeds", tuple(
            self.base_seed * _SEED_STRIDE + r for r in range(self.repetitions)))

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[type(self.kind)]

    def seeds(self) -> tuple[int, ...]:
        """One derived seed per repetition."""
        return self._seeds

    @property
    def is_deterministic(self) -> bool:
        return isinstance(self.kind, (ExactDiscrete, Binned))


def _check_groups(left: tuple[int, ...], right: tuple[int, ...]) -> None:
    if left == right:
        return
    if set(left) & set(right):
        raise ConfigError(
            f"column groups must be disjoint or identical, got {left} vs {right}"
        )


# Mixed-radix codes stay below this bound, so no product overflows int64.
_CODE_LIMIT = 1 << 62


def _dense(code: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Rank each code in [0, span) among the distinct codes present.

    Returns the ranks and their count. Ranking keeps the codes' order.
    """
    # Marking present codes costs O(span), a sort O(n log n); on 20000
    # rows they break even near span = 4n.
    if span <= 4 * code.shape[0]:
        present = np.zeros(span, dtype=bool)
        present[code] = True
        rank = np.cumsum(present) - 1
        return rank[code], int(rank[-1]) + 1
    # Narrow codes sort faster.
    code = code.astype(np.min_scalar_type(-span), copy=False)
    distinct, rank = np.unique(code, return_inverse=True)
    return rank, distinct.shape[0]


def _distinct_rows(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """How many rows hold each distinct code in [0, span), and a row that
    holds it, both in code order."""
    # Marked below span = 4n and sorted above, as in _dense.
    n = code.shape[0]
    if span <= 4 * n:
        counts = np.bincount(code)
        present = counts > 0
        row = np.empty(counts.shape[0], dtype=np.intp)
        row[code] = np.arange(n)
        return counts[present], row[present]
    code = code.astype(np.min_scalar_type(-span), copy=False)
    _, row, counts = np.unique(code, return_index=True, return_counts=True)
    return counts, row


def _code_counts(code: np.ndarray, span: int, weights: np.ndarray | None,
                 n: int) -> np.ndarray:
    """How many of the n rows hold each code in [0, span); absent codes may
    count 0. Each given code stands for weights of the rows, or for one row
    when weights is None."""
    # Counted by marking below span = 4n and by sorting narrowed codes above,
    # as in _dense. Weighted codes compare the span with n, not with their
    # own number: on 20,000 rows, marking still wins at a fifth of them.
    if span <= 4 * n:
        return np.bincount(code, weights)
    code = code.astype(np.min_scalar_type(-span), copy=False)
    if weights is None:
        return np.unique(code, return_counts=True)[1]
    return np.bincount(np.unique(code, return_inverse=True)[1], weights)


def _fold_rows(columns: Sequence[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """Fold each of the n rows of (digits, radix) columns into one
    mixed-radix code, first column most significant.

    Each column's digits are non-negative signed integers below its radix.
    Returns the codes and a bound on them. Distinct rows get distinct
    codes, ordered as np.unique(axis=0) orders the stacked rows. Each
    column folds in the narrowest signed type that holds the new bound,
    and the partial code is re-ranked before it would overflow int64.
    The given digits are never written into; a lone column is returned as
    its own codes.
    """
    code, span = None, 1
    for digits, radix in columns:
        if span > 1 and span * radix >= _CODE_LIMIT:
            code, span = _dense(code, span)
            if span * radix >= _CODE_LIMIT:
                digits, radix = _dense(digits, radix)
        if span == 1:
            # A code with one value is all zeros, so the digits are the fold.
            # Re-ranking can leave one value too; folding then would need a
            # type that holds radix itself, not just -radix.
            code, span = digits, radix
            continue
        span *= radix
        code = code.astype(np.min_scalar_type(-span))
        code *= radix
        code += digits
    if code is None:
        code = np.zeros(n, dtype=np.int8)
    return code, span


def _bin_column(col: np.ndarray, kind: ColumnKind, bins: int) -> np.ndarray:
    if kind.is_discrete:
        return col
    edges = np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1])
    return np.digitize(col, edges).astype(np.float64)


# The count table covers the columns of at most this many values (radix).
# Its product costs about radix**2 per pair of columns and row, against a
# fold per pair; on 2,000 to 20,000 rows the two break even near radix 4.
_TABLE_RADIX = 4
# It holds at most this many indicator rows, the sum of its columns'
# radices, so it stays within 512 KiB; past it, every group folds.
_TABLE_WIDTH = 256
# Indicators are built and multiplied this many rows at a time, so a chunk
# of them stays within 4 MiB.
_TABLE_ROWS = 4096
# A float32 product sums the weights of a chunk's rows, so it stays an
# exact integer while they sum to at most this; a heavier chunk multiplies
# in float64.
_TABLE_EXACT = (1 << 24) - 1
# Rows are kept once per distinct state of the covered columns while the
# states number at most this share of the rows. Measured as run_pidf on
# binary_table(n, p, .) (tests/test_plugin_pins.py), against keeping every
# row, in 10 alternating pairs with OpenBLAS on one thread on a 2-vCPU VM:
# at n = 20,000, 1.29x as fast at 0.05 of the rows distinct, 1.24x at
# 0.20, 1.15x at 0.37, 1.02x at 0.46 and 0.94x at 0.58; at n = 1e5, 1.31x
# at 0.31 and 1.00x at 0.51.
_DISTINCT_SHARE = 0.4
# A float64 product codes rows exactly while its codes, and so every partial
# sum of weighted digits, are integers below this bound.
_PRODUCT_SPAN = 1 << 53


def _pair_counts(digits: Sequence[np.ndarray], radices: Sequence[int],
                 weights: np.ndarray | None) -> np.ndarray:
    """Stack each column's 0/1 indicator rows, one per value below its radix;
    return the product of the stack with itself, each row counted weights
    times (once if weights is None).

    The block of two columns counts the rows holding each pair of their
    values, and the diagonal of a column's own block counts each value.
    """
    width, rows = sum(radices), digits[0].shape[0]
    counts = np.zeros((width, width), dtype=np.int64)
    for start in range(0, rows, _TABLE_ROWS):
        chunk = slice(start, start + _TABLE_ROWS)
        dtype = np.float32
        if weights is not None and weights[chunk].sum() > _TABLE_EXACT:
            dtype = np.float64
        ind = np.empty((width, min(_TABLE_ROWS, rows - start)), dtype=dtype)
        top = 0
        for column, radix in zip(digits, radices):
            values = np.arange(radix, dtype=column.dtype)[:, None]
            np.equal(column[chunk], values, out=ind[top:top + radix], casting="unsafe")
            top += radix
        weighted = ind if weights is None else ind * weights[chunk].astype(dtype)
        counts += (ind @ weighted.T).astype(np.int64)
    return counts


class _PluginTable:
    """One dataset's plug-in columns, each binned (under Binned) and cast
    to integer digits once, and the entropy of each column group computed
    so far.

    The covered columns are every column under Binned and the discrete ones
    under exact; no estimate reads any other. One code of them all
    (_code_all) finds the distinct rows and gives the entropy of their
    joint. While the distinct rows are few (_DISTINCT_SHARE), the table
    keeps one row per distinct state, weighted by how many rows hold it,
    and every later code, count and count table works on those rows. A
    group's counts are then the weights summed per group code: the same
    multiset as counting all the rows.

    How a group is coded depends on its width alone. Singletons and pairs
    of columns of small radix read their row counts from one count table of
    indicator products (see _pair_counts), built on the first such request
    while the indicators stay within _TABLE_WIDTH rows; the build stores
    the entropy of every singleton and pair it holds (_remember_blocks). A
    group that lacks fewer covered columns than it would fold is coded from
    the products of them all (_complement). Every other group folds its own
    columns.

    A group's entropy depends only on the sorted multiset of its row
    counts, never on column order or on how rows are kept, coded or
    counted, and IEEE addition commutes. So mi(L, R) from remembered
    entropies is bit for bit what coding L, R and their joint afresh on all
    rows gives, in either order.
    """

    def __init__(self, data: Dataset, kind: ExactDiscrete | Binned):
        self.data = data
        self.kind = kind
        self._entropies: dict[tuple[int, ...], float] = {}
        # Column id -> its indicator rows in _counts; None until built.
        self._rows: dict[int, slice] | None = None
        self._counts: np.ndarray | None = None
        # Column id -> its digits on the kept rows and their radix, one more
        # than the largest.
        self._digits: dict[int, tuple[np.ndarray, int]] = {}
        # How many rows each kept row stands for; None while all are kept.
        self._weights: np.ndarray | None = None
        # Each product's code on the kept rows and its bound, with each of
        # its columns' place value and largest weighted digit in it.
        self._parts: list[tuple[np.ndarray, int, dict[int, tuple[int, int]]]] = []
        # Column id -> its digits on the kept rows times its place value;
        # while rows are weighted, each is kept from its first use.
        self._placed: dict[int, np.ndarray] = {}
        # exact covers only discrete columns: a continuous one cast to digits
        # can have a huge or negative maximum.
        binned = isinstance(kind, Binned)
        covered = tuple(i for i in range(_TARGET_ID, data.n_features)
                        if binned or data.kind(i).is_discrete)
        if covered:
            self._code_all(covered)

    def mi(self, left: tuple[int, ...], right: tuple[int, ...]) -> float:
        # I(G;G) keys its joint as G itself, so it stays H(G).
        joint = left + right if left[-1] < right[0] else tuple(sorted({*left, *right}))
        known = self._entropies.get
        terms = known(left), known(right), known(joint)
        if None in terms:
            # Only exact leaves columns uncovered: the continuous ones.
            if not self._digits.keys() >= set(joint):
                raise EstimatorError(
                    "exact discrete estimator requires discrete columns; "
                    "declare bins or use a continuous-capable estimator"
                )
            terms = self.entropy(left), self.entropy(right), self.entropy(joint)
        return max(0.0, terms[0] + terms[1] - terms[2])

    def entropy(self, ids: tuple[int, ...]) -> float:
        """H of the sorted column group ids, in nats."""
        value = self._entropies.get(ids)
        if value is None and len(ids) <= 2 and self._rows is None:
            self._build_table()
            value = self._entropies.get(ids)
        if value is None:
            columns = (self._complement(ids) if self._near_full(ids)
                       else [self._digits[i] for i in ids])
            n = self.data.n_samples
            rows = n if self._weights is None else self._weights.shape[0]
            code, span = _fold_rows(columns, rows)
            self._remember(ids, _code_counts(code, span, self._weights, n))
            value = self._entropies[ids]
        return value

    def _near_full(self, ids: tuple[int, ...]) -> bool:
        """Whether group ids is coded from the products of every covered
        column: where that subtracts fewer columns than folding ids would
        fold."""
        return len(self._digits) - len(ids) < len(ids) - 1

    def _build_table(self) -> None:
        """Count every singleton and pair of the columns of small radix in
        one table, and remember the entropy of each."""
        radices = {i: r for i, (_, r) in self._digits.items() if r <= _TABLE_RADIX}
        self._rows = {}
        if 0 < sum(radices.values()) <= _TABLE_WIDTH:
            tops = np.cumsum([0, *radices.values()]).tolist()
            self._rows = {i: slice(a, b) for i, a, b in zip(radices, tops, tops[1:])}
            self._counts = _pair_counts([self._digits[i][0] for i in radices],
                                        list(radices.values()), self._weights)
            self._remember_blocks(radices)

    def _remember_blocks(self, radices: dict[int, int]) -> None:
        """Store H of every singleton and pair the count table holds.

        Each column's indicator rows are padded to the largest radix, so
        that every block is a cell of one array; the singletons' counts and
        the pairs' are each sorted in one call, zeros first. Each block's
        positive counts are then one contiguous run, holding the array
        _remember would make, and go through the same _entropy.
        """
        ids, n = list(radices), self.data.n_samples
        width, tall = len(ids), max(radices.values())
        padded = self._counts
        if min(radices.values()) < tall:
            at = [k * tall + v for k, i in enumerate(ids) for v in range(radices[i])]
            padded = np.zeros((width * tall, width * tall), dtype=np.int64)
            padded[np.ix_(at, at)] = self._counts
        # blocks[a, b] holds the counts of columns ids[a] and ids[b].
        blocks = padded.reshape(width, tall, width, tall).swapaxes(1, 2).reshape(
            width, width, tall * tall)
        own = np.arange(width)
        a, b = np.triu_indices(width, 1)
        groups = iter([*((i,) for i in ids),
                       *((ids[k], ids[m]) for k, m in zip(a.tolist(), b.tolist()))])
        for counts in (blocks[own, own, ::tall + 1], blocks[a, b]):
            counts.sort(axis=1)
            starts = np.count_nonzero(counts == 0, axis=1).tolist()
            for row, start in zip(counts, starts):
                self._entropies[next(groups)] = _entropy(row[start:], n)

    def _code_all(self, covered: tuple[int, ...]) -> None:
        """Code every row of the covered columns, remember their joint's
        entropy and, while few rows are distinct, keep one row of each
        distinct state; then take each column's digits on the kept rows.

        A discrete column's values are weighted as they are, by place values
        from the declared cardinalities, in one float64 product with the
        feature matrix: every partial sum is an integer below _PRODUCT_SPAN,
        so the product is exact under any BLAS blocking. Columns binned or
        past that budget get their digits first (_digitize). Columns past
        the budget of the ones before them go into further products, and
        _fold_rows combines their codes. Each product's code stays, on the
        kept rows, for _complement.
        """
        data, n = self.data, self.data.n_samples
        # Column id -> its digits on all rows, where its values cannot be
        # weighted as they are.
        ready, radices = {}, {}
        for i in covered:
            kind = data.kind(i)
            if kind.is_discrete and kind.cardinality <= _PRODUCT_SPAN:
                radices[i] = kind.cardinality
            else:
                ready[i] = self._digitize(i)
                radices[i] = ready[i][1]
        parts, span = [[]], 1
        for i in covered:
            if span * radices[i] > _PRODUCT_SPAN:
                parts.append([])
                span = 1
            parts[-1].append(i)
            span *= radices[i]
        codes = [self._product(part, radices, ready) for part in parts]
        code, span = _fold_rows([(code, span) for code, span, _ in codes], n)
        weights, held = _distinct_rows(code, span)
        self._remember(covered, weights)
        kept = slice(None)  # every row
        if weights.shape[0] <= _DISTINCT_SHARE * n:
            # Rows of one code hold the same digits, so any of them will do.
            kept = held
            self._weights = weights
        self._parts = [(code[kept], span, places) for code, span, places in codes]
        # Kept, every distinct state is there, so each radix is the one of
        # all the rows.
        for i in covered:
            if i in ready:
                digits, radix = ready[i]
                self._digits[i] = digits[kept], radix
            else:
                self._digits[i] = _narrow(data.column(i)[kept])

    def _product(self, part: list[int], radices: dict[int, int],
                 ready: dict[int, tuple[np.ndarray, int]]
                 ) -> tuple[np.ndarray, int, dict[int, tuple[int, int]]]:
        """Code every row of the part's columns in mixed radix, first column
        most significant. Returns the codes, their bound and each column's
        place value and largest weighted digit."""
        data = self.data
        places, span = {}, 1
        for i in reversed(part):
            places[i] = span, span * (radices[i] - 1)
            span *= radices[i]
        weights = np.zeros(data.n_features)
        for i in places.keys() - ready.keys() - {_TARGET_ID}:
            weights[i] = places[i][0]
        code = data.features @ weights
        if _TARGET_ID in places and _TARGET_ID not in ready:
            code += data.target * places[_TARGET_ID][0]
        code = code.astype(np.int64)
        for i in places.keys() & ready.keys():
            code += ready[i][0] * np.int64(places[i][0])
        return code, span, places

    def _complement(self, ids: tuple[int, ...]) -> list[tuple[np.ndarray, int]]:
        """Each product's code less the weighted digits of the columns group
        ids lacks, and its bound: columns that tell rows apart as ids does."""
        group = set(ids)
        columns = []
        for code, span, places in self._parts:
            for i in places.keys() - group:
                place, top = places[i]
                code = code - self._placed_digits(i, place)
                span -= top
            columns.append((code, span))
        return columns

    def _placed_digits(self, col_id: int, place: int) -> np.ndarray:
        """A column's digits on the kept rows times its place value. While
        rows are weighted there are few of them, and each column's are kept:
        a 20,000-row table of 1,024 kept rows keeps 8 KiB a column."""
        placed = self._placed.get(col_id)
        if placed is None:
            placed = self._digits[col_id][0] * np.int64(place)
            if self._weights is not None:
                self._placed[col_id] = placed
        return placed

    def _remember(self, ids: tuple[int, ...], counts: np.ndarray) -> None:
        """Store H of group ids from its row counts, zeros allowed."""
        # Weighted counts come as floats; as integers, they enter the same
        # product as counts of all the rows.
        counts = counts[counts > 0].astype(np.int64, copy=False)
        counts.sort()
        self._entropies[ids] = _entropy(counts, self.data.n_samples)

    def _digitize(self, col_id: int) -> tuple[np.ndarray, int]:
        """The digits on all rows, and their radix, of a column that the
        product cannot weight as it is: its bins under Binned, or the ranks
        of its distinct values where its cardinality passes _PRODUCT_SPAN."""
        col = self.data.column(col_id)
        kind = self.data.kind(col_id)
        if not kind.is_discrete:
            return _narrow(_bin_column(col, kind, self.kind.bins))
        return _narrow(np.unique(col, return_inverse=True)[1])


def _entropy(counts: np.ndarray, n: int) -> float:
    """H in nats of n rows from their positive int64 row counts, sorted.

    Sorted, the summation order depends only on the count multiset. For two
    vectors, np.dot and @ reach the same float64 dot (one BLAS ddot) with
    the same cast operands; np.dot costs less to call.
    """
    return max(0.0, math.log(n) - float(np.dot(counts, np.log(counts))) / n)


def _narrow(col: np.ndarray) -> tuple[np.ndarray, int]:
    """A column of non-negative integers as digits of the narrowest signed
    type that holds them, and their radix, one more than the largest."""
    radix = int(col.max()) + 1
    return col.astype(np.min_scalar_type(-radix)), radix


def subsample_rows(n: int, rep_seed: int) -> np.ndarray:
    """Row indices of one repetition's subsample, ``Ksg.subsample`` of the n
    rows (sorted, without replacement).

    Keyed only by the repetition seed, so every estimate computed within a
    repetition sees the same rows and differences of estimates cancel their
    shared sampling noise.
    """
    m = max(1, int(round(Ksg.subsample * n)))
    if m >= n:
        return np.arange(n)
    rng = philox(rep_seed, _PURPOSE_SUBSAMPLE | 1)
    return np.sort(rng.choice(n, size=m, replace=False))


def _jittered(col: np.ndarray, col_id: int, rep_seed: int) -> np.ndarray:
    """Add tie-breaking noise of ``Ksg.jitter`` column stds to a whole column,
    keyed by (repetition, column id)."""
    scale = float(np.std(col))
    if scale == 0.0:
        scale = 1.0
    rng = philox(rep_seed, _PURPOSE_JITTER | (col_id + 1))
    return col + Ksg.jitter * scale * rng.standard_normal(col.shape[0])


class _KsgSample:
    """One dataset's ksg columns, each jittered and subsampled once per
    repetition.

    A column's jitter depends only on that column and the repetition seed,
    so gathering prepared columns gives bit for bit what jittering and
    subsampling each estimate's groups would.
    """

    def __init__(self, data: Dataset, kind: Ksg):
        import threading

        self.data = data
        self.kind = kind
        self._rows: dict[int, np.ndarray] = {}
        self._columns: dict[tuple[int, int], np.ndarray] = {}
        # A round's (key, seed) tasks run at once and may ask for one
        # column together: each (seed, column) is prepared once.
        self._lock = threading.Lock()

    def mi(self, left_ids: tuple[int, ...], right_ids: tuple[int, ...],
           rep_seed: int) -> float:
        """One repetition's estimate of I(left; right)."""
        x, y = (np.column_stack([self._column(i, rep_seed) for i in ids])
                for ids in (left_ids, right_ids))
        return ksg_mi(x, y, self.kind.k)

    def _column(self, col_id: int, rep_seed: int) -> np.ndarray:
        col = self._columns.get((rep_seed, col_id))
        if col is None:
            with self._lock:
                col = self._columns.get((rep_seed, col_id))
                if col is None:
                    rows = self._rows.get(rep_seed)
                    if rows is None:
                        rows = subsample_rows(self.data.n_samples, rep_seed)
                        self._rows[rep_seed] = rows
                    whole = self.data.column(col_id)
                    col = _jittered(whole, col_id, rep_seed)[rows]
                    self._columns[rep_seed, col_id] = col
        return col


class _MineSample:
    """One dataset for mine, which trains afresh on every estimate."""

    def __init__(self, data: Dataset, kind: Mine):
        self.data = data
        self.kind = kind

    def mi(self, left_ids: tuple[int, ...], right_ids: tuple[int, ...],
           rep_seed: int) -> float:
        """One repetition's estimate of I(left; right)."""
        from . import mine

        x, y = (np.column_stack([self.data.column(i) for i in ids])
                for ids in (left_ids, right_ids))
        return mine.mine_estimate(x, y, self.kind.config, rep_seed)


# The store class of each estimator kind in KINDS.
_STORES = {ExactDiscrete: _PluginTable, Binned: _PluginTable, Ksg: _KsgSample,
           Mine: _MineSample}

# The last dataset's store. Dataset arrays are read-only, so the dataset's
# identity keys it; holding the dataset keeps that identity from being
# reused by another. Everything a store holds is a function of the data,
# the estimator kind and (for ksg) the seed and column id alone, so callers
# sharing it cannot see each other's results change.
_store: _PluginTable | _KsgSample | _MineSample | None = None


def _prepared(data: Dataset, kind: EstimatorKind) -> _PluginTable | _KsgSample | _MineSample:
    """The store of (data, kind)."""
    global _store
    if _store is None or _store.data is not data or (
            _store.kind is not kind and _store.kind != kind):
        _store = _STORES[type(kind)](data, kind)
    return _store


# A marginal's row bitsets are built and gathered this many bytes at a time:
# a block of row-id words takes 3 * 8 * (rows + 1) bytes per word, for its
# prefix table and two gathers. 1,500 rows (a 30% subsample of 5,000) are
# one block; on 15,000 to 30,000 rows, smaller blocks ran faster than
# larger ones.
_BALL_BYTES = 1 << 20


def _ball_counts(points: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per row i, the number of rows within Chebyshev distance radius[i].

    Returns exactly what cKDTree(points).query_ball_point(points, radius,
    p=np.inf, return_length=True) returns. A row is in the ball exactly
    when each of its coordinates' rounded differences is at most the
    radius, and in each column those rows make a window [lo, hi) of the
    column's sorted order (_windows). One column counts hi - lo. Wider
    points turn each column's window into a bitset over row ids,
    P[hi] & ~P[lo], where P[t] holds the rows at the column's first t
    sorted positions; a row's count is the number of rows set in every
    column's bitset. The row ids go a block of 64-bit words at a time, so
    the bitsets stay within _BALL_BYTES at any number of rows.
    """
    m, width = points.shape
    columns = points.T
    order = np.argsort(columns, axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(m), axis=1)
    # Row i's window in each column, as positions in its sorted order.
    windows = []
    for values, by_value, by_row in zip(columns, order, rank):
        lo, hi = _windows(values[by_value], radius[by_value])
        windows.append((lo[by_row], hi[by_row]))
    if width == 1:
        lo, hi = windows[0]
        return hi - lo
    ids = np.arange(m)
    bits = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    words = -(-m // 64)
    # Every block has the same width; the last may hold words past the
    # last row, which no row sets.
    block = max(1, min(words, _BALL_BYTES // (3 * 8 * (m + 1))))
    prefix = np.empty((m + 1, block), dtype=np.uint64)
    part = np.empty((m, block), dtype=np.uint64)
    both = np.empty((m, block), dtype=np.uint64)
    counts = np.zeros(m, dtype=np.intp)
    for first in range(0, words, block):
        own = slice(64 * first, 64 * (first + block))
        both.fill(np.iinfo(np.uint64).max)
        for by_row, (lo, hi) in zip(rank, windows):
            prefix.fill(0)
            prefix[by_row[own] + 1, (ids[own] >> 6) - first] = bits[own]
            np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
            # take fills part unbuffered in any mode but "raise"; every
            # index is in range.
            both &= np.take(prefix, hi, axis=0, out=part, mode="clip")
            both &= np.invert(np.take(prefix, lo, axis=0, out=part, mode="clip"), out=part)
        counts += np.bitwise_count(both).sum(axis=1, dtype=np.intp)
    return counts


def _windows(ordered: np.ndarray,
             radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per t, the window [lo[t], hi[t]) of positions in ordered (a sorted
    column) that holds the s with |ordered[s] - ordered[t]| <= radius[t].

    Differences are rounded as the tree rounds them, and fl(u - v) is
    monotone in u, so each ball is a run of sorted positions. searchsorted
    on v -+ r guesses the run's ends, fastest with the v in sorted order;
    rounding can put a guess a step or two off (with ties, a run of them),
    and _prefix_end steps it to where the rounded difference puts it.
    """
    size = ordered.shape[0]
    # Below the ball: fl(v - u) > r. Up to its top: fl(u - v) <= r.
    lo = _prefix_end(
        np.searchsorted(ordered, ordered - radius, "left"), size,
        lambda j, t: ordered[t] - ordered[j] > radius[t],
    )
    hi = _prefix_end(
        np.searchsorted(ordered, ordered + radius, "right"), size,
        lambda j, t: ordered[j] - ordered[t] <= radius[t],
    )
    return lo, hi


def _prefix_end(end: np.ndarray, size: int, holds) -> np.ndarray:
    """Move each end[i], in place, to the first j in [0, size] where
    holds(j, i) fails.

    holds(j, i) must hold for every j below that index and fail from it on.
    """
    while True:
        rows = np.flatnonzero(end < size)
        rows = rows[holds(end[rows], rows)]
        if rows.size == 0:
            break
        end[rows] += 1
    while True:
        rows = np.flatnonzero(end > 0)
        rows = rows[~holds(end[rows] - 1, rows)]
        if rows.size == 0:
            break
        end[rows] -= 1
    return end


def ksg_mi(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """k-NN MI estimate (variant 1) on continuous matrices, in nats.

    Uses the Chebyshev metric; neighbor counts in the marginal spaces are
    taken strictly inside each point's k-th joint-space distance.
    """
    from scipy.special import digamma

    n = x.shape[0]
    if k >= n:
        raise EstimatorError(f"ksg needs more than k={k} rows, got {n}")
    joint = np.hstack([x, y])
    tree = _tree(joint)
    dist, _ = tree.query(joint, k=k + 1, p=np.inf)
    eps = dist[:, -1]
    radius = np.nextafter(eps, 0.0)
    nx = _ball_counts(x, radius) - 1
    ny = _ball_counts(y, radius) - 1
    value = (
        digamma(k)
        + digamma(n)
        - float(np.mean(digamma(nx + 1) + digamma(ny + 1)))
    )
    return float(value)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The repetition pool, under the key "rep" once made.
_pools: dict = {}


def _pool():
    """The pool that runs the (key, seed) tasks of a ksg or mine estimate
    round: one thread per usable CPU, or one thread in a multiprocessing
    child, whose siblings already fill the CPUs. cKDTree and numpy's array
    kernels release the GIL. Made on first use: importing
    concurrent.futures adds about 8 ms to importing this module."""
    pool = _pools.get("rep")
    if pool is None:
        import multiprocessing
        from concurrent.futures import ThreadPoolExecutor

        threads = 1 if multiprocessing.parent_process() else usable_cpus()
        # Of two first callers, setdefault (atomic) keeps one pool for both;
        # the other starts no thread, as a pool starts them on its first task.
        pool = _pools.setdefault(
            "rep", ThreadPoolExecutor(threads, thread_name_prefix="pidf-rep"))
    return pool


if hasattr(os, "register_at_fork"):
    # A forked child has none of the parent's pool threads, yet the pool
    # would count them as idle and never start new ones.
    os.register_at_fork(after_in_child=_pools.clear)


def _attempt(estimate, *args):
    """estimate(*args), or the Exception it raised."""
    try:
        return estimate(*args)
    except Exception as err:
        return err


def _estimate_round(data: Dataset, keys: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
                    cfg: EstimatorConfig) -> list[EstimateEnsemble | Exception]:
    """Each key's ensemble estimate of I(left; right) in nats, or the
    Exception its estimate raised.

    A key is two resolved groups (_group_ids), disjoint or identical, each
    estimated in the order given; an empty group yields an exactly-zero
    ensemble without invoking the estimator. The plug-in kinds estimate in
    the calling thread. Under ksg and mine every (key, seed) task of the
    round goes to the repetition pool at once: each draws only from its own
    seed's streams, and the ksg store prepares each (seed, column) once
    under its lock, so tasks running at once read the same columns.
    """
    seeds = cfg.seeds()
    out: list = [EstimateEnsemble.constant(0.0, seeds)] * len(keys)
    live = [k for k, (left, right) in enumerate(keys) if left and right]
    if not live:
        return out
    store = _prepared(data, cfg.kind)
    if cfg.is_deterministic:
        # The plug-in kinds give every repetition the same value.
        def ensemble(left, right):
            return EstimateEnsemble.constant(store.mi(left, right), seeds)

        for k in live:
            out[k] = _attempt(ensemble, *keys[k])
        return out
    # An interrupt in Executor.map cancels the tasks not yet started.
    values = list(_pool().map(partial(_attempt, store.mi), *zip(*(
        (*keys[k], seed) for k in live for seed in seeds))))
    for at, k in enumerate(live):
        estimates = tuple(values[at * len(seeds):(at + 1) * len(seeds)])
        # The first failing repetition's error, as a map over the seeds raises.
        errors = [v for v in estimates if isinstance(v, Exception)]
        out[k] = errors[0] if errors else _attempt(EstimateEnsemble, estimates, seeds)
    return out


def estimate_mi(
    data: Dataset, left: GroupLike, right: GroupLike, cfg: EstimatorConfig
) -> EstimateEnsemble:
    """Ensemble estimate of I(left; right) in nats: a round of one key.

    Groups must be disjoint or identical. An empty group on either side
    yields an exactly-zero ensemble without invoking the estimator.
    """
    left_ids = _group_ids(left, data.n_features)
    right_ids = _group_ids(right, data.n_features)
    _check_groups(left_ids, right_ids)
    (value,) = _estimate_round(data, [(left_ids, right_ids)], cfg)
    if isinstance(value, Exception):
        raise value
    return value

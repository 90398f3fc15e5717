"""Test-system construction.

Random overdetermined systems with unit-norm rows (incoherent Gaussian rows
or highly coherent nonnegative rows), a sparse additive corruption model for
the right-hand side, and the adversarial duplicate-row construction that
defeats projective block updates.  Generation is deterministic for a fixed
seed within one build: each concern (matrix entries, solution, corruption
placement, corruption magnitudes) draws from its own derived stream, so
toggling the corruption never perturbs the matrix.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError, domain, domain_check, is_finite, is_int, is_seed, one_of
from .linalg import as_array, is_row_normalized, row_normalize

FAMILIES = ("gaussian", "coherent")
PLACEMENTS = ("uniform", "given-indices")

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CorruptionSpec:
    """Sparse corruption model: a fraction ``beta`` of rows gets an additive
    offset drawn uniformly from [magnitude_low, magnitude_high]."""

    beta: float = domain("in [0, 1)", lambda v: 0.0 <= v < 1.0, default=0.0)
    magnitude_low: float = -100.0
    magnitude_high: float = 100.0
    placement: str = one_of(PLACEMENTS, default="uniform")
    indices: tuple[int, ...] | None = domain(
        "unique", lambda v: v is None or len(set(v)) == len(v), default=None)

    __post_init__ = domain_check


@dataclass(frozen=True)
class GeneratorSpec:
    family: str = one_of(FAMILIES)
    m: int
    n: int
    seed: int = domain("a non-negative integer", is_seed)
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)

    __post_init__ = domain_check


@dataclass(frozen=True)
class CorruptedSystem:
    """A system with solution ``x_star`` and an observed right-hand side that
    differs from the consistent one, ``matrix @ x_star``, exactly on
    ``corrupted_indices``.

    Every field is checked once, at construction, and a failure raises
    :class:`ConfigError` naming the field: each is an array of numbers, the
    matrix is 2-D with a row and a column and its rows are unit-norm,
    ``b_observed`` has shape (m,) and ``x_star`` shape (n,), both finite, and
    the corrupted indices are integers, unique and in [0, m).  ``matrix`` is
    then a read-only view of the array passed in, and the other fields and
    the corrupted mask are read-only copies, so no write can break a check.
    """

    matrix: np.ndarray
    x_star: np.ndarray
    b_observed: np.ndarray
    corrupted_indices: np.ndarray
    _mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrix = as_array("system matrix", self.matrix, float, copy=None)
        if matrix.ndim != 2 or 0 in matrix.shape:
            raise ConfigError(f"system matrix must be 2-D with a row and a column, "
                              f"got shape {matrix.shape}")
        if not is_row_normalized(matrix):
            raise ConfigError("system matrix must have unit-norm rows")
        m, n = matrix.shape
        fields = {"matrix": matrix.view()}
        for name, dim, size in (("b_observed", "m", m), ("x_star", "n", n)):
            values = fields[name] = as_array(name, getattr(self, name), float, copy=True)
            if values.ndim != 1:
                raise ConfigError(f"{name} has shape {values.shape}, expected ({size},)")
            if values.size != size:
                raise ConfigError(f"{name} has {values.size} entries, expected {dim}={size}")
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{name} has a non-finite entry")
        indices = as_array("corrupted_indices", self.corrupted_indices, None, copy=None)
        if indices.ndim != 1 or not np.issubdtype(indices.dtype, np.integer):
            raise ConfigError(f"corrupted_indices must be a 1-D array of integers, "
                              f"got shape {indices.shape} and dtype {indices.dtype}")
        # A repeated or out-of-range index leaves the mask short of one row.
        mask = fields["_mask"] = np.zeros(m, dtype=bool)
        mask[indices[(indices >= 0) & (indices < m)]] = True
        if np.count_nonzero(mask) != indices.size:
            raise ConfigError(f"corrupted_indices must be unique and lie in [0, {m})")
        fields["corrupted_indices"] = indices.astype(np.intp)
        for name, value in fields.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def beta(self) -> float:
        """The corrupted share of the rows."""
        return self.corrupted_indices.size / self.m

    def corrupted_mask(self) -> np.ndarray:
        """The read-only boolean mask of the corrupted rows, built once."""
        return self._mask


def _validate_spec(spec: GeneratorSpec) -> None:
    """The rules relating two values; each field was checked when it was built."""
    if not (spec.m > spec.n >= 1):
        raise ConfigError(f"need m > n >= 1, got m={spec.m}, n={spec.n}")
    c = spec.corruption
    if not 0.0 < c.magnitude_high - c.magnitude_low < math.inf:
        raise ConfigError("magnitude_high - magnitude_low must be positive and finite")
    if c.placement == "given-indices":
        if c.indices is None:
            raise ConfigError("placement 'given-indices' requires indices")
        if not all(0 <= i < spec.m for i in c.indices):
            raise ConfigError("given indices out of range")
        if c.beta != 0.0:
            raise ConfigError(f"placement 'given-indices' takes its rows from indices, "
                              f"so beta must be unset (0), got {c.beta}")
    elif c.indices is not None:
        raise ConfigError("placement 'uniform' draws its rows from beta, so indices must be unset")


def _unallocatable(m: int, n: int) -> ConfigError:
    """The error for an m x n matrix that memory cannot hold."""
    return ConfigError(f"an m={m} by n={n} matrix needs {8 * m * n} bytes, "
                       "more than could be allocated")


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def generate(spec: GeneratorSpec) -> CorruptedSystem:
    """Build a corrupted system from a generator specification.

    Row families: ``gaussian`` draws i.i.d. standard-normal entries and
    normalizes each row (equivalent to uniform directions on the sphere);
    ``coherent`` draws i.i.d. Uniform(0,1) entries and normalizes, producing
    nearly parallel rows.  The solution vector has standard-normal entries.
    Corruption offsets are drawn uniformly from the configured magnitude
    range and added to the consistent right-hand side on the chosen rows.
    """
    _validate_spec(spec)
    rng_matrix, rng_xstar, rng_place, rng_mag = _streams(spec.seed, 4)

    try:
        if spec.family == "coherent":
            entries = rng_matrix.uniform(0.0, 1.0, size=(spec.m, spec.n))
        else:
            entries = rng_matrix.standard_normal((spec.m, spec.n))
        a = row_normalize(entries, out=entries)
    except MemoryError:
        raise _unallocatable(spec.m, spec.n) from None

    x_star = rng_xstar.standard_normal(spec.n)
    b_observed = a @ x_star

    c = spec.corruption
    if c.placement == "given-indices":
        indices = np.sort(np.asarray(c.indices, dtype=np.intp))
    else:
        indices = np.sort(rng_place.permutation(spec.m)[:math.floor(c.beta * spec.m)])
    b_observed[indices] += rng_mag.uniform(c.magnitude_low, c.magnitude_high, indices.size)
    return CorruptedSystem(
        matrix=a,
        x_star=x_star,
        b_observed=b_observed,
        corrupted_indices=indices,
    )


def generate_adversarial_duplicate(
    n: int = 100,
    clean_rows: int = 1000,
    dup_rows: int = 250,
    target: float = 500.0,
    seed: int = 0,
) -> tuple[CorruptedSystem, np.ndarray]:
    """Duplicate-row construction that pins projective block updates.

    The system stacks ``clean_rows`` unit-norm Gaussian rows with
    ``dup_rows`` identical copies of one further unit-norm Gaussian row
    ``a``; the observed right-hand side on every copy is replaced by
    ``target``.  The returned start vector is the orthogonal projection of
    the all-ones vector onto the hyperplane {x : <a, x> = target}, so every
    duplicated row starts with residual zero.

    Returns the system together with that start vector.
    """
    for name, value in (("n", n), ("clean_rows", clean_rows), ("dup_rows", dup_rows)):
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 2 or clean_rows < 1 or dup_rows < 1 or not is_seed(seed) or not is_finite(target):
        raise ConfigError("need n >= 2, clean_rows >= 1, dup_rows >= 1, a non-negative integer "
                          f"seed and a finite target, got n={n}, clean_rows={clean_rows}, "
                          f"dup_rows={dup_rows}, seed={seed!r}, target={target!r}")
    rng_matrix, rng_xstar, rng_dup = _streams(seed, 3)

    m = clean_rows + dup_rows
    try:
        clean = rng_matrix.standard_normal((clean_rows, n))
        row_normalize(clean, out=clean)
        a_dup = row_normalize(rng_dup.standard_normal((1, n)))[0]
        matrix = np.vstack([clean, np.tile(a_dup, (dup_rows, 1))])
    except MemoryError:
        raise _unallocatable(m, n) from None

    x_star = rng_xstar.standard_normal(n)
    b_observed = matrix @ x_star
    b_observed[clean_rows:] = target
    indices = np.arange(clean_rows, m, dtype=np.intp)

    ones = np.ones(n)
    x0 = ones + (target - a_dup @ ones) * a_dup
    system = CorruptedSystem(
        matrix=matrix,
        x_star=x_star,
        b_observed=b_observed,
        corrupted_indices=indices,
    )
    return system, x0


# ---------------------------------------------------------------------------
# On-disk round trip: matrix.csv, b_observed.csv, metadata.json.  Each CSV
# value is written as its format(v, ".17g") text, so the decimal form
# round-trips exactly; these are the bytes numpy's savetxt with fmt="%.17g"
# wrote.  The writer builds them with numpy arithmetic, a block of a few
# thousand values at a time, and the reader parses them back the same way,
# each field to float()'s bits, straight into arrays of the metadata's shape.
# A system was checked when it was built, so save_system writes any system
# that load_system reads back.

def save_system(
    system: CorruptedSystem, directory, spec: GeneratorSpec | None = None
) -> Path:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "matrix.csv", system.matrix)
    _write_csv(out / "b_observed.csv", system.b_observed[:, None])
    meta = {
        "format_version": _FORMAT_VERSION,
        "m": system.m,
        "n": system.n,
        "beta": system.beta,
        "corrupted_indices": [int(i) for i in system.corrupted_indices],
        "x_star": [float(v) for v in system.x_star],
        "spec": asdict(spec) if spec is not None else None,
    }
    write_json(meta, out / "metadata.json")
    return out


# Values per block: each temporary of a block (25 bytes of text per value at
# most) stays below glibc's 128 KiB mmap threshold, so no block maps pages.
# A block holds whole rows, so a row longer than this is a block of its own.
_BLOCK = 4096


def _split(a):
    """Veltkamp's split of doubles into 26-bit halves with a sum that is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The writer's lookup tables, built at its first use, not at import:

    - the ASCII of 0000..9999 as uint32 words, then the same with trailing
      zeros as empty (0) bytes, which the last nonzero group of a 17-digit
      integer, and the zero groups after it, read;
    - 10**k for k = 0..22, exact doubles, and their Veltkamp halves."""
    quad = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):  # digit k of the index runs along axis k
        quad[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - k))
    quad = quad.reshape(10_000, 4)
    kept = quad != ord("0")
    for k in (2, 1, 0):
        kept[:, k] |= kept[:, k + 1]
    pow10 = 10.0 ** np.arange(23)
    return np.concatenate([quad, quad * kept]).view(np.uint32).ravel(), pow10, *_split(pow10)


def _product_pow10(a, k):
    """a * 10**k as p + err, exactly, for 0 <= k <= 22: Dekker's two-product
    of a and 10**k, which is an exact double."""
    _, pow10, pow10_hi, pow10_lo = _tables()
    p = a * pow10[k]
    a_hi, a_lo = _split(a)
    p10_hi, p10_lo = pow10_hi[k], pow10_lo[k]
    return p, a_lo * p10_lo - (((p - a_hi * p10_hi) - a_lo * p10_hi) - a_hi * p10_lo)


def _times_pow10(a, k):
    """a * 10**k rounded to an integer, ties to even, for 0 <= k <= 22; exact
    where the product lies in [2**53, 2**63), and within 1 below that.
    With a * 10**k = p + err, p is then an even integer, so rounding err
    rounds the sum."""
    p, err = _product_pow10(a, k)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _csv_text(values, seps) -> np.ndarray:
    """The bytes of ``format(v, ".17g") + sep`` for each value and separator.

    Where 1e-4 <= |v| < 1e15, v's 17 significant digits are the integer
    round(|v| * 10**(16 - e)) in [10**16, 10**17), e the decimal exponent, and
    they are laid out by e in a 25-byte slot: 0.000ddd or ddd.ddd, with no
    trailing zeros and no bare point.  Other values (zeros, and those below
    1e-4 or from 1e15 up) take ``format`` itself."""
    count = values.size
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int8)
    digits = _times_pow10(a, 16 - e)
    off = (digits >= 10**17).view(np.int8) - (digits < 10**16).view(np.int8)
    if off.any():  # log10 rounded across a power of ten, or the digits rounded up to one
        e += off
        digits = _times_pow10(a, 16 - e)
    lead, rest = np.divmod(digits, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    ascii_quads = _tables()[0]
    quads = np.empty((count, 5), np.uint32)  # bytes 3..19: the 17 digits
    trimmed = np.full(count, 10_000)
    for j in (3, 2, 1, 0):
        quads[:, j + 1] = ascii_quads[groups[j] + trimmed]
        trimmed *= groups[j] == 0
    quads.view(np.uint8)[:, 3] = lead + ord("0")

    order = np.argsort(e, kind="stable")
    digits = np.take(quads, order, axis=0).view(np.uint8)[:, 3:]
    text = np.zeros((count, 25), np.uint8)  # sign, up to 23 bytes, separator
    lo = 0
    for x, hi in enumerate(np.cumsum(np.bincount(e + 4)), start=-4):
        t, d = text[lo:hi], digits[lo:hi]
        lo = hi
        if x >= 0:
            t[:, 1:x + 2] = d[:, :x + 1] | ord("0")  # integer digits keep their zeros
            t[:, x + 2] = np.where(d[:, x + 1] != 0, ord("."), 0)
            t[:, x + 3:19] = d[:, x + 1:]
        else:
            t[:, 1:2 - x] = list(b"0.000"[:1 - x])
            t[:, 2 - x:19 - x] = d
    slots = np.empty_like(text)
    slots.view("V25")[order] = text.view("V25")
    slots[:, 0] = np.where(values < 0, ord("-"), 0)
    slots[:, 24] = seps
    for i in np.flatnonzero(~fast):
        other = format(float(values[i]), ".17g").encode()
        slots[i, :24] = 0
        slots[i, :len(other)] = np.frombuffer(other, np.uint8)
    return slots[slots != 0]


def _write_csv(path: Path, table: np.ndarray) -> None:
    """Write a 2-D float array as CSV: each value's ".17g" text, commas
    within a row, a newline after it; a block of whole rows at a time."""
    m, n = table.shape
    rows = max(1, _BLOCK // n)
    seps = np.tile(np.array([ord(",")] * (n - 1) + [ord("\n")], np.uint8), rows)
    with open(path, "wb") as fh:
        for start in range(0, m, rows):
            values = table[start:start + rows].ravel()
            fh.write(_csv_text(values, seps[:values.size]))


def write_json(payload: dict, path: Path) -> Path:
    """Write ``payload`` as the package's JSON artifacts are written: sorted
    keys, two-space indent, a final newline, and no NaN or infinity.  A numpy
    number is written as its Python value.  The text is built before the file
    is opened, so a payload that cannot be written leaves no file."""
    # np.generic.item raises TypeError on anything that is not a numpy scalar.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=np.generic.item)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_table(path, header: str, rows) -> Path:
    """Write ``rows`` under the ``header`` line as the package's experiment
    CSVs are written: a float (Python or numpy) as its ``repr``, a bool as
    ``true`` or ``false``, None as an empty field, anything else as ``str``.
    The text is built before the file is opened, so a table that cannot be
    written leaves no file."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + text)
    return path


# Bytes per read: the reader parses a block of whole lines at a time, and each
# temporary of a block (three uint64 words per field of about 20 bytes) stays
# below glibc's 128 KiB mmap threshold.  A longer line grows the buffer.
_READ = 96 * 1024
# Bytes kept before a block: a field's 24-byte window ends at its separator.
_PAD = 24


def _each_byte(byte: int) -> int:
    """A uint64 word with ``byte`` in each of its eight bytes."""
    return byte * 0x0101010101010101


@functools.cache
def _read_tables() -> tuple[np.ndarray, ...]:
    """The reader's lookup tables, built at its first use, not at import:

    - for a field of L bytes (L = 0..25, 25 standing for more), the mask of
      the bytes of each word of its 24-byte window that it holds;
    - for the bit 8i + j that marks a point in byte i of word j, the count of
      digits after the point, 23 - 8j - i; 99 for j > 2, and for bit -1, no
      point;
    - 10**f as uint64 for f = 0..22, capped at 10**19, which is above the
      digits of every field that takes the fast path."""
    outside = np.clip(24 - np.arange(26) - 8 * np.arange(3)[:, None], 0, 8)
    keep = np.left_shift(np.uint64(2**64 - 1), (8 * outside).astype(np.uint64))
    bit = np.arange(64)
    after = np.where(bit & 7 < 3, 23 - 8 * (bit & 7) - (bit >> 3), 99)
    return keep, after, np.uint64(10) ** np.minimum(np.arange(23), 19).astype(np.uint64)


def _csv_values(buf: bytearray, end: int, n: int, line: int) -> np.ndarray:
    """The values of the whole CSV lines in ``buf[_PAD:end]``, which follow
    ``line`` lines of the file, as float() reads each field; raises ValueError
    unless each line holds n fields.

    A field ``[-]digits.digits`` of at most 24 bytes and 18 digits takes the
    fast path.  The 24 bytes up to its separator are read as three uint64
    words; the bytes before the field are masked to 0 digits and the point is
    read as a 0, and multiply-shift steps on the words (Lemire's SWAR) give
    D', the digits with the point as a 0.  The value is D / 10**f, with f
    digits F after the point and D = (D' - F) / 10 + F.  Its first quotient
    q = fl(D) / 10**f is corrected by c, the residual D - q * 10**f (exact by
    Dekker's two-product) over 10**f, and s = fl(q + c) is kept where
    |D / 10**f - s| <= |q + c - s| + |c| * 2**-51, the first term exact
    (Fast2Sum) and the second the rounding of c, lies strictly within half
    the smaller ulp beside s: then s is the correctly rounded value.  Every
    other field, and the rare near-tie, takes :func:`_exact_values`."""
    keep, after, pow10_int = _read_tables()
    pow10 = _tables()[1]
    text = np.frombuffer(buf, np.uint8, end)
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    count = seps.size
    breaks = text[seps] == ord("\n")
    if count % n or not breaks[n - 1::n].all() or np.count_nonzero(breaks) != count // n:
        wrong = breaks != (np.arange(count) % n == n - 1)
        raise ValueError(f"line {line + np.argmax(wrong) // n + 1} does not hold n={n} values")
    starts = np.empty_like(seps)
    starts[0] = _PAD
    starts[1:] = seps[:-1] + 1
    neg = text[starts] == ord("-")
    size = seps - starts - neg
    windows = np.ndarray((end - 23,), "V24", buffer=text, strides=(1,))
    d = np.bitwise_xor(windows[seps - 24].view("<u8").reshape(count, 3).T, _each_byte(ord("0")),
                       out=np.empty((3, count), np.uint64))
    d &= np.take(keep, np.minimum(size, 25), axis=1)
    # A digit byte now holds its value and a point 0x1E.  The borrow trick
    # marks the lowest zero byte of d ^ 0x1E exactly; a false mark lies above
    # a true one, and a field with two marks is refused.
    z = d ^ _each_byte(0x1E)
    point = z - _each_byte(1)
    point &= ~z
    point &= _each_byte(0x80)
    d ^= (point >> 7) * 0x1E
    bad = ((d + _each_byte(6)) | d) & _each_byte(0xF0)  # a byte that is no digit
    d *= 10 * 2**8 + 1
    d >>= 8
    d &= 0x00FF00FF00FF00FF
    d *= 100 * 2**16 + 1
    d >>= 16
    d &= 0x0000FFFF0000FFFF
    d *= 10_000 * 2**32 + 1
    d >>= 32  # each word's 8 digits, the first the most significant
    mark = (point[0] >> 7) | (point[1] >> 6) | (point[2] >> 5)
    f = after[np.frexp(mark.astype(np.float64))[1] - 1]
    fast = ((bad[0] | bad[1] | bad[2] | (mark & (mark - 1))) == 0) & (d[0] < 100)
    fast &= (f <= 22) & (size <= 24)
    np.minimum(d[0], 99, out=d[0])  # D' < 2**63 in every field, fast or not
    np.minimum(f, 22, out=f)
    digits = d[0] * 10**16 + d[1] * 10**8 + d[2]
    frac = digits % pow10_int[f]
    digits -= frac
    digits //= 10
    digits += frac
    whole = digits.astype(np.float64)
    rest = digits.view(np.int64) - whole.astype(np.int64)  # D - fl(D), exact
    scale = pow10[f]
    q = whole / scale
    p, err = _product_pow10(q, f)
    c = (((whole - p) + rest) - err) / scale  # whole - p is exact (Sterbenz)
    s = q + c
    gap = np.abs((q - s) + c)
    gap += np.abs(c) * 2**-50  # twice the bound, for the rounding of this sum
    fast &= gap < (s - (s.view(np.int64) - 1).view(np.float64)) / 2
    sign = s.view(np.uint64)
    sign |= neg.astype(np.uint64) << 63
    slow = np.flatnonzero(~fast)
    if slow.size:
        s[slow] = _exact_values(buf, starts[slow], seps[slow])
    return s


def _exact_values(buf: bytearray, starts, ends) -> np.ndarray:
    """float() of each field ``buf[start:end]``, through numpy's bytes-to-float
    cast, which rounds correctly.  The cast reads a field up to a NUL byte
    and, as float() does, skips a '_' between digits; both are refused here."""
    for byte in b"_\0":
        if buf.find(byte, starts[0], ends[-1]) >= 0:
            raise ValueError(f"a field holds {bytes([byte])!r}")
    fields = zip(starts.tolist(), ends.tolist())
    return np.array([bytes(buf[s:e]) for s, e in fields]).astype(np.float64)


def _read_csv(path: Path, m: int, n: int) -> np.ndarray:
    """The m x n values of a CSV file, parsed a block of whole lines at a time
    into one preallocated array; raises ValueError unless the file holds m
    lines of n comma-separated numbers.  The final newline may be missing."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 2 * m * n - 1:  # each value takes a byte and a separator
            raise ValueError(f"{size} bytes cannot hold {m}x{n} values")
        values = np.empty((m, n))
        flat = values.reshape(-1)
        done = 0
        buf = bytearray(_PAD + _READ + 1)  # the last byte is kept for a final newline
        filled = _PAD
        while True:
            with memoryview(buf) as view:
                got = fh.readinto(view[filled:-1])
            filled += got
            if not got and filled > _PAD:
                buf[filled] = ord("\n")
                filled += 1
            end = buf.rfind(b"\n", _PAD, filled) + 1
            if end:
                block = _csv_values(buf, end, n, done // n)
                if done + block.size > flat.size:
                    raise ValueError(f"more than m={m} lines")
                flat[done:done + block.size] = block
                done += block.size
                buf[_PAD:_PAD + filled - end] = buf[end:filled]
                filled -= end - _PAD
            elif filled == len(buf) - 1:  # a line longer than the buffer
                buf.extend(bytes(len(buf)))
            if not got:
                break
    if done < flat.size:
        raise ValueError(f"{done // n} lines, metadata says m={m}")
    return values


def _check(ok, path: Path, mismatch: str) -> None:
    if not ok:
        raise IoError(f"{path}: {mismatch}")


def _parse(path: Path, read):
    """``read(path)``, with the ``ValueError`` of a malformed file, or the
    ``OverflowError`` of a number too large for its array, raised as an
    :class:`IoError` naming it."""
    try:
        return read(path)
    except (ValueError, OverflowError) as exc:
        raise IoError(f"{path}: {exc}") from exc


# The metadata values load_system reads, with the types their numbers may
# have (a JSON true or false is neither); a list type means a list of them.
_META_TYPES = {"m": (int,), "n": (int,), "beta": (int, float),
               "x_star": [int, float], "corrupted_indices": [int]}
# The file that holds each field, by the first word of the constructor's refusal.
_FILES = {"system": "matrix.csv", "b_observed": "b_observed.csv", "x_star": "metadata.json",
          "corrupted_indices": "metadata.json"}


def load_system(directory) -> CorruptedSystem:
    """Read a system written by :func:`save_system`; raises :class:`IoError`
    naming the file when it is not JSON or CSV of numbers, when a metadata
    value is missing or of the wrong type, or m or n is below 1, when a CSV
    does not hold m lines of n values (one for b_observed), when
    :class:`CorruptedSystem` refuses what it holds, or when beta is not the
    corrupted indices' share of the m rows."""
    src = Path(directory)
    meta_path = src / "metadata.json"
    meta = _parse(meta_path, lambda p: json.loads(p.read_text(encoding="utf-8")))
    _check(isinstance(meta, dict), meta_path, "not a JSON object")
    version = meta.get("format_version")
    _check(version == _FORMAT_VERSION, meta_path,
           f"format_version {version!r}, expected {_FORMAT_VERSION}")
    for key, kinds in _META_TYPES.items():
        value = meta.get(key)
        _check(isinstance(value, list) and all(type(v) in kinds for v in value)
               if isinstance(kinds, list) else type(value) in kinds,
               meta_path, f"{key} is missing or of the wrong type")
    m, n = meta["m"], meta["n"]
    _check(m >= 1 and n >= 1, meta_path, f"m={m} and n={n} must be at least 1")
    matrix = _parse(src / "matrix.csv", lambda p: _read_csv(p, m, n))
    b_observed = _parse(src / "b_observed.csv", lambda p: _read_csv(p, m, 1)[:, 0])
    x_star = _parse(meta_path, lambda p: np.asarray(meta["x_star"], dtype=float))
    indices = _parse(meta_path, lambda p: np.asarray(meta["corrupted_indices"], dtype=np.intp))
    try:
        system = CorruptedSystem(
            matrix=matrix,
            x_star=x_star,
            b_observed=b_observed,
            corrupted_indices=indices,
        )
    except ConfigError as exc:
        raise IoError(f"{src / _FILES[str(exc).split()[0]]}: {exc}") from exc
    _check(meta["beta"] == system.beta, meta_path,
           f"beta {meta['beta']!r} is not the corrupted share {indices.size}/{m}")
    return system

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

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError, domain, domain_check, is_finite, is_int, is_seed, one_of
from .linalg import as_array, is_row_normalized, row_normalize

FAMILIES = ("gaussian", "coherent")
PLACEMENTS = ("uniform", "given-indices")

_FORMAT_VERSION = 3


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
# On-disk round trip: one .npy file per array, which holds its bits, beside
# metadata.json.  A system was checked when it was built, so save_system
# writes any system that load_system reads back.

# The dtype of each field's file, <field>.npy.
_ARRAYS = {"matrix": np.dtype(float), "b_observed": np.dtype(float), "x_star": np.dtype(float),
           "corrupted_indices": np.dtype(np.int64)}
# The file that holds each field, by the first word of the constructor's refusal.
_FILES = {"system": "matrix.npy", "b_observed": "b_observed.npy", "x_star": "x_star.npy",
          "corrupted_indices": "corrupted_indices.npy"}


def save_system(
    system: CorruptedSystem, directory, spec: GeneratorSpec | None = None
) -> Path:
    """Write ``system`` to ``directory``, made if missing.  The metadata is
    built first: a ``spec`` that is neither a :class:`GeneratorSpec` nor None
    raises :class:`ConfigError`, and nothing is written."""
    if spec is not None and not isinstance(spec, GeneratorSpec):
        raise ConfigError(f"spec must be a GeneratorSpec or None, got {spec!r}")
    text = _json_text({"format_version": _FORMAT_VERSION,
                       "spec": asdict(spec) if spec is not None else None})
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, dtype in _ARRAYS.items():
        # A new file, not a truncated one: by default ext4 starts writing a
        # file truncated to zero back to disk as it is closed, which made a
        # save over a saved system three times slower.
        path = out / f"{name}.npy"
        path.unlink(missing_ok=True)
        np.save(path, np.asarray(getattr(system, name), dtype=dtype, order="C"))
    (out / "metadata.json").write_text(text, encoding="utf-8")
    return out


def _json_text(payload: dict) -> str:
    # np.generic.item raises TypeError on anything that is not a numpy scalar.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=np.generic.item) + "\n"


def write_json(payload: dict, path: Path) -> Path:
    """Write ``payload`` as the package's JSON artifacts are written: sorted
    keys, two-space indent, a final newline, and no NaN or infinity.  A numpy
    number is written as its Python value.  The text is built before the file
    is opened, so a payload that cannot be written leaves no file."""
    text = _json_text(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
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


def _check(ok, path: Path, mismatch: str) -> None:
    if not ok:
        raise IoError(f"{path}: {mismatch}")


def _open(path: Path):
    """``path`` opened for reading bytes; an ``OSError``, a missing file
    included, is raised as an :class:`IoError` naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IoError(f"{path}: {exc.strerror or exc}") from exc


def _read_array(path: Path, dtype: np.dtype) -> np.ndarray:
    """The values of the .npy file ``path`` in a new array of the shape its
    header declares; raises :class:`IoError` naming the file unless that
    header declares ``dtype`` and C order and exactly the bytes of that shape
    follow it, both checked before the array is allocated.  No pickled object
    is loaded."""
    with _open(path) as fh:
        try:
            major, _ = np.lib.format.read_magic(fh)
            header = (np.lib.format.read_array_header_1_0 if major == 1
                      else np.lib.format.read_array_header_2_0)(fh)
        except ValueError as exc:  # an empty or cut file included
            raise IoError(f"{path}: not a .npy file: {exc}") from exc
        shape, fortran, found = header
        _check(not fortran and found == dtype, path,
               f"holds a {found} array of shape {shape} in {'Fortran' if fortran else 'C'} "
               f"order, expected {dtype} in C order")
        size = path.stat().st_size - fh.tell()
        _check(min(shape, default=0) >= 0 and size == dtype.itemsize * math.prod(shape), path,
               f"holds {size} bytes of data, expected {dtype.itemsize} for each value of "
               f"shape {shape}")
        values = np.empty(shape, dtype)
        _check(fh.readinto(values) == size, path, "changed while it was read")
    return values


def load_system(directory) -> CorruptedSystem:
    """Read a system written by :func:`save_system`; raises :class:`IoError`
    naming the file when one is missing, when the metadata is not a JSON
    object of this format version, when an array file is not a .npy of its
    dtype in C order holding exactly the values its header declares, or when
    :class:`CorruptedSystem` refuses what the arrays hold."""
    src = Path(directory)
    meta_path = src / "metadata.json"
    with _open(meta_path) as fh:
        try:
            meta = json.loads(fh.read())
        except ValueError as exc:
            raise IoError(f"{meta_path}: {exc}") from exc
    _check(isinstance(meta, dict), meta_path, "not a JSON object")
    version = meta.get("format_version")
    _check(version == _FORMAT_VERSION, meta_path,
           f"format_version {version!r}, expected {_FORMAT_VERSION}")
    arrays = {name: _read_array(src / f"{name}.npy", dtype) for name, dtype in _ARRAYS.items()}
    try:
        return CorruptedSystem(**arrays)
    except ConfigError as exc:
        raise IoError(f"{src / _FILES[str(exc).split()[0]]}: {exc}") from exc

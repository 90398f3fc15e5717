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

from .errors import ConfigError, IoError, domain, domain_check, is_seed, one_of
from .linalg import is_row_normalized, row_normalize

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
    indices: tuple[int, ...] | None = None

    __post_init__ = domain_check


@dataclass(frozen=True)
class GeneratorSpec:
    family: str = one_of(FAMILIES)
    m: int
    n: int
    seed: int
    corruption: CorruptionSpec = field(default_factory=CorruptionSpec)

    __post_init__ = domain_check


@dataclass(frozen=True)
class CorruptedSystem:
    """A system with solution ``x_star`` and an observed right-hand side that
    differs from the consistent one, ``matrix @ x_star``, exactly on
    ``corrupted_indices``.

    The matrix rows are checked for unit norm once, at construction
    (:class:`ConfigError` otherwise), and ``matrix`` is then a read-only view of
    the array passed in, so an in-place write cannot break that check.
    """

    matrix: np.ndarray
    x_star: np.ndarray
    b_observed: np.ndarray
    corrupted_indices: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if not is_row_normalized(matrix):
            raise ConfigError("system matrix must have unit-norm rows")
        view = matrix.view()
        view.flags.writeable = False
        object.__setattr__(self, "matrix", view)

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
        mask = np.zeros(self.m, dtype=bool)
        mask[self.corrupted_indices] = True
        return mask


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
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in c.indices):
            raise ConfigError(f"given indices must be integers, got {c.indices!r}")
        if len(set(c.indices)) != len(c.indices):
            raise ConfigError("given indices must be unique")
        if not all(0 <= i < spec.m for i in c.indices):
            raise ConfigError("given indices out of range")
        if c.beta != 0.0:
            raise ConfigError(f"placement 'given-indices' takes its rows from indices, "
                              f"so beta must be unset (0), got {c.beta}")
    elif c.indices is not None:
        raise ConfigError("placement 'uniform' draws its rows from beta, so indices must be unset")


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
        raise ConfigError(f"an m={spec.m} by n={spec.n} matrix needs {8 * spec.m * spec.n} "
                          "bytes, more than could be allocated") from None

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
    if n < 2 or clean_rows < 1 or dup_rows < 1 or not is_seed(seed) or not math.isfinite(target):
        raise ConfigError("need n >= 2, clean_rows >= 1, dup_rows >= 1, a non-negative integer "
                          f"seed and a finite target, got n={n}, clean_rows={clean_rows}, "
                          f"dup_rows={dup_rows}, seed={seed!r}, target={target!r}")
    rng_matrix, rng_xstar, rng_dup = _streams(seed, 3)

    clean = rng_matrix.standard_normal((clean_rows, n))
    row_normalize(clean, out=clean)
    a_dup = row_normalize(rng_dup.standard_normal((1, n)))[0]
    matrix = np.vstack([clean, np.tile(a_dup, (dup_rows, 1))])
    m = clean_rows + dup_rows

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
# On-disk round trip: matrix.csv, b_observed.csv, metadata.json.  Floats are
# written with 17 significant digits so the decimal form round-trips exactly.

def save_system(
    system: CorruptedSystem, directory, spec: GeneratorSpec | None = None
) -> Path:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "matrix.csv", system.matrix, fmt="%.17g", delimiter=",")
    np.savetxt(out / "b_observed.csv", system.b_observed, fmt="%.17g")
    meta = {
        "format_version": _FORMAT_VERSION,
        "m": system.m,
        "n": system.n,
        "beta": system.beta,
        "corrupted_indices": [int(i) for i in system.corrupted_indices],
        "x_star": [float(v) for v in system.x_star],
        "spec": asdict(spec) if spec is not None else None,
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return out


def _check(ok, path: Path, mismatch: str) -> None:
    if not ok:
        raise IoError(f"{path}: {mismatch}")


def _parse(path: Path, read):
    """``read(path)``, with the ``ValueError`` of a malformed file raised as
    an :class:`IoError` naming it."""
    try:
        return read(path)
    except ValueError as exc:
        raise IoError(f"{path}: {exc}") from exc


# The metadata values load_system reads, with the types their numbers may
# have (a JSON true or false is neither); a list type means a list of them.
_META_TYPES = {"m": (int,), "n": (int,), "beta": (int, float),
               "x_star": [int, float], "corrupted_indices": [int]}


def load_system(directory) -> CorruptedSystem:
    """Read a system written by :func:`save_system`; raises :class:`IoError`
    naming the file when it is not JSON or CSV of numbers, when a metadata
    value is missing or of the wrong type, or when what it holds disagrees
    with the metadata, repeats or leaves [0, m) in the corrupted indices, is
    not finite, or has matrix rows that are not unit-norm, or when beta is
    not the corrupted indices' share of the m rows."""
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
    matrix = _parse(src / "matrix.csv", lambda p: np.loadtxt(p, delimiter=",", ndmin=2))
    b_observed = _parse(src / "b_observed.csv", lambda p: np.loadtxt(p, ndmin=1))
    x_star = np.asarray(meta["x_star"], dtype=float)
    indices = np.asarray(meta["corrupted_indices"], dtype=np.intp)
    _check(matrix.shape == (m, n), src / "matrix.csv",
           f"matrix is {matrix.shape[0]}x{matrix.shape[1]}, metadata says {m}x{n}")
    _check(b_observed.shape == (m,), src / "b_observed.csv",
           f"{b_observed.size} entries, expected m={m}")
    _check(x_star.shape == (n,), meta_path, f"x_star has {x_star.size} entries, expected n={n}")
    _check(len(set(indices.tolist())) == indices.size and np.all((indices >= 0) & (indices < m)),
           meta_path, f"corrupted_indices must be unique and lie in [0, {m})")
    _check(meta["beta"] == indices.size / m, meta_path,
           f"beta {meta['beta']!r} is not the corrupted share {indices.size}/{m}")
    for path, values in ((src / "matrix.csv", matrix), (src / "b_observed.csv", b_observed),
                         (meta_path, x_star)):
        _check(np.all(np.isfinite(values)), path, "non-finite entry")
    try:  # the constructor checks the rows for unit norm
        return CorruptedSystem(
            matrix=matrix,
            x_star=x_star,
            b_observed=b_observed,
            corrupted_indices=indices,
        )
    except ConfigError as exc:
        raise IoError(f"{src / 'matrix.csv'}: {exc}") from exc

"""
Moment estimation and covariance diagnostics.

Expected returns are sample column means of a T x n panel of per-period
simple returns; the covariance is the unbiased (T-1 denominator) sample
covariance. Every covariance handed to the solvers is wrapped in a
:class:`CovMatrix`, which caches the spectral decomposition

    Sigma = V diag(rho_1, ..., rho_n) V',   rho_1 >= ... >= rho_n > 0,

so that all downstream linear solves reuse the same eigendata that the
angle bounds need. A shrink toward the identity, w I + (1 - w) Sigma, keeps
V and maps each rho to w + (1 - w) rho (:meth:`CovMatrix.toward_identity`),
so it costs O(n^2) and no second decomposition. A shrink toward the
diagonal D = diag(Sigma) does the same through the correlation matrix
R = D^-1/2 Sigma D^-1/2 = Q Lambda Q', decomposed once per covariance and
kept with it: w D + (1 - w) Sigma = D^1/2 Q (w + (1 - w) Lambda) Q' D^1/2
(:meth:`CovMatrix.toward_diagonal`). Its own eigenvalues, which only its
condition number needs, cost one ``eigvalsh`` when first read; its own
eigenpairs, which QOQC and the worst-case pair need, cost one ``eigh``.
Near-singular sample covariances are repaired by clipping eigenvalues at a
floor relative to the largest one.

A process that loads the same file bytes again gets back the panel it parsed
and, for that panel, the moments it estimated: one entry each, so a script of
requests on one unchanged file parses it and decomposes its covariance once.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricCovariance,
    ConvergenceFailure,
    DegenerateAlpha,
    DimensionError,
    NonFiniteData,
    NonPositiveParameter,
    SingularCovariance,
)

# Relative symmetry tolerance for accepting covariance entries.
SYMMETRY_RTOL = 1e-12
# Relative Frobenius tolerance for the spectral reconstruction check.
RECONSTRUCTION_RTOL = 1e-10
# Eigenvalue floor, relative to rho_1, below which repair/rejection kicks in.
EIGEN_FLOOR_RATIO = 1e-10
# Column means closer than this are considered degenerate (all equal).
DEGENERATE_ALPHA_TOL = 1e-14


# The memo of the last successful load, (file bytes, panel), and of the last
# moments, (panel, spd_repair, alpha, covariance, repair warning text or None).
_last_load: tuple[bytes, ReturnsPanel] | None = None
_last_moments: tuple | None = None


class SpdRepairWarning(UserWarning):
    """Emitted when a sample covariance had its spectrum floored."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def as_vector(x) -> np.ndarray:
    """Coerce AlphaVector / Portfolio / array-like to a 1-D float array."""
    entries = getattr(x, "entries", None)
    if entries is None:
        entries = getattr(x, "weights", x)
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


# The checks of a program parameter, shared by ``solvers`` and ``diversity``.
def _require_finite(name: str, value: float) -> float:
    """``value`` as a float, refused before any arithmetic if it is inf or nan."""
    value = float(value)
    if not np.isfinite(value):
        raise NonPositiveParameter(f"{name} must be finite, got {value}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise NonPositiveParameter(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ReturnsPanel:
    """T x n panel of per-period simple returns with asset identifiers."""

    assets: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionError(f"returns panel must be 2-D, got shape {rows.shape}")
        t, n = rows.shape
        if n < 2:
            raise DimensionError(f"need at least 2 assets, got {n}")
        if t < 2:
            raise DimensionError(f"need at least 2 periods, got {t}")
        if len(self.assets) != n:
            raise DimensionError(
                f"{len(self.assets)} asset names for {n} return columns"
            )
        if len(set(self.assets)) != n:
            raise NonFiniteData("asset identifiers must be unique")
        if not np.all(np.isfinite(rows)):
            raise NonFiniteData("returns panel contains non-finite entries")
        object.__setattr__(self, "assets", tuple(str(a) for a in self.assets))
        object.__setattr__(self, "rows", _frozen_array(rows))


@dataclass(frozen=True)
class AlphaVector:
    """Expected per-period returns (decimal fractions)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"alpha must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise DimensionError(f"alpha needs at least 2 entries, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteData("alpha contains non-finite entries")
        object.__setattr__(self, "entries", _frozen_array(arr))


def _sign_fix_columns(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first significantly nonzero component positive."""
    mags = np.abs(vectors)
    pivots = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    flip = vectors[pivots, np.arange(vectors.shape[1])] < 0
    fixed = vectors.copy()
    fixed[:, flip] *= -1.0
    return fixed


def _symmetrized(entries) -> np.ndarray:
    """Validated covariance entries, averaged with their transpose."""
    mat = np.asarray(entries, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"covariance must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise DimensionError("covariance needs dimension >= 2")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteData("covariance contains non-finite entries")
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        raise SingularCovariance("covariance is identically zero")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * scale:
        raise AsymmetricCovariance(
            "covariance asymmetry exceeds relative tolerance "
            f"{SYMMETRY_RTOL:g}"
        )
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-definite covariance, held with a factor.

    The factor is Sigma = S U diag(mu) U' S: ``basis`` U is orthogonal,
    ``spectrum`` mu is descending and positive, and S = diag(``scale``) is a
    positive diagonal scaling, the identity when ``scale`` is None. Unscaled,
    U and mu are Sigma's own eigenvectors and eigenvalues. Scaled (see
    :meth:`toward_diagonal`), they are the spectrum of S^-1 Sigma S^-1, and
    Sigma's own ``eigenvalues`` (one ``eigvalsh``) and :attr:`eigenpairs`
    (one ``eigh``) are computed when first read. Either way :meth:`solve`
    and the factor L = S U diag(sqrt(mu)), Sigma = L L', cost O(n^2).
    """

    entries: np.ndarray
    spectrum: np.ndarray
    basis: np.ndarray
    scale: np.ndarray | None = None

    @classmethod
    def from_entries(cls, entries) -> "CovMatrix":
        sym = _symmetrized(entries)
        try:
            ascending, vectors = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
        return cls._from_eigh(sym, ascending, vectors)

    @classmethod
    def _from_eigh(cls, sym, ascending, vectors) -> "CovMatrix":
        """Wrap ``sym`` (from :func:`_symmetrized`) and the ``eigh`` of it."""
        order = np.argsort(ascending)[::-1]
        rho = ascending[order]
        vecs = _sign_fix_columns(vectors[:, order])
        if rho[-1] <= 0.0:
            raise SingularCovariance(
                f"smallest eigenvalue {rho[-1]:g} is not strictly positive"
            )
        recon = (vecs * rho) @ vecs.T
        err = np.linalg.norm(recon - sym) / np.linalg.norm(sym)
        if not err <= RECONSTRUCTION_RTOL:
            raise ConvergenceFailure(
                f"spectral reconstruction error {err:g} exceeds {RECONSTRUCTION_RTOL:g}"
            )
        return cls(entries=_frozen_array(sym), spectrum=_frozen_array(rho),
                   basis=_frozen_array(vecs))

    @classmethod
    def identity(cls, n: int) -> "CovMatrix":
        """I_n with the unit vectors as its eigenvectors; no decomposition."""
        eye = _frozen_array(_symmetrized(np.eye(n)))
        return cls(entries=eye, spectrum=_frozen_array(np.ones(n)), basis=eye)

    def toward_identity(self, w: float) -> "CovMatrix":
        """w I + (1 - w) Sigma for w in [0, 1], from Sigma's own spectrum.

        The eigenvectors are Sigma's own (shared, not copied) and each
        eigenvalue maps to w + (1 - w) rho, so no ``eigh`` and no
        reconstruction check run once Sigma's spectrum is known; w = 0 gives
        back that spectrum bit for bit and w = 1 gives :meth:`identity`.
        """
        if w == 1.0:
            return self.identity(self.dim)
        own = self._own
        entries = w * np.eye(self.dim) + (1.0 - w) * self.entries
        return CovMatrix(entries=_frozen_array(entries),
                         spectrum=_frozen_array(w + (1.0 - w) * own.spectrum),
                         basis=own.basis)

    def toward_diagonal(self, w: float) -> "CovMatrix":
        """w diag(Sigma) + (1 - w) Sigma for w in [0, 1], through the spectrum
        of the correlation matrix.

        With D = diag(Sigma) and R = D^-1/2 Sigma D^-1/2 = Q Lambda Q', the
        shrunk matrix is D^1/2 (w I + (1 - w) R) D^1/2: the factor of
        ``R.toward_identity(w)`` scaled by d^1/2, so it solves in O(n^2) (the
        symmetric-definite pencil Sigma x = lambda D x; Golub & Van Loan,
        *Matrix Computations*, 8.7). R is decomposed by :meth:`from_entries`,
        with its checks, at the first 0 < w < 1, and its spectrum is kept
        with this matrix. The entries are the convex combination's own bits;
        the shrunk matrix's ``eigenvalues`` and ``eigenpairs`` are computed
        when first read. w = 0 gives back this matrix, and w = 1 gives D with
        its own spectrum: the sorted variances and the unit vectors.
        """
        if w == 0.0:
            return self
        diagonal = np.diag(self.entries)
        entries = _frozen_array(w * np.diag(diagonal) + (1.0 - w) * self.entries)
        if w == 1.0:
            order = np.argsort(diagonal)[::-1]
            return CovMatrix(entries=entries, spectrum=_frozen_array(diagonal[order]),
                             basis=_frozen_array(np.eye(self.dim)[:, order]))
        lam, basis = self._correlation
        return CovMatrix(entries=entries, spectrum=_frozen_array(w + (1.0 - w) * lam),
                         basis=basis, scale=_frozen_array(np.sqrt(diagonal)))

    @cached_property
    def _correlation(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda, Q) of R = D^-1/2 Sigma D^-1/2 = Q Lambda Q'."""
        root = np.sqrt(np.diag(self.entries))
        r = CovMatrix.from_entries(self.entries / np.outer(root, root))
        return r.spectrum, r.basis

    @property
    def _own(self) -> "CovMatrix":
        """This matrix factored by its own spectrum: itself unless scaled."""
        return self if self.scale is None else self._decomposed

    @cached_property
    def _decomposed(self) -> "CovMatrix":
        return CovMatrix.from_entries(self.entries)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Sigma's eigenvalues, descending; ``eigvalsh`` of the entries, on
        first read, for a scaled matrix, whatever :attr:`eigenpairs` holds."""
        if self.scale is None:
            return self.spectrum
        rho = np.linalg.eigvalsh(self.entries)[::-1]
        if not rho[-1] > 0.0:
            raise SingularCovariance(
                f"smallest eigenvalue {rho[-1]:g} is not strictly positive"
            )
        return _frozen_array(rho)

    @property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho, V): Sigma's eigenvalues, descending, and its orthonormal
        eigenvectors as columns, from one decomposition (one ``eigh`` of the
        entries, on first read, for a scaled matrix)."""
        own = self._own
        return own.spectrum, own.basis

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def condition_number(self) -> float:
        """Ratio of extreme eigenvalues, rho_max / rho_min >= 1."""
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    def _vector(self, x) -> np.ndarray:
        vec = as_vector(x)
        if vec.size != self.dim:
            raise DimensionError(f"vector length {vec.size} != dimension {self.dim}")
        return vec

    def solve(self, x) -> np.ndarray:
        """Sigma^-1 x = S^-1 U diag(1/mu) U' S^-1 x."""
        vec, s = self._vector(x), self.scale
        coeffs = self.basis.T @ (vec if s is None else vec / s)
        # 1/mu times coeffs, not coeffs / mu: every artifact's last bits rest on it
        out = self.basis @ (self.spectrum**-1.0 * coeffs)
        return out if s is None else out / s

    def whiten(self, x) -> np.ndarray:
        """L^-1 x for the factor L = S U diag(sqrt(mu)); |L^-1 x|^2 = x'Sigma^-1 x."""
        vec, s = self._vector(x), self.scale
        return (self.basis.T @ (vec if s is None else vec / s)) / np.sqrt(self.spectrum)

    def risk_coordinates(self, x) -> np.ndarray:
        """L'x for the factor L = S U diag(sqrt(mu)); |L'x|^2 = x'Sigma x."""
        vec, s = self._vector(x), self.scale
        return np.sqrt(self.spectrum) * (self.basis.T @ (vec if s is None else s * vec))

    def quad(self, x) -> float:
        """Quadratic form x' Sigma x."""
        vec = as_vector(x)
        return float(vec @ self.entries @ vec)


def estimate_moments(
    panel: ReturnsPanel, spd_repair: bool = True
) -> tuple[AlphaVector, CovMatrix]:
    """Sample mean and unbiased sample covariance, SPD-repaired if needed.

    With ``spd_repair`` enabled (the default) any eigenvalue of the sample
    covariance below ``EIGEN_FLOOR_RATIO * rho_1`` is clipped to that floor
    and the matrix reconstructed; a :class:`SpdRepairWarning` records the
    intervention. With repair disabled the same situation raises
    :class:`SingularCovariance`.

    The last result is kept with its panel: a call on that same panel object
    with the same ``spd_repair`` returns the same (read-only) pair without
    decomposing again, and warns again if the repair did.
    """
    global _last_moments
    memo = _last_moments
    if memo is None or memo[0] is not panel or memo[1] != bool(spd_repair):
        memo = (panel, bool(spd_repair), *_estimate(panel, spd_repair))
        _last_moments = memo
    _, _, alpha, cov, repair = memo
    if repair is not None:
        warnings.warn(repair, SpdRepairWarning, stacklevel=2)
    return alpha, cov


def _estimate(panel: ReturnsPanel, spd_repair: bool):
    """:func:`estimate_moments`' pair, and its repair warning's text or None."""
    alpha = panel.rows.mean(axis=0)
    if np.ptp(alpha) <= DEGENERATE_ALPHA_TOL:
        raise DegenerateAlpha(
            "all column means equal within "
            f"{DEGENERATE_ALPHA_TOL:g}; frontier scalars would degenerate"
        )
    sample = np.cov(panel.rows, rowvar=False, ddof=1)
    sample = 0.5 * (sample + sample.T)
    rho, vecs = np.linalg.eigh(sample)
    if rho[-1] <= 0.0:
        raise SingularCovariance("sample covariance has no positive eigenvalue")
    floor = EIGEN_FLOOR_RATIO * rho[-1]
    repair = None
    if rho[0] <= floor:
        if not spd_repair:
            raise SingularCovariance(
                f"smallest eigenvalue {rho[0]:g} below floor {floor:g} "
                "and SPD repair is disabled"
            )
        repair = (f"sample covariance eigenvalues clipped at {floor:g} "
                  f"(smallest was {rho[0]:g})")
        rho = np.maximum(rho, floor)
        sample = (vecs * rho) @ vecs.T
    # ``_symmetrized`` returns the exactly symmetric sample's bits unchanged,
    # and averages a floored one with its transpose; either way ``_from_eigh``
    # checks that (rho, vecs) reconstructs the entries.
    return AlphaVector(alpha), CovMatrix._from_eigh(_symmetrized(sample), rho, vecs), repair


# One record as the csv module reads it: fields split at commas, the record
# ends at a line break; a field that opens with a quote runs, line breaks
# included, to its closing quote ("" stands for a quote inside it).
_CSV_FIELD = r'(?:"[^"]*(?:""[^"]*)*"?)?[^,\r\n]*'
_CSV_RECORD = re.compile(rf"{_CSV_FIELD}(?:,{_CSV_FIELD})*(?:\r\n?|\n|\Z)")


def _first_fault(raw: bytes) -> str:
    """Name the first fault of CSV bytes that ``np.loadtxt`` rejected.

    Scans the bytes cell by cell, so that the message names the offending
    byte, or the row and column at fault; rows are numbered as in the file
    with blank lines skipped and the header as row 1. A row
    the ``csv`` module cannot read (a cell longer than its field size limit,
    which numpy reads) is named only if no later row names a fault; the
    records are split before ``csv`` reads them, so such a row never shifts
    the rows after it. Returns an empty string if every cell is a number to
    numpy.
    """
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        return f"byte 0x{raw[exc.start]:02x} at offset {exc.start} is not UTF-8"
    # end of the records read so far, rows read so far, header width (None if
    # csv cannot read the header), and the first row csv cannot read
    end, i, n, unreadable = 0, 0, None, ""
    while end < len(text):
        record = _CSV_RECORD.match(text, end)
        end = record.end()
        try:
            row = next(csv.reader([record.group()]), [])
        except csv.Error as exc:
            i += 1
            unreadable = unreadable or f"row {i} cannot be read as CSV: {exc}"
            continue
        if not row:
            continue
        i += 1
        if i == 1:
            n = len(row)
            continue
        if n is not None and len(row) != n:
            return f"row {i} has {len(row)} cells, expected {n}"
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                return f"missing cell at row {i}, column {j + 1}"
            if not _is_number(cell):
                return f"cell at row {i}, column {j + 1} is not a number: {cell!r}"
    return unreadable


def _is_number(cell: str) -> bool:
    """Whether numpy parses ``cell``: ``float`` syntax without the digit-group
    underscores and non-ASCII digits that only ``float`` takes."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_returns_csv(path) -> ReturnsPanel:
    """Read a returns panel from UTF-8 CSV.

    First row holds the asset names; every following row holds one period of
    simple returns as decimal fractions. A cell is an ASCII number, quoted or
    not, with optional spaces around it; blank lines are skipped. A missing
    or blank cell is a hard error -- there is no imputation.

    The last panel read is kept with the bytes it was parsed from: a file
    whose bytes equal them gives back that same panel, unparsed. A load that
    raises leaves the memo as it was.
    """
    global _last_load
    with open(path, "rb") as handle:
        raw = handle.read()
    last = _last_load
    if last is not None and last[0] == raw:
        return last[1]
    panel = _parse_returns(path, raw)
    _last_load = (raw, panel)
    return panel


def _parse_returns(path, raw: bytes) -> ReturnsPanel:
    """The panel :func:`load_returns_csv` reads from ``raw``, the bytes of
    ``path`` (named in its errors)."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as handle:
        try:
            header = next((row for row in csv.reader(handle) if row), None)
            first = next((line for line in handle if line.strip("\r\n")), None)
            data = None if first is None else np.loadtxt(
                itertools.chain([first], handle), delimiter=",", comments=None,
                quotechar='"', ndmin=2, dtype=float)
        except (ValueError, csv.Error) as exc:
            raise NonFiniteData(f"{path}: {_first_fault(raw) or exc}") from exc
    if data is None:
        raise NonFiniteData(f"{path}: need a header row and at least one data row")
    if data.shape[1] != len(header):
        fault = _first_fault(raw) or f"{data.shape[1]} columns for {len(header)} assets"
        raise NonFiniteData(f"{path}: {fault}")
    return ReturnsPanel(assets=tuple(name.strip() for name in header), rows=data)

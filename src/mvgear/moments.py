"""
Moment estimation and covariance diagnostics.

Expected returns are sample column means of a T x n panel of per-period
simple returns; the covariance is the unbiased (T-1 denominator) sample
covariance. Every covariance handed to the solvers is wrapped in a
:class:`CovMatrix`, which caches the spectral decomposition

    Sigma = V diag(rho_1, ..., rho_n) V',   rho_1 >= ... >= rho_n > 0,

so that all downstream linear solves reuse the same eigendata that the
angle bounds need. A shrink w T + (1 - w) Sigma toward T = I or
T = D = diag(Sigma) follows one rule (:meth:`CovMatrix.shrink`): w lands on
one frame, whose factor maps its spectrum mu to w + (1 - w) mu. Toward I
that frame is Sigma's own, V, so the shrink costs O(n) and no second
decomposition; toward D it is the correlation matrix
R = D^-1/2 Sigma D^-1/2 = Q Lambda Q', decomposed once per covariance and
kept with it: w D + (1 - w) Sigma = D^1/2 Q (w + (1 - w) Lambda) Q' D^1/2.
A shrink holds only its factor and forms no n x n array until its entries
are read. Its own eigenvalues cost one ``eigvalsh`` when first read, and
its own eigenpairs, which QOQC needs, one ``eigh``. The diagonal shrink's
condition number kappa~(w) costs one ``eigvalsh`` per weight per
covariance: it is kept with Sigma, beside R's decomposition and D, and a
sweep bounds what is kept to its own grid
(:meth:`CovMatrix.toward_diagonal_condition`).
Near-singular sample covariances are repaired by clipping eigenvalues at a
floor relative to the largest one.

A process that loads the same file bytes again gets back the panel it parsed
and, for that panel, the moments it estimated: one entry each, so a script of
requests on one unchanged file parses it and decomposes its covariance once.
Once the file has been seen unchanged for ``TRUST_WINDOW_S``, a load of it
reads no bytes either (:func:`load_returns_csv`).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
import stat
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AsymmetricCovariance,
    ConvergenceFailure,
    DegenerateAlpha,
    DimensionError,
    InvalidK,
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
# The smallest normal float: a squared norm below it has lost digits.
_TINY = float(np.finfo(float).tiny)
# Seconds (on time.monotonic) between two byte-verified loads of one file
# identity and change time before that key alone serves the panel: at least
# the coarsest common filesystem timestamp granularity (FAT's 2 s).
TRUST_WINDOW_S = 2.0
# Only POSIX's st_ctime is the time of the last change to a file.
_POSIX = os.name == "posix"


class _Loaded(NamedTuple):
    """The memo of the last successful load."""

    raw: bytes
    panel: ReturnsPanel
    # the file's _stat_key when its bytes were last read and found equal to raw
    key: tuple | None
    # time.monotonic() just after the first such load with that key was stat'ed
    seen: float
    # whether a load with that key TRUST_WINDOW_S or more after ``seen`` matched too
    trusted: bool


# The memo of the last successful load, and that of the last moments:
# (panel, spd_repair, alpha, covariance, repair warning text or None).
_last_load: _Loaded | None = None
_last_moments: tuple | None = None
# The identity of the last dimension asked for (CovMatrix.identity).
_last_identity: CovMatrix | None = None


class SpdRepairWarning(UserWarning):
    """Emitted when a sample covariance had its spectrum floored."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``."""
    return _frozen(np.array(values, dtype=dtype))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only: for an array no one else holds."""
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


def _square(v: np.ndarray) -> float:
    """v'v as ``np.linalg.norm`` forms it (the same product, over v in memory
    order), but without the warning ``dot`` gives when it overflows."""
    x = v.ravel(order="K")
    return float(np.vdot(x, x))


def _binary_scaled(v: np.ndarray) -> tuple[np.ndarray, float, int]:
    """(u, |u|, e) with v = 2^e u, for a float array v and its 2-norm
    (Frobenius for a matrix).

    A norm squares without rescaling, so a finite nonzero v whose squared
    norm overflows, or falls below the smallest normal float, is first
    scaled by a power of two to a largest entry in [1/2, 1), which is
    exact. Every other v is u itself, e = 0 and |u| has norm's bits.
    """
    square = _square(v)
    if not _TINY <= square < math.inf and np.any(v) and np.isfinite(v).all():
        v, e = _unit_scaled(v)
        return v, math.sqrt(_square(v)), e
    return v, math.sqrt(square), 0


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(u, e) with v = 2^e u and u's largest entry in [1/2, 1) in magnitude,
    for a finite nonzero float array v: a scale by a power of two."""
    e = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -e), e


def _dots(u: np.ndarray, v: np.ndarray):
    """u'v of two vectors, or of each pair of rows of two (k, n) stacks, as a
    (k, 1) column."""
    return float(u @ v) if u.ndim == 1 else np.add.reduce(u * v, axis=1, keepdims=True)


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


@dataclass(frozen=True, eq=False)
class _Frame:
    """The (U, S) of a factor S U diag(mu) U' S: an orthogonal ``basis`` U and
    a positive diagonal scaling S = diag(``scale``), the identity when
    ``scale`` is None. Every shrink of one matrix toward the same target
    changes only mu, so its matrices share one frame and the product
    U'S^-1 1 kept with it (:attr:`ones`)."""

    basis: np.ndarray
    scale: np.ndarray | None = None

    def project(self, vec: np.ndarray) -> np.ndarray:
        """U'S^-1 vec, one product with the basis."""
        s = self.scale
        return self.basis.T @ (vec if s is None else vec / s)

    @cached_property
    def ones(self) -> np.ndarray:
        """U'S^-1 1, formed on first read and shared by every matrix on this frame."""
        return self.project(np.ones(self.basis.shape[0]))


class CovMatrix:
    """Symmetric positive-definite covariance, held with a factor.

    The factor is Sigma = S U diag(mu) U' S: ``basis`` U is orthogonal,
    ``spectrum`` mu is descending and positive, and S = diag(``scale``) is a
    positive diagonal scaling, the identity when ``scale`` is None. Unscaled,
    U and mu are Sigma's own eigenvectors and eigenvalues. Scaled (see
    :meth:`shrink`), they are the spectrum of S^-1 Sigma S^-1, and
    Sigma's own ``eigenvalues`` (one ``eigvalsh``) and :attr:`eigenpairs`
    (one ``eigh``) are computed when first read. Either way :meth:`solve`
    and the factor L = S U diag(sqrt(mu)), Sigma = L L', cost O(n^2).

    A shrink (:meth:`shrink`) holds only its factor: it forms no n x n array
    until its ``entries`` are read, and then forms them once, with the
    convex combination's own bits. Shrinks on one frame can also be held as
    one stack (:meth:`stack`), whose ``spectrum`` is (k, n), one row per
    matrix: a frontier object on a stack (``solvers.FrontierScalars``)
    solves all k at once.

    :meth:`coordinates` and :meth:`from_coordinates` are the two halves of a
    solve, one product with the basis each. Sigma^-1 1, its coordinates and
    A = 1'Sigma^-1 1 (:attr:`inverse_ones`) are formed once per matrix from
    U'S^-1 1, which is formed once per (U, S) pair and shared by every
    shrink on it, so a frontier of (alpha, Sigma) (``solvers.FrontierScalars``)
    adds one product for alpha.
    """

    def __init__(self, entries, spectrum, basis, scale=None):
        self.__dict__.update(entries=entries, spectrum=spectrum, _frame=_Frame(basis, scale))

    @classmethod
    def _factored(cls, spectrum, frame: _Frame, form) -> "CovMatrix":
        """The matrix S U diag(``spectrum``) U' S of ``frame``, whose entries
        ``form()`` returns when they are first read."""
        cov = cls.__new__(cls)
        cov.__dict__.update(spectrum=spectrum, _frame=frame, _form=form)
        return cov

    def __setattr__(self, name, value):
        raise AttributeError(f"CovMatrix is read-only: cannot set {name!r}")

    @cached_property
    def entries(self) -> np.ndarray:
        """Sigma's entries; a shrink forms them here, on first read."""
        return _frozen(self._form())

    @property
    def basis(self) -> np.ndarray:
        return self._frame.basis

    @property
    def scale(self) -> np.ndarray | None:
        return self._frame.scale

    @classmethod
    def from_entries(cls, entries) -> "CovMatrix":
        sym = _symmetrized(entries)
        try:
            ascending, vectors = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
        cov = cls._from_eigh(sym, ascending, vectors)
        if np.any(cov.spectrum[1:] == cov.spectrum[:-1]):
            # eigh orders tied eigenvectors freely: sort them by their largest entry's row
            order = np.lexsort((np.abs(cov.basis).argmax(axis=0), -cov.spectrum))
            cov = cls(cov.entries, _frozen_array(cov.spectrum[order]),
                      _frozen_array(cov.basis[:, order]))
        return cov

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
        # norms scaled by powers of two only when a plain square over- or underflows
        _, num, e_num = _binary_scaled(recon - sym)
        _, den, e_den = _binary_scaled(sym)
        err = math.ldexp(num / den, e_num - e_den)
        if not err <= RECONSTRUCTION_RTOL:
            raise ConvergenceFailure(
                f"spectral reconstruction error {err:g} exceeds {RECONSTRUCTION_RTOL:g}"
            )
        # Copied, though new here: frozen in place, they left glibc's heap laid
        # out so that each later n = 200 ``estimate`` re-faulted its ~3 MB of
        # text (5.5x the page faults, 8% slower on a 2-core host).
        return cls(entries=_frozen_array(sym), spectrum=_frozen_array(rho),
                   basis=_frozen_array(vecs))

    @classmethod
    def identity(cls, n: int) -> "CovMatrix":
        """I_n with the unit vectors as its eigenvectors; no decomposition.
        One frozen array is both its entries and its basis, and its U'1 is 1,
        formed by no product. The identity of the last dimension asked for is
        kept, so a full shrink at the same n allocates nothing n x n."""
        global _last_identity
        if n < 2:
            raise DimensionError("covariance needs dimension >= 2")
        if _last_identity is None or _last_identity.dim != n:
            eye, ones = _frozen(np.eye(n)), _frozen(np.ones(n))
            _last_identity = cls(entries=eye, spectrum=ones, basis=eye)
            _last_identity._frame.__dict__["ones"] = ones
        return _last_identity

    def stack(self, w) -> "CovMatrix":
        """The matrices S U diag(w_j + (1 - w_j) mu) U' S of this matrix's
        factor S U diag(mu) U' S, one for each weight w_j of ``w``, held as one
        stack on its frame, with no entries: row j of its (k, n) ``spectrum``
        is w_j + (1 - w_j) mu. Each frame of :meth:`shrink_frames` stacks its
        shrinks so, and :meth:`shrink` is one row of such a stack."""
        w = np.asarray(w, dtype=float)[:, None]
        return CovMatrix._factored(_frozen(w + (1.0 - w) * self.spectrum), self._frame, None)

    def shrink_frames(self, w, diagonal: bool = False):
        """The frame each shrink w T + (1 - w) Sigma of weights ``w`` lands on,
        toward T = I, or T = D = diag(Sigma) if ``diagonal``: per frame
        (fits, base, mapped), the mask of the weights it holds, the matrix
        ``base()`` whose factor holds them, and whether their stack is
        ``base().stack(w)``, or at an end point base itself, ``stack(0)``.
        Toward I, 0 <= w < 1 lands on Sigma's own frame and w = 1 on the identity;
        toward D, w = 0 on Sigma, 0 < w < 1 on R's frame scaled by d^1/2
        (:attr:`on_correlation`) and w = 1 on D, the sorted variances on the
        unit vectors. A weight outside [0, 1], or nan, lands on none."""
        w = np.asarray(w, dtype=float)
        if not diagonal:
            return (((0.0 <= w) & (w < 1.0), lambda: self._own, True),
                    (w == 1.0, lambda: CovMatrix.identity(self.dim), False))
        return ((w == 0.0, lambda: self, False),
                ((0.0 < w) & (w < 1.0), lambda: self.on_correlation, True),
                (w == 1.0, lambda: self._diagonal, False))

    def shrink(self, w: float, diagonal: bool = False) -> "CovMatrix":
        """w T + (1 - w) Sigma for w in [0, 1], toward T = I, or T = D = diag(Sigma)
        if ``diagonal`` (the pencil Sigma x = lambda D x; Golub & Van Loan,
        *Matrix Computations*, 8.7): the row at w of its frame's stack
        (:meth:`shrink_frames`), with the entries :meth:`_shrunk_entries`
        forms when first read, or at an end point the identity, Sigma or D
        itself. No ``eigh`` runs once the frame is known."""
        for fits, base, mapped in self.shrink_frames(w, diagonal):
            if fits:
                base = base()
                if not mapped:
                    return base
                return CovMatrix._factored(base.stack([w]).spectrum[0], base._frame,
                                           lambda: self._shrunk_entries(w, diagonal))
        raise InvalidK(f"shrink weight {w} outside [0, 1]")

    def _shrunk_entries(self, w: float, diagonal: bool) -> np.ndarray:
        """w T + (1 - w) Sigma, formed, T = diag(Sigma) if ``diagonal`` else I."""
        target = np.diag(np.diag(self.entries)) if diagonal else np.eye(self.dim)
        return w * target + (1.0 - w) * self.entries

    @cached_property
    def _diagonal(self) -> "CovMatrix":
        """The shrink toward the diagonal at 1, kept: D with its own spectrum."""
        diagonal = np.diag(self.entries)
        order = np.argsort(-diagonal, kind="stable")  # ties as in from_entries
        return CovMatrix._factored(_frozen(diagonal[order]),
                                   _Frame(_frozen(np.eye(self.dim)[:, order])),
                                   lambda: self._shrunk_entries(1.0, True))

    def toward_diagonal_condition(self, w: float) -> float:
        """The condition number kappa~ of :meth:`shrink` toward the diagonal at
        w in (0, 1), from one ``eigvalsh`` of its entries, formed and not kept.
        kappa~ is kept with this matrix, per weight, beside
        :attr:`on_correlation` and :attr:`_diagonal`, so w asked for again
        costs no ``eigvalsh``; :meth:`keep_diagonal_conditions` bounds the
        weights kept. A kappa~ that raises is not kept."""
        w = float(w)
        kept = self.__dict__.setdefault("_diagonal_conditions", {})
        kappa = kept.get(w)
        if kappa is None:
            rho = _descending_eigenvalues(self._shrunk_entries(w, True))
            kappa = kept[w] = float(rho[0] / rho[-1])
        return kappa

    def keep_diagonal_conditions(self, weights) -> None:
        """Forget the kappa~ kept (:meth:`toward_diagonal_condition`) at each
        weight not in ``weights``: a sweep keeps at most its own grid's."""
        kept = self.__dict__.get("_diagonal_conditions")
        if kept:
            keep = set(np.asarray(weights, dtype=float).ravel().tolist())
            self.__dict__["_diagonal_conditions"] = {
                w: kappa for w, kappa in kept.items() if w in keep}

    @cached_property
    def on_correlation(self) -> "CovMatrix":
        """This matrix factored through its correlation matrix: with
        D = diag(Sigma) and R = D^-1/2 Sigma D^-1/2 = Q Lambda Q', it is
        D^1/2 Q Lambda Q' D^1/2, whose :meth:`stack` at w is the stack of
        :meth:`shrink` toward the diagonal at w. R is decomposed once, here."""
        root = np.sqrt(np.diag(self.entries))
        r = CovMatrix.from_entries(self.entries / np.outer(root, root))
        return CovMatrix(self.entries, r.spectrum, r.basis, _frozen(root))

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
        return _descending_eigenvalues(self.entries)

    @property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho, V): Sigma's eigenvalues, descending, and its orthonormal
        eigenvectors as columns, from one decomposition (one ``eigh`` of the
        entries, on first read, for a scaled matrix)."""
        own = self._own
        return own.spectrum, own.basis

    @property
    def dim(self) -> int:
        return self.spectrum.shape[-1]

    @property
    def condition_number(self) -> float:
        """Ratio of extreme eigenvalues, rho_max / rho_min >= 1."""
        return float(self.eigenvalues[0] / self.eigenvalues[-1])

    def _vector(self, x) -> np.ndarray:
        vec = as_vector(x)
        if vec.size != self.dim:
            raise DimensionError(f"vector length {vec.size} != dimension {self.dim}")
        return vec

    def coordinates(self, x) -> np.ndarray:
        """c = diag(1/mu) U' S^-1 x, the coordinates of Sigma^-1 x = S^-1 U c;
        x'Sigma^-1 x = c' diag(mu) c, a sum of non-negative terms."""
        # 1/mu times coeffs, not coeffs / mu: every artifact's last bits rest on it
        return self.spectrum**-1.0 * self._frame.project(self._vector(x))

    def from_coordinates(self, c) -> np.ndarray:
        """S^-1 U c; each row of a (k, n) ``c`` alike, by one product."""
        out = self.basis @ c if c.ndim == 1 else c @ self.basis.T
        return out if self.scale is None else out / self.scale

    @cached_property
    def inverse_ones(self) -> tuple[np.ndarray, np.ndarray | None, float]:
        """(x, Sigma^-1 1, A): the coordinates of Sigma^-1 1, that vector and
        A = x' diag(mu) x, formed on first read and kept with this matrix.
        x = diag(1/mu) U'S^-1 1 takes U'S^-1 1 from the frame, in O(n) once
        any matrix on it has formed that product: :meth:`coordinates`' bits.
        A stack gets x per row, A as a (k, 1) column, and no vector."""
        x = self.spectrum**-1.0 * self._frame.ones
        vector = self.from_coordinates(x) if x.ndim == 1 else None
        return x, vector, _dots(x, self.spectrum * x)

    def solve(self, x) -> np.ndarray:
        """Sigma^-1 x = S^-1 U diag(1/mu) U' S^-1 x."""
        return self.from_coordinates(self.coordinates(x))

    def whiten(self, x) -> np.ndarray:
        """L^-1 x for the factor L = S U diag(sqrt(mu)); |L^-1 x|^2 = x'Sigma^-1 x."""
        return self._frame.project(self._vector(x)) / np.sqrt(self.spectrum)

    def risk_coordinates(self, x) -> np.ndarray:
        """L'x for the factor L = S U diag(sqrt(mu)); |L'x|^2 = x'Sigma x."""
        vec, s = self._vector(x), self.scale
        return np.sqrt(self.spectrum) * (self.basis.T @ (vec if s is None else s * vec))

    def quad(self, x) -> float:
        """Quadratic form x' Sigma x."""
        vec = as_vector(x)
        return float(vec @ self.entries @ vec)


def _descending_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """The eigenvalues of symmetric ``entries``, descending, by one ``eigvalsh``;
    raises SingularCovariance unless the smallest is positive."""
    try:
        rho = np.linalg.eigvalsh(entries)[::-1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigenvalues failed: {exc}") from exc
    if not rho[-1] > 0.0:
        raise SingularCovariance(
            f"smallest eigenvalue {rho[-1]:g} is not strictly positive"
        )
    return _frozen_array(rho)


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
    with np.errstate(over="ignore", invalid="ignore"):
        sample = np.cov(panel.rows, rowvar=False, ddof=1)
    # two reductions, no array: a NaN or an infinity reaches the max or the min
    if not (np.isfinite(sample.max()) and np.isfinite(sample.min())):
        raise NonFiniteData("sample covariance overflows: the returns are too large "
                            "to square")
    sample = 0.5 * (sample + sample.T)
    try:
        rho, vecs = np.linalg.eigh(sample)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
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
    whose bytes equal them gives back that same panel, unparsed. Each load
    also takes the open file's key (device, inode, size, mtime and ctime in
    ns, from ``fstat`` before reading). Once two loads whose bytes matched
    have seen one key at least ``TRUST_WINDOW_S`` apart, a load with that key
    returns the panel without reading the file; any other load reads and
    compares, as does every load of a non-regular file or off POSIX. This
    holds because, after trust, any change to the bytes moves the ctime,
    given that
      - the kernel updates ctime on every change to the content, and no
        call can set it back;
      - filesystem timestamps are no coarser than ``TRUST_WINDOW_S``;
      - the filesystem clock advances over ``TRUST_WINDOW_S``, so a change
        after the second load is stamped later than the key's ctime,
        whatever that clock's offset from this process's clock.
    A load that raises leaves the memo as it was.
    """
    global _last_load
    last = _last_load
    with open(path, "rb") as handle:
        key = _stat_key(handle)
        now = time.monotonic()
        if key is not None and last is not None and last.trusted and last.key == key:
            return last.panel
        raw = handle.read()
    if last is not None and last.raw == raw:
        # the memo keeps its own bytes: holding the fresh copy raised peak RSS
        if key is None or key != last.key:
            _last_load = last._replace(key=key, seen=now, trusted=False)
        elif now - last.seen >= TRUST_WINDOW_S:
            _last_load = last._replace(trusted=True)
        return last.panel
    panel = _parse_returns(path, raw)
    _last_load = _Loaded(raw, panel, key, now, False)
    return panel


def _stat_key(handle) -> tuple | None:
    """(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns) of the open
    ``handle``, or None unless it is a regular file on POSIX."""
    if not _POSIX:
        return None
    st = os.fstat(handle.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


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

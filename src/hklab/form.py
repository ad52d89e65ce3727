"""Dirichlet form assembly, spectra, resolvents, and eigenvalue checkers.

The generator convention is the ordered-pair one:

    (L f)(x) = 2 * sum_y (f(x) - f(y)) j(x,y) mu(y),

so that <L f, f>_mu equals the double sum over ordered pairs
sum_{x,y} (f(x)-f(y))^2 j(x,y) mu(x) mu(y).  J is symmetric, so every form
holds L as S = W^(1/2) L W^(-1/2), whose off-diagonal entries are the closed
form -2 j(x,y) sqrt(mu(x)) sqrt(mu(y)) of ``_generator_block``, each equal to
its transpose entry bit for bit; its diagonal is L's.  Dirichlet parts are
principal submatrices of S: the diagonal keeps the jumps that leave the
domain, which act as killing.

A full form keeps the generator diagonal and its eigenbasis, but no dense S
and no kernel matrix: J is read as a measure on blocks of atoms, one row
chunk or one D x D part at a time, from ``form.kernel.block``, 0 wherever a
row atom equals a column atom and equal to its transpose entry for entry
(``assemble`` refuses any other kernel).  A form's spectrum is one basis
behind a protocol of six members, ``eigvals``, ``entries``, ``calculus``,
``panels``, ``rows`` and ``composed`` (see above :class:`_DenseBasis`): a
:class:`_DenseBasis` from one ``eigh``, which keeps ``psi``, or, when the
generator commutes with the central reflection of the space, a
:class:`_HalfSpectrum`, the reflection fold over an even and an odd
:class:`_DenseBasis` half, which lays out no N-wide ``psi``; only it knows
the fold.  Dirichlet parts are always solved whole.  A :class:`Truncation`
cuts one full form's jumps at rho: its near form, far kernel and far tail.
A full form's energy is the mu-integral of the kernel's ``energy_density``,
which ``cs_check`` and ``capacity_check`` read from a kernel, with no form.

The ball checkers take their best from :func:`hklab.report.best_of`, and
``cs_check`` the atom of each ball from :func:`hklab.report.extremum`.

Only this module reads a form's ``S``, ``eigvals`` and ``psi``; the other
checkers ask a :class:`SpectralForm` for entries, for its ``basis``, which
streams the kernel in row panels, and this module for parts.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import ParameterError, PointCapExceeded, _require_finite
from .kernel import JumpKernel, energy_density, truncate
from .report import MARGIN_TOL, ConditionReport, best_of, extremum, gate, gate_rows
from .scale import ScaleField, _space_shared_with, phi, phi_inverse
from .space import DENSE_MATRIX_CAP, BallQuery, FiniteMMSpace, _checked_ids, _chunked


def _checked_times(t) -> np.ndarray:
    """One time or a sequence of times as a 1-D float array, refused unless
    each is finite and nonnegative: an infinite time gives exp(-inf * 0),
    NaN, at a zero eigenvalue, and a NaN time fails every comparison a
    checker would make of it."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise ParameterError("times must be finite and nonnegative")
    return times


@dataclass
class SpectralForm:
    """Assembled generator restricted to a domain, with spectral data.

    ``domain`` indexes the ambient space; ``diag`` is the generator's
    diagonal on it; ``basis`` is its eigenbasis, whose ``eigvals`` are
    ascending.  ``jmat_nonzeros`` counts the off-diagonal nonzeros of the
    symmetric kernel, found while assembling.  ``_lambda1`` maps the bytes
    of each domain a part was solved on to the part's lambda_1; a part
    starts with an empty one and never fills it.  ``_outer`` is the domain
    and generator that :func:`_inside` names while its block runs, else None.

    Every spectral operation goes through the six members of ``basis``: a
    :class:`_HalfSpectrum` for a full form that commutes with the central
    reflection, else a :class:`_DenseBasis`, whose mu-orthonormal
    eigenfunction columns are ``psi``; a split form has no ``psi``.

    ``kernel`` is the kernel ``assemble`` was given, which equals its
    transpose entry for entry, else ``assemble`` refuses it.  The form reads
    it by ``kernel.block``, 0 on the diagonal.  Its space is the form's.  A
    Dirichlet part shares the kernel of its full form and keeps its small
    dense symmetric generator ``S``; a full form keeps none.
    """

    kernel: JumpKernel
    domain: np.ndarray
    diag: np.ndarray
    basis: _DenseBasis | _HalfSpectrum
    jmat_nonzeros: int
    S: np.ndarray | None = field(default=None, repr=False)
    _lambda1: dict[bytes, float] = field(default_factory=dict, init=False, repr=False)
    _outer: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False,
                                                          repr=False)

    @property
    def space(self) -> FiniteMMSpace:
        """The space of the form, that of its kernel."""
        return self.kernel.space

    @property
    def eigvals(self) -> np.ndarray:
        """The eigenvalues, ascending."""
        return self.basis.eigvals

    @property
    def psi(self) -> np.ndarray:
        """The mu-orthonormal eigenfunctions of a part or an unsplit form."""
        return self.basis.psi

    @property
    def weights(self) -> np.ndarray:
        return self.space.weights[self.domain]

    @property
    def is_part(self) -> bool:
        """A Dirichlet part keeps its generator ``S``, whatever its domain."""
        return self.S is not None

    def energy(self, f):
        """Quadratic form <L f, f>_mu on the domain, one per row of a 2-D ``f``.

        The full form integrates the kernel's ``energy_density`` against mu,
        one dot per function.  A part, whose generator carries the jumps out
        of its domain as killing, forms g . (S_D g), g = f sqrt(w).
        """
        f = np.asarray(f, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != self.domain.size:
            raise ParameterError(f"f must have {self.domain.size} entries along its last axis")
        fs = np.atleast_2d(f)
        if self.is_part:
            values = np.array([(self.S @ g) @ g for g in fs * np.sqrt(self.weights)])
        else:
            values = np.array([g @ self.weights for g in energy_density(self.kernel, fs)])
        return float(values[0]) if f.ndim == 1 else values

    def _calculus(self, f, filters: np.ndarray, inverse: bool = False) -> list[np.ndarray]:
        """``basis.calculus`` of ``f``, refused unless its first axis is the domain."""
        f = np.asarray(f, dtype=float)
        if f.ndim == 0 or f.shape[0] != self.domain.size:
            raise ParameterError(f"f must have {self.domain.size} entries along its first axis")
        return self.basis.calculus(f, filters, inverse)

    def apply_semigroup(self, t, f) -> np.ndarray:
        """P_t f on the domain by spectral calculus.

        ``t`` may be a sequence of times: the eigen-coefficients of ``f`` are
        then computed once, and row k of the result is P_{t[k]} f.  ``f`` may
        hold one function per column; each result then does too.
        """
        times = _checked_times(t)
        out = np.array(self._calculus(f, np.exp(-times[:, None] * self.eigvals)))
        return out.reshape(times.size, *np.shape(f)) if np.ndim(t) else out[0]

    def heat_kernel(self, t: float) -> np.ndarray:
        """p(t, x, y) on domain x domain from the basis's panel rows; a run
        reads it only on the parts of ``meyer_check``."""
        _checked_times(t)
        p = np.empty((self.domain.size,) * 2)
        for panel, atoms in self.basis.panels():
            p[atoms] = self.basis.rows(panel, t)
        return p

    def heat_kernel_entries(self, t: float, xs, ys) -> np.ndarray:
        """p(t, xs[k], ys[k]) for each k, in O(len(xs) N), no N x N kernel;
        ``xs`` and ``ys`` are equally long lists of positions in the domain."""
        _checked_times(t)
        xs, ys = (_checked_ids(a, self.domain.size) for a in (xs, ys))
        if xs.size != ys.size:
            raise ParameterError("xs and ys must have the same length")
        return self.basis.entries(t, xs, None if np.array_equal(xs, ys) else ys)

    def resolvent(self, lam: float, f) -> np.ndarray:
        """Solve (L + lam) u = f on the domain."""
        if not lam > 0:
            raise ParameterError("resolvent parameter must be positive")
        return self._calculus(f, (self.eigvals + lam)[None], inverse=True)[0]


def _generator_block(j: np.ndarray, sqrt_w_rows: np.ndarray, sqrt_w_cols: np.ndarray
                     ) -> np.ndarray:
    """-2 J[rows, cols] sqrt(w[rows]) sqrt(w[cols]): the block of S off its
    diagonal.  Each entry is its transpose entry bit for bit, J being
    symmetric and the product of two square roots commuting."""
    out = j * -2.0
    out *= np.multiply.outer(sqrt_w_rows, sqrt_w_cols)
    return out


def _part_form(form: SpectralForm, D: np.ndarray, SD: np.ndarray) -> SpectralForm:
    """The part on ``D`` with the small dense symmetric generator ``SD``, which it keeps."""
    basis = _DenseBasis.solve(SD, form.space.weights[D])
    return replace(form, domain=D, diag=SD.diagonal(), basis=basis, S=SD)


# Relative tolerance of the reflection gate: the mirror pairs' coordinates
# against the centre, and the symmetric generator against its reflection.
_SYMMETRY_RTOL = 1e-10


def _symmetry_atol(top: float) -> float:
    """Absolute tolerance of a symmetry test on a matrix whose largest |entry| is ``top``."""
    return _SYMMETRY_RTOL * max(top, 1.0)


def _symmetric_generator(kernel: JumpKernel) -> tuple[np.ndarray, np.ndarray, int]:
    """The symmetric generator S = W^(1/2) L W^(-1/2) of J, the diagonal
    of L, which is S's, and the off-diagonal nonzeros of J.

    One N x N buffer becomes S.  A first pass over row chunks writes the
    rows of J into it, each entry read once, and refuses negative and
    non-finite values.  A second pass takes each chunk's columns from its
    first row down, which hold every pair of a chunk atom with itself or a
    later atom, and refuses the kernel unless they equal the chunk's rows
    entry for entry (by value: +0 equals -0, and one ulp is a difference).
    The diagonal is minus the off-diagonal row sums of L = -2 J W, and the
    chunk's rows become S by ``_generator_block``, so S equals its
    transpose bit for bit.  A chunk whose rows overflow is refused.
    """
    space = kernel.space
    n = space.n_points
    atoms = np.arange(n)
    sym = np.empty((n, n))
    for rows in space._row_chunks():
        j = sym[rows[0]:rows[-1] + 1]
        j[...] = kernel.block(rows, atoms)
        low = j.min()
        if not np.isfinite(np.maximum(j.max(), -low)):  # propagates NaN
            raise ParameterError("kernel has non-finite values (NaN or inf)")
        if low < 0:
            raise ParameterError(f"kernel has a negative jump intensity {float(low)!r}")
    w = space.weights
    sqrt_w = np.sqrt(w)
    diag = np.empty(n)
    nonzeros = 0
    for rows in space._row_chunks():
        part = slice(rows[0], rows[-1] + 1)
        # compared in the layout of the columns, whose rows are contiguous:
        # in that of the rows, each entry of the columns is on its own page,
        # and the pass takes three times as long
        if not np.array_equal(sym[part.start:, part], sym[part, part.start:].T):
            raise ParameterError("kernel must be symmetric: J differs from its transpose")
        j = sym[part]                                        # the chunk's rows of J
        nonzeros += int(np.count_nonzero(j))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            diag[part] = _generator_diagonal(j, rows, w)
            j[...] = _generator_block(j, sqrt_w[rows], sqrt_w)
        j[np.arange(rows.size), rows] = diag[part]
        if not np.isfinite(j).all():                         # the diagonal is in it
            raise ParameterError("kernel too large: its generator overflows a float")
    return sym, diag, nonzeros


def _generator_diagonal(j: np.ndarray, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The diagonal of L = -2 J W at the atoms ``rows`` from their rows ``j``
    of J: minus the off-diagonal row sums of L, 2 sum_y j(x,y) mu(y)."""
    row = j * -2.0                                       # the chunk's rows of L
    row *= w[None, :]
    row[np.arange(rows.size), rows] = 0.0
    return -row.sum(axis=1)


def row_sum_residual(form: SpectralForm) -> float:
    """max_x |diag[x] - 2 sum_y j(x,y) mu(y)| / max |diag| (the absolute
    max when the diagonal is 0) of a full form: its generator diagonal
    against the kernel it reads, in one pass over kernel row chunks, summed
    as ``assemble`` sums them, so an untouched form reads exactly 0."""
    if form.is_part:
        raise ParameterError("the row sums tie the full form's diagonal to its kernel")
    space = form.space
    atoms = np.arange(space.n_points)
    worst = 0.0
    for rows in space._row_chunks():
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf
            sums = _generator_diagonal(form.kernel.block(rows, atoms), rows, space.weights)
        worst = max(worst, float(np.abs(form.diag[rows] - sums).max()))
    top = float(np.abs(form.diag).max())
    return worst / top if top > 0 else worst


def _reflection_pairs(space: FiniteMMSpace) -> tuple[np.ndarray, np.ndarray] | None:
    """Atoms ``A`` and their mirror images ``B`` under the central reflection.

    The reflection maps x to c - x, with c_k the smallest plus the largest
    coordinate on axis k.  It reverses the lexicographic order of the atoms,
    so it pairs the k-th atom in that order with the k-th from the end.
    None unless the metric is the sup metric, which the reflection
    preserves, and every atom has a partner other than itself: N is even
    and every pair sums to c within rounding.
    """
    n = space.n_points
    if space.metric_kind != "sup" or n == 0 or n % 2:
        return None
    coords = space.coords
    order = np.lexsort(coords.T[::-1])                 # first axis first
    A, B = order[: n // 2], order[::-1][: n // 2]
    centre = coords.min(axis=0) + coords.max(axis=0)
    if np.abs(coords[A] + coords[B] - centre).max() > _symmetry_atol(np.abs(coords).max()):
        return None
    return A, B


def _exceeds(diff: np.ndarray, atol: float) -> bool:
    """max |diff| > atol, without an |diff| temporary."""
    return max(float(diff.max()), -float(diff.min())) > atol


def _reflection_blocks(space: FiniteMMSpace, sym: np.ndarray
                       ) -> tuple[tuple[np.ndarray, np.ndarray], list[np.ndarray]] | None:
    """``((A, B), [even, odd])`` when the symmetric matrix ``sym`` commutes
    with the central reflection P of the space, else None.

    With A one atom of each mirror pair and B = P[A], ``sym`` is
    P-invariant when its quarter blocks satisfy S_AA = S_BB and S_AB = S_BA,
    each within ``_symmetry_atol(max |sym|)``.  In the basis
    (e_A +- e_B) / sqrt(2) it is then the direct sum of the even block
    (S_AA + S_BB + S_AB + S_BA) / 2 and the odd block
    (S_AA + S_BB - S_AB - S_BA) / 2.  The quarter blocks are gathered one
    row chunk at a time, so the test and the split make no N x N temporary.
    """
    pairs = _reflection_pairs(space)
    if pairs is None:
        return None
    A, B = pairs
    h = A.size
    atol = _symmetry_atol(max(float(sym.max()), -float(sym.min())))
    even, odd = np.empty((h, h)), np.empty((h, h))
    for rows in space._row_chunks(np.arange(h)):
        part = slice(rows[0], rows[-1] + 1)
        a, b = A[part, None], B[part, None]
        # S_AA against S_BB, then S_AB against S_BA; each difference is kept
        # in this chunk of ``even`` or ``odd`` until the sums replace it
        same = sym[a, A]
        mirror = sym[b, B]
        if _exceeds(np.subtract(same, mirror, out=even[part]), atol):
            return None
        same += mirror
        cross = sym[a, B]
        mirror = sym[b, A]
        if _exceeds(np.subtract(cross, mirror, out=odd[part]), atol):
            return None
        cross += mirror
        del mirror
        np.add(same, cross, out=even[part])
        np.subtract(same, cross, out=odd[part])
    even *= 0.5
    odd *= 0.5
    return (A, B), [even, odd]


def _flush_subnormal(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal entries set to zero, in place.  A decay near
    underflow makes them, and a matrix product runs up to 30 times slower on
    them; none moves a sum of N products by more than N times the smallest
    normal double."""
    a[np.abs(a) < np.finfo(float).tiny] = 0.0
    return a


def _zero_rounding(*spectra: np.ndarray) -> None:
    """Set to exactly 0, in place, each eigenvalue within N eps max |lambda|
    of 0, N and max |lambda| taken over all of ``spectra``, the eigenvalues
    of one matrix.  The eigensolver leaves a zero eigenvalue anywhere within
    about eps max |lambda| of 0, and exp(-t lambda) of a rounded one below 0
    grows without bound in t."""
    floor = (sum(v.size for v in spectra) * np.finfo(float).eps
             * max(np.abs(v).max() for v in spectra))
    for v in spectra:
        v[np.abs(v) <= floor] = 0.0


# Rows per panel of a streamed kernel, in basis rows: a sixteenth of them,
# so that the dozen panels alive at a time stay well under one N x N
# array, but at least the first bound, below which the per-panel overhead
# dominates, and at most the second, beyond which the GEMMs run no faster.
_PANEL_ROWS = (64, 256)


# Every basis answers one protocol of six members, all that the spectral
# operations read of it, each handed data only, no callable: ascending
# ``eigvals``; ``entries(t, xs, ys)``, p(t, xs[k], ys[k]) (``ys`` None stands
# for ``xs``), rows gathered in ``space._chunked`` pieces; ``calculus(f,
# filters, inverse=False)``, psi (h * psi.T W f) for each row h of
# ``filters``, gains in ``eigvals`` order broadcast along f's first axis, or
# psi (psi.T W f / h), the resolvent's exact division, when ``inverse``;
# ``panels()``, its row panels, each with the atoms it covers; and
# ``rows(panel, t, mirrored=False)`` and ``composed(panel, t)``, p(t)[atoms]
# and (p(t) W p(t))[atoms] in atom column order.  ``SpectralForm.heat_kernel``
# fills the whole kernel from the panels.  The kernel blocks a form reads
# beside its basis are 0 wherever a row atom equals a column atom.


class _DenseBasis:
    """``psi`` kept whole, orthonormal against ``weights``."""

    def __init__(self, eigvals: np.ndarray, psi: np.ndarray, weights: np.ndarray):
        self.eigvals, self.psi, self.weights = eigvals, psi, weights

    @classmethod
    def solve(cls, sym: np.ndarray, weights: np.ndarray) -> _DenseBasis:
        """The ascending eigenvalues of the symmetric generator ``sym``,
        rounded zeros made exact, and the mu-orthonormal eigenfunctions, by
        one ``eigh``."""
        eigvals, psi = np.linalg.eigh(sym)
        _zero_rounding(eigvals)
        psi /= np.sqrt(weights)[:, None]
        return cls(eigvals, psi, weights)

    def entries(self, t: float, xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
        """sum_k psi[x, k] exp(-t eigvals[k]) psi[y, k] from the rows of psi,
        those of ``xs`` gathered once when ``ys`` is None."""
        decay = np.exp(-t * self.eigvals)
        out = np.empty(xs.size)
        for part in _chunked(np.arange(xs.size), decay.size):
            rows = self.psi[xs[part]]
            other = rows if ys is None else self.psi[ys[part]]
            out[part] = np.einsum("ij,ij->i", rows * decay, other)
        return out

    def calculus(self, f: np.ndarray, filters, inverse: bool = False) -> list[np.ndarray]:
        along = (slice(None),) + (None,) * (f.ndim - 1)     # a vector along f's first axis
        coef = self.psi.T @ (f * self.weights[along])
        gain = np.divide if inverse else np.multiply
        return [self.psi @ gain(coef, h[along]) for h in filters]

    def panels(self):
        """Consecutive row panels of psi, each covering the atoms of its rows."""
        m = self.eigvals.size
        low, high = _PANEL_ROWS
        step = min(max(m // 16, low), high)
        for start in range(0, m, step):
            panel = np.arange(start, min(start + step, m))
            yield panel, panel

    def rows(self, panel: np.ndarray, t: float, mirrored: bool = False) -> np.ndarray:
        """(psi[panel] exp(-t eigvals)) psi.T, or, ``mirrored``, p(t)[:, panel].T
        with the decay on the other factor, scaled one panel at a time."""
        decay = np.exp(-t * self.eigvals)
        rows = self.psi[panel]
        if mirrored:
            return np.concatenate([rows @ _flush_subnormal(self.psi[cols] * decay).T
                                   for cols, _ in self.panels()], axis=1)
        rows *= decay
        return _flush_subnormal(rows) @ self.psi.T

    def composed(self, panel: np.ndarray, t: float) -> np.ndarray:
        """((p(t)[panel] W) psi) exp(-t eigvals) psi.T: the panel of p(t) W
        p(t) formed through the basis, so that no second kernel is held."""
        rows = self.rows(panel, t)
        rows *= self.weights
        coef = rows @ self.psi
        coef *= np.exp(-t * self.eigvals)
        return _flush_subnormal(coef) @ self.psi.T


class _HalfSpectrum:
    """The eigenbasis of a matrix that ``_reflection_blocks`` split: the
    reflection fold over ``factors``, the unit eigenbases of the even and
    the odd block, each a :class:`_DenseBasis` on unit weights.

    With ``A[k]`` and ``B[k]`` the k-th mirror pair, ``pair`` maps both to k
    and ``sign`` is -1 on B.  An even eigenvector v of the whole matrix is
    (v on A, v on B) / sqrt(2) and an odd one (v on A, -v on B) / sqrt(2);
    the eigenfunctions divide them by sqrt(w).  The rounded zeros of both
    halves are made exact by the floor of the whole matrix.  ``eigvals``
    merges the halves' eigenvalues ascending by a stable sort, so an even
    eigenvalue comes before an equal odd one; ``rank`` maps the halves'
    eigenvalues, even then odd, to their places in it.  Each block is taken
    out of ``blocks`` and freed once it is solved.  Its row panels are
    panels of pairs; no eigenfunction is laid out N wide.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, blocks: list[np.ndarray],
                 weights: np.ndarray):
        self.A, self.B, self.weights = A, B, weights
        unit = np.ones(A.size)
        self.factors = [_DenseBasis(*np.linalg.eigh(blocks.pop(0)), unit) for _ in range(2)]
        _zero_rounding(*(half.eigvals for half in self.factors))
        both = np.concatenate([half.eigvals for half in self.factors])
        order = np.argsort(both, kind="stable")
        self.eigvals = both[order]
        self.rank = np.argsort(order)                      # the inverse permutation
        n = self.eigvals.size
        self.pair = np.empty(n, dtype=int)                 # atom -> its pair's row in the halves
        self.pair[A] = self.pair[B] = np.arange(A.size)
        self.sign = np.ones(n)
        self.sign[B] = -1.0
        self.scale = np.sqrt(2.0 * weights)
        # the columns of A and B; on atoms in lexicographic order, slices,
        # which write a panel's columns several times faster than A and B
        m = A.size
        ordered = np.array_equal(A, np.arange(m)) and np.array_equal(B, np.arange(n - 1, m - 1, -1))
        self.columns = [slice(0, m), slice(n - 1, m - 1, -1)] if ordered else [A, B]

    def entries(self, t: float, xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
        """Entries from the pair rows of both halves: (even(x, y) + s(x) s(y)
        odd(x, y)), s the sign, divided by 2 sqrt(w(x) w(y)), which is
        exactly 2 w on the diagonal.  There s(x) s(x) = 1, so each pair's
        row is read once and its sum serves both its atoms."""
        even, odd = self.factors
        if ys is None:
            pairs, where = np.unique(self.pair[xs], return_inverse=True)
            sums = even.entries(t, pairs, None) + odd.entries(t, pairs, None)
            w = self.weights[xs]
            return sums[where] / (2.0 * np.sqrt(w * w))
        x, y = self.pair[xs], self.pair[ys]
        return ((even.entries(t, x, y)
                 + self.sign[xs] * self.sign[ys] * odd.entries(t, x, y))
                / (2.0 * np.sqrt(self.weights[xs] * self.weights[ys])))

    def calculus(self, f: np.ndarray, filters, inverse: bool = False) -> list[np.ndarray]:
        """g = f sqrt(w) folds into its even part g_A + g_B and its odd part
        g_A - g_B, each half acts on its own with its share of the filters,
        and the two unfold onto A and B and are divided by sqrt(w) again."""
        sqrt_w = np.sqrt(self.weights)[(slice(None),) + (None,) * (f.ndim - 1)]
        g = f * sqrt_w
        a, b = g[self.A], g[self.B]
        even, odd = self.factors
        halves = filters[:, self.rank]
        results = []
        for u, v in zip(even.calculus(a + b, halves[:, :self.A.size], inverse),
                        odd.calculus(a - b, halves[:, self.A.size:], inverse)):
            unfolded = np.empty_like(g)
            unfolded[self.A], unfolded[self.B] = u + v, u - v
            unfolded *= 0.5
            unfolded /= sqrt_w
            results.append(unfolded)
        return results

    def panels(self):
        """The pair panels of the halves, each covering A[panel], then B[panel]."""
        for panel, _ in self.factors[0].panels():
            yield panel, np.concatenate([self.A[panel], self.B[panel]])

    def rows(self, panel: np.ndarray, t: float, mirrored: bool = False) -> np.ndarray:
        return self._unfold(panel, [half.rows(panel, t, mirrored) for half in self.factors])

    def composed(self, panel: np.ndarray, t: float) -> np.ndarray:
        return self._unfold(panel, [half.composed(panel, t) for half in self.factors])

    def _unfold(self, panel: np.ndarray, halves: list[np.ndarray]) -> np.ndarray:
        """The rows of the atoms of the pair panel ``panel``, in atom column
        order, from the same rows of the even and the odd half: even + odd
        on the A-A and B-B quadrants, even - odd on the others, divided by
        ``scale`` at both ends."""
        even, odd = halves
        out = np.empty((2 * panel.size, self.eigvals.size))
        for rows, X in ((slice(None, panel.size), self.A), (slice(panel.size, None), self.B)):
            for Y, cols in zip((self.A, self.B), self.columns):
                p = even + odd if X is Y else even - odd
                p /= self.scale[X[panel], None]
                p /= self.scale[None, Y]
                out[rows, cols] = p
        return out


def _generator_blocks(kernel: JumpKernel) -> tuple:
    """``_symmetric_generator``'s result with its matrix as the blocks to
    solve: ``(None, [sym], diag, nonzeros)``, or, when ``sym``
    commutes with the central reflection of the kernel's space, ``((A, B),
    [even, odd], ...)`` from ``_reflection_blocks``; ``sym`` is then freed
    on return, so only the half-size blocks reach the eigensolve."""
    sym, *rest = _symmetric_generator(kernel)
    pairs, blocks = _reflection_blocks(kernel.space, sym) or (None, [sym])
    return pairs, blocks, *rest


def assemble(kernel: JumpKernel) -> SpectralForm:
    """Assemble the generator of the pure-jump form on the whole space of ``kernel``.

    The symmetric generator is built in place from kernel blocks one row
    chunk at a time, each entry of J read once, so neither a dense generator
    nor the kernel matrix is alive during the eigensolve, which is split
    into two half-size ones when the generator commutes with the central
    reflection of the space.  The kernel is kept as given, and refused
    unless it equals its transpose entry for entry, since the jump measure
    of a symmetric Dirichlet form is symmetric.  Refused above the dense
    cap, where the dense eigensolve would not fit.
    """
    space = kernel.space
    if space.n_points > DENSE_MATRIX_CAP:
        raise PointCapExceeded(space.n_points, DENSE_MATRIX_CAP, dense=True)
    pairs, blocks, diag, nonzeros = _generator_blocks(kernel)
    basis = (_DenseBasis.solve(blocks.pop(), space.weights) if pairs is None
             else _HalfSpectrum(*pairs, blocks, space.weights))
    return SpectralForm(kernel=kernel, domain=np.arange(space.n_points), diag=diag,
                        basis=basis, jmat_nonzeros=nonzeros)


def part_on(form: SpectralForm, D) -> SpectralForm:
    """Dirichlet part on D: principal submatrix of the ambient generator.

    ``D`` must be a nonempty 1-D list of distinct atom indices in 0..N-1.
    The part's lambda_1 is recorded in the form, for :func:`lambda1`.
    """
    D, SD = _part_generator(form, D)
    part = _part_form(form, D, SD)
    form._lambda1[D.tobytes()] = float(part.eigvals[0])
    return part


def _checked_domain(form: SpectralForm, D) -> np.ndarray:
    """``D`` as an integer array, refused unless it can index a part of ``form``."""
    D = np.asarray(D, dtype=int)
    if D.ndim != 1:
        raise ParameterError("domain must be a 1-D list of atom indices")
    if D.size == 0:
        raise ParameterError("domain must be nonempty")
    n = form.space.n_points
    if D.min() < 0 or D.max() >= n:
        raise ParameterError(f"domain indices must lie in 0..{n - 1}")
    if (np.diff(np.sort(D)) == 0).any():
        raise ParameterError("domain indices must be distinct")
    if form.is_part:
        raise ParameterError("take parts of the full-space form")
    return D


def _part_generator(form: SpectralForm, D) -> tuple[np.ndarray, np.ndarray]:
    """The checked domain ``D`` and the principal submatrix S_D of the symmetric
    generator: off its diagonal sliced from the generator that :func:`_inside`
    names when D lies in its domain, else from the D x D kernel block, the
    same closed form of the same kernel entries, bit for bit; on it, the
    generator diagonal."""
    D = _checked_domain(form, D)
    at = None if form._outer is None else _positions(form._outer[0], D)
    if at is None:
        sqrt_w = np.sqrt(form.space.weights[D])
        SD = _generator_block(form.kernel.block(D, D), sqrt_w, sqrt_w)
    else:
        SD = form._outer[1][np.ix_(at, at)]
    np.fill_diagonal(SD, form.diag[D])
    return D, SD


def _positions(domain: np.ndarray, D: np.ndarray) -> np.ndarray | None:
    """The positions in ``domain`` of the atoms ``D``; None unless each is in it."""
    order = np.argsort(domain)
    at = order[np.minimum(np.searchsorted(domain, D, sorter=order), domain.size - 1)]
    return at if np.array_equal(domain[at], D) else None


@contextmanager
def _inside(form: SpectralForm, domain: np.ndarray, S: np.ndarray):
    """In the block, a part of ``form`` on a domain that lies in ``domain``
    slices its generator from ``S``, the ``S`` of the part of ``form`` on
    ``domain``, and reads no kernel block.  Never the ``S`` of a part of
    another form: a near form's part holds other jumps."""
    if S.shape != (domain.size, domain.size):
        raise ParameterError("S must be the generator of a part on the domain")
    outer, form._outer = form._outer, (domain, S)
    try:
        yield
    finally:
        form._outer = outer


def lambda1(form: SpectralForm, D) -> float:
    """Bottom eigenvalue of the Dirichlet part on D (the Rayleigh-quotient infimum).

    A domain that :func:`part_on` has solved is looked up, not solved again
    and not checked again: only a checked 1-D domain of this form is a key.
    Any other domain is checked once, by :func:`part_on`.
    """
    D = np.asarray(D, dtype=int)
    lam = form._lambda1.get(D.tobytes()) if D.ndim == 1 else None
    return lam if lam is not None else float(part_on(form, D).eigvals[0])


def default_time_grid(form: SpectralForm) -> np.ndarray:
    """Nine log-spaced times over [1e-3, 10] times the full form's relaxation time.

    The relaxation time is 1 / the smallest positive eigenvalue; a rounded
    zero eigenvalue is exactly 0 (see ``_zero_rounding``), so it is never
    taken for the spectral gap.
    """
    lam = form.eigvals
    lam = lam[lam > 0]
    relax = 1.0 / lam[0] if lam.size else 1.0
    return relax * np.logspace(-3, 1, 9)


@dataclass(frozen=True, eq=False)
class Truncation:
    """The jumps of the full ``form`` cut at ``rho`` (the Meyer decomposition).

    Built from ``form`` and ``rho`` alone, so its pieces come from one form
    at one radius: ``near`` is the form of the jumps shorter than ``rho``,
    assembled once, ``far`` the kernel of the rest, and ``tail`` the
    read-only far tail sum over d(x,w) >= rho of j(x,w) mu(w), which is
    0.5 (diag_full - diag_near), exactly.  The near and the far kernel are
    the ``truncate`` cuts of ``form.kernel``, each equal to its transpose
    as ``form.kernel`` is, so ``assemble`` keeps the near one as given.
    """

    form: SpectralForm
    rho: float
    near: SpectralForm = field(init=False)
    far: JumpKernel = field(init=False)
    tail: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.form.is_part:
            raise ParameterError("truncate the full-space form, not a Dirichlet part")
        near_kernel, far = truncate(self.form.kernel, self.rho)
        near = assemble(near_kernel)
        tail = 0.5 * (self.form.diag - near.diag)
        tail.flags.writeable = False
        for name, value in (("rho", float(self.rho)), ("near", near), ("far", far),
                            ("tail", tail)):
            object.__setattr__(self, name, value)      # frozen

    def far_top(self) -> float:
        """Largest eigenvalue of the removed generator L - L_near, without
        eigenvectors: the generator of ``far``, built and split like a full
        form's."""
        blocks = _generator_blocks(self.far)[1]
        return float(max(np.linalg.eigvalsh(block)[-1] for block in blocks))

    def killed_part(self, near_part: SpectralForm) -> SpectralForm:
        """The part ``near_part`` of ``near`` plus the killing potential
        2 tail on its domain, added to the diagonal of its own S_D, which the
        similarity W^(1/2) . W^(-1/2) leaves alone: no kernel block is read
        again.  It records no lambda_1, since its generator carries the
        killing."""
        if not near_part.is_part or near_part.kernel is not self.near.kernel:
            raise ParameterError("the killed part is taken of a part of the near form")
        D = near_part.domain
        return _part_form(self.near, D, near_part.S + 2.0 * np.diag(self.tail[D]))


def _interchange_integral(part_a: SpectralForm, part_b: SpectralForm,
                          S: np.ndarray, t: float) -> np.ndarray:
    """int_0^t P^a_s W S P^b_{t-s} ds in closed form (Van Loan, IEEE TAC 1978).

    In the eigenbases the integrand is diagonal in time, so the integral is
    Psi_a [(Psi_a^T W S Psi_b) o G] Psi_b^T with the divided differences
    G_ij = int_0^t exp(-s a_i - (t-s) b_j) ds, which is t exp(-t a_i) where
    the eigenvalues coincide.
    """
    a, b = part_a.eigvals[:, None], part_b.eigvals[None, :]
    gap = np.abs(a - b)
    frac = np.full(gap.shape, t)
    np.divide(-np.expm1(-t * gap), gap, out=frac, where=gap > 0)
    G = np.exp(-t * np.minimum(a, b)) * frac
    M = part_a.psi.T @ (part_a.weights[:, None] * S) @ part_b.psi
    return part_a.psi @ (M * G) @ part_b.psi.T


# ---------------------------------------------------------------------------
# Ball sampling helpers
# ---------------------------------------------------------------------------

def sample_balls(space: FiniteMMSpace, n_centers: int, radii: Iterable[float],
                 rng: np.random.Generator) -> list[tuple[int, float]]:
    centers = rng.choice(space.n_points, size=min(n_centers, space.n_points),
                         replace=False)
    return [(int(c), float(r)) for c in centers for r in radii]


def _quarter_balls(scale: ScaleField, ball_sample):
    """The sampled balls with phi(x0, r) < T0 and a nonempty quarter ball,
    as (x0, r, phi(x0, r), ball record), and how many had an empty one."""
    balls, skipped = [], 0
    for x0, r in ball_sample:
        phival = phi(scale, x0, r)
        if phival >= scale.T0:
            continue
        ball = scale.space.ball(x0, r)
        if ball.quarter.any():
            balls.append((x0, r, phival, ball))
        else:
            skipped += 1
    return balls, skipped


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def lre_check(form: SpectralForm, scale: ScaleField, kappa: float,
              ball_sample) -> ConditionReport:
    """Worst lower-resolvent constant on sampled balls.

    For each ball B(x0, r) with phi(x0, r) < T0, solves
    u = (L_B + kappa/phi(x0,r))^-1 1_B and reports
    c1 = min over the quarter ball of u / phi(x0, r).
    """
    _space_shared_with(form, scale)
    if not kappa > 0:
        raise ParameterError("kappa must be positive")
    series = []
    balls, skipped = _quarter_balls(scale, ball_sample)
    for x0, r, phival, ball in balls:
        part = part_on(form, ball.member_idx)
        u = part.resolvent(kappa / phival, np.ones(ball.member_idx.size))
        series.append({"x0": x0, "r": r, "c1": float(u[ball.quarter].min() / phival)})
    worst, witness = best_of(series, "c1", ("x0", "r"), lowest=True)
    worst = None if worst == math.inf else worst       # inf: no candidate row, no witness
    report = ConditionReport(condition="lre", params={"kappa": kappa},
                             best_constant=worst, witness=witness,
                             gates=[gate("c1", worst, ">", 0.0)], series=series)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    if form.jmat_nonzeros == 0:
        report.note("degenerate zero kernel: the resolvent is the constant 1/lambda")
    return report


def cs_check(kernel: JumpKernel, scale: ScaleField, ball_sample) -> ConditionReport:
    """Pointwise cutoff-energy constant.

    For each sampled ball B(x0, r) takes the cutoff of its record, plateau R = r/2
    and ramp r/4 (the series' ``R`` and ``r``), and reports the best c with
    sup_x Gamma(cut)(x) <= c / phi(x, r/4), Gamma the kernel's ``energy_density``.
    """
    space = _space_shared_with(kernel, scale)
    ball_sample = list(ball_sample)
    atoms = np.arange(space.n_points)
    cuts = np.reshape([space.ball(x0, r).cutoff() for x0, r in ball_sample], (-1, space.n_points))
    series = []
    for (x0, r), energy in zip(ball_sample, energy_density(kernel, cuts)):
        R, ramp = r / 2.0, r / 4.0
        vals = energy * phi(scale, atoms, ramp)
        x = extremum(vals)
        # extremum passes NaN over: a row with one has no sup
        c = math.nan if np.isnan(vals).any() else 0.0 if x is None else float(vals[x])
        series.append({"x0": x0, "R": R, "r": ramp, "x": x, "c": c})
    best, witness = best_of(series, "c", ("x0", "R", "r", "x"))
    return gate_rows(ConditionReport(condition="cs", params={}, best_constant=best,
                                     witness=witness, series=series,
                                     notes=[] if series else ["no ball was sampled"]), "c")


def capacity_check(kernel: JumpKernel, scale: ScaleField, ball_sample) -> ConditionReport:
    """Cutoff capacity constant: E(cut,cut) <= C V(x0,r)/phi(x0,r) per ball,
    E the mu-integral of the kernel's ``energy_density``, from one pass."""
    space = _space_shared_with(kernel, scale)
    ball_sample = list(ball_sample)
    balls = [space.ball(x0, r) for x0, r in ball_sample]
    gammas = energy_density(kernel, np.reshape([ball.cutoff() for ball in balls],
                                               (-1, space.n_points)))
    series = []
    for (x0, r), ball, gamma in zip(ball_sample, balls, gammas):
        e = float(gamma @ space.weights)
        series.append({"x0": x0, "r": r, "C": float(e * phi(scale, x0, r) / ball.volume),
                       "energy": e})
    best, witness = best_of(series, "C", ("x0", "r"))
    return gate_rows(ConditionReport(condition="capacity", params={}, best_constant=best,
                                     witness=witness, series=series,
                                     notes=[] if series else ["no ball was sampled"]), "C")


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` for q in [0, 1] by numpy's default linear
    method, bit for bit: with a and b the sorted values at the floor of
    (n - 1) q and the next, and g its fractional part, a + (b - a) g, or
    b - (b - a)(1 - g) when g >= 0.5.  numpy's own loads ``numpy.ma`` on its
    first call, through ``np.unique``."""
    ranked = np.sort(values)
    index = (ranked.size - 1) * q
    lo = math.floor(index)
    if lo >= ranked.size - 1:
        return float(ranked[-1])
    a, b = float(ranked[lo]), float(ranked[lo + 1])
    gamma = index - lo
    return b - (b - a) * (1.0 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def _damping(scale: ScaleField, phival: float) -> float:
    """min(1, T0 / phi), which is 1 when T0 is infinite."""
    return min(1.0, scale.T0 / phival)


def _fk_bracket(variant: str, ratio_pow: float, damping: float, b: float,
                Cprime: float) -> float:
    if variant == "FK":
        return ratio_pow
    if variant == "WFK":
        return ratio_pow - Cprime
    return damping**b * ratio_pow - Cprime           # GFK


def fk_family_check(form: SpectralForm, scale: ScaleField, variant: str,
                    nu: float, b: float, Cprime: float, delta: float,
                    ball_sample, rng: np.random.Generator) -> ConditionReport:
    """Faber-Krahn family sweep.

    For each sampled ball B(x0, r) and subset D of its family, the
    witness constant is lambda_1(D) * phi(x0,r) / bracket where the bracket is
    the variant's volume-ratio term; the reported best constant is the
    smallest witness, i.e. the largest C for which the inequality holds on
    every sample.  Subsets whose bracket is nonpositive satisfy the display
    trivially and are skipped.  Reports never claim more than the sampled
    family.  FK and WFK skip radii r >= phi^-1(x0, delta * T0), infinite
    when T0 is, and refuse delta <= 0.
    """
    space = _space_shared_with(form, scale)
    if variant not in ("FK", "WFK", "GFK"):
        raise ParameterError(f"unknown variant {variant!r}")
    _require_finite(nu=nu, b=b, Cprime=Cprime, delta=delta)
    if variant != "GFK" and not delta > 0:
        raise ParameterError(f"delta must be positive for {variant}")

    def swept():
        for x0, r in ball_sample:
            if variant != "GFK" and r >= phi_inverse(scale, x0, delta * scale.T0):
                continue
            ball = space.ball(x0, r)
            part = part_on(form, ball.member_idx)
            yield x0, r, ball, phi(scale, x0, r), part.psi[:, 0], part.S, []

    return _fk_sweep(form, scale, variant, nu, b, Cprime, delta, swept(), rng)


def _fk_sweep(form: SpectralForm, scale: ScaleField, variant: str, nu: float, b: float,
              Cprime: float, delta: float, swept, rng: np.random.Generator) -> ConditionReport:
    """The report of :func:`fk_family_check` over ``swept``: (x0, r, its ball,
    phi(x0, r), the ball part's ground state and ``S``, further subsets) per
    ball.

    The family of a ball is the ball, its quarter and half sub-balls, three
    super-level sets of the ground state, three random subsets and the
    further subsets; a subset that repeats one of its ball is swept once.
    lambda_1 comes from :func:`lambda1`, so a subset some part was solved on
    is not solved again, and any other subset's generator is sliced from the
    ball's part.
    """
    space = form.space
    series = []
    trivial = 0
    for x0, r, ball, phival, ground, S, extra in swept:
        damping = _damping(scale, phival)
        members, ground = ball.member_idx, np.abs(ground)
        subsets = [members] + [ball.within(ball.radius * frac) for frac in (0.25, 0.5)]
        subsets += [members[ground > _quantile(ground, 1.0 - dens)] for dens in (0.25, 0.5, 0.75)]
        subsets += [rng.choice(members, size=max(1, int(round(dens * members.size))),
                               replace=False) for dens in (0.25, 0.5, 0.75)]
        # sorted, without repeats or empty sets, in order of first appearance
        uniq = {D.tobytes(): D for D in (np.sort(np.asarray(s, dtype=int))
                                         for s in subsets + extra) if D.size}
        with _inside(form, members, S):
            for D in uniq.values():
                mu_D = float(space.weights[D].sum())
                ratio_pow = (ball.volume / mu_D) ** nu
                bracket = _fk_bracket(variant, ratio_pow, damping, b, Cprime)
                if bracket <= 0:
                    trivial += 1
                    continue
                lam = lambda1(form, D)
                series.append({"x0": x0, "r": r, "size_D": int(D.size),
                               "lambda1": lam, "C": lam * phival / bracket})
    best, witness = best_of(series, "C", ("x0", "r", "size_D", "lambda1"), lowest=True)
    best = None if best == math.inf else best          # inf: no candidate row, no witness
    report = ConditionReport(
        condition=f"fk_{variant.lower()}",
        params={"variant": variant, "nu": nu, "b": b, "Cprime": Cprime,
                "delta": delta, "subset_strategy": "mixed"},
        best_constant=best, witness=witness, gates=[gate("C", best, ">", 0.0)], series=series)
    if trivial:
        report.note(f"{trivial} subsets satisfied the display trivially (bracket <= 0)")
    return report


def nash_witness_constants(ball: BallQuery, phival: float, damping: float, nu: float,
                           b: float, fs, part: SpectralForm) -> list[float]:
    """Witness constant of the ball Nash display for each test function in
    ``fs`` on ``ball``, given phi(x0, r) and the damping of the ball, their
    energies from one call of ``part``, the Dirichlet part on the ball."""
    w = part.weights
    out = []
    for f, energy in zip(fs, part.energy(np.reshape(fs, (-1, w.size)))):
        l1, l2sq = float(np.abs(f) @ w), float(f**2 @ w)
        denom = phival * (float(energy) + l2sq / phival) * l1 ** (2 * nu)
        out.append(0.0 if denom == 0 else l2sq ** (1 + nu) * ball.volume**nu * damping**b / denom)
    return out


def nash_check(form: SpectralForm, scale: ScaleField, nu: float, b: float, ball_sample,
               rng: np.random.Generator) -> ConditionReport:
    """Ball Nash-inequality sweep over a documented test family.

    The family per ball: low Dirichlet eigenfunctions of the ball part,
    indicators of sub-balls, and random sign vectors, all L2-normalized and
    supported in the ball.  The reported best constant is the largest
    witness, i.e. the smallest C for which the display holds on the family.
    """
    space = _space_shared_with(form, scale)
    _require_finite(nu=nu, b=b)
    series = []
    for x0, r in ball_sample:
        ball = space.ball(x0, r)
        D = ball.member_idx
        part = part_on(form, D)
        family = [(f"eig{k}", part.psi[:, k]) for k in range(min(3, D.size))]
        family += [(f"indicator{frac}", (ball.dist[D] < r * frac).astype(float))
                   for frac in (0.25, 0.5, 1.0)]
        family += [(f"sign{k}", rng.choice([-1.0, 1.0], size=D.size)) for k in range(3)]
        w = space.weights[D]
        named = [(name, f / norm) for name, f in family
                 if (norm := math.sqrt(float(f**2 @ w))) != 0]
        phival = phi(scale, x0, r)
        witnesses = nash_witness_constants(ball, phival, _damping(scale, phival), nu, b,
                                           [f for _, f in named], part)
        series += [{"x0": x0, "r": r, "family": name, "C": c}
                   for (name, _), c in zip(named, witnesses)]
    best, witness = best_of(series, "C", ("x0", "r", "family"))
    return ConditionReport(condition="nash",
                           params={"nu": nu, "b": b, "family": "mixed"},
                           best_constant=best, witness=witness, series=series,
                           gates=[gate("C", best, ">", 0.0), gate("finite C", best, "<", math.inf)])


def _superlevel_subset(space: FiniteMMSpace, D: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Super-level set of |f|/||f||_1 at a quarter of its squared L2 norm."""
    g = np.abs(np.asarray(f, dtype=float))
    w = space.weights[D]
    l1 = float(g @ w)
    if l1 == 0:
        return None
    g = g / l1
    a = float(g**2 @ w) / 4.0
    sel = D[g > a]
    return sel if sel.size else None


def fk_nash_consistency(form: SpectralForm, scale: ScaleField, nu: float, b: float,
                        Cprime: float, ball_sample, rng: np.random.Generator) -> ConditionReport:
    """Two-way consistency between the eigenvalue sweep and the Nash sweep.

    Forward: with the eigenvalue constant C_G measured over a subset family
    that contains the super-level set of every Nash test function (cut at a
    quarter of its squared L2 norm after L1 normalization), every Nash
    witness obeys

        C_Nash(f) <= 4^nu * max(2 / C_G, Cprime).

    Backward: every asserted subset's ground state is in the Nash family, so
    with the measured Nash constant C_N,

        lambda_1(D) * phi(x0,r) >= [damping^b (V/mu(D))^nu - C_N] / C_N.

    Both chains are exact on a finite space: Markov's inequality, the normal
    contraction, and Cauchy-Schwarz are the only steps besides the measured
    sweeps, so both margins must be nonnegative up to rounding.
    """
    space = _space_shared_with(form, scale)
    _require_finite(nu=nu, b=b, Cprime=Cprime)

    # (x0, r) -> (ball, phi, damping, its largest Nash witness, [(asserted D, lambda_1(D))])
    per_ball: dict[tuple[int, float], tuple[BallQuery, float, float, float, list]] = {}
    swept = []                  # the GFK sweep's balls, each with its part's ground state and S
    for x0, r in ball_sample:
        ball = space.ball(x0, r)
        phival = phi(scale, x0, r)
        damping = _damping(scale, phival)
        D_ball = ball.member_idx
        part = part_on(form, D_ball)
        base = [part.psi[:, k] for k in range(min(2, D_ball.size))]
        base.append(rng.choice([-1.0, 1.0], size=D_ball.size))

        # distinct super-level sets; a repeat adds no Nash function or bound,
        # and the ball itself is asserted below from its part
        subs = {s.tobytes(): s for f in base
                if (s := _superlevel_subset(space, D_ball, f)) is not None}
        subs.pop(D_ball.tobytes(), None)
        # ground states of the asserted subsets, extended by zero to the ball
        grounds, asserted = [], []
        with _inside(form, D_ball, part.S):
            for D in subs.values():
                sub_part = part_on(form, D)
                g = np.zeros(D_ball.size)
                g[np.searchsorted(D_ball, D)] = sub_part.psi[:, 0]
                grounds.append(g)
                asserted.append((D, float(sub_part.eigvals[0])))
        asserted.append((D_ball, float(part.eigvals[0])))
        nash = max(nash_witness_constants(ball, phival, damping, nu, b, base + grounds, part))
        per_ball[(x0, r)] = (ball, phival, damping, nash, asserted)
        # a copy: a view of psi would keep the part's eigenvectors alive
        swept.append((x0, r, ball, phival, part.psi[:, 0].copy(), part.S, [*subs.values(), *(
            s for g in grounds if (s := _superlevel_subset(space, D_ball, g)) is not None)]))

    # the ball parts solved above; GFK reads no delta
    c_g = _fk_sweep(form, scale, "GFK", nu, b, Cprime, 0.5, swept, rng).best_constant

    c_n = max([0.0] + [nash for *_, nash, _ in per_ball.values()])

    gates = [gate("C_gfk", c_g, ">", 0.0), gate("C_nash", c_n, ">", 0.0)]
    if not all(g["holds"] for g in gates):
        return ConditionReport(condition="fk_nash_consistency",
                               params={"nu": nu, "b": b, "Cprime": Cprime},
                               witness={"C_gfk": c_g, "C_nash": c_n}, gates=gates,
                               notes=["degenerate sweep; no usable constants"])

    forward_bound = 4.0**nu * max(2.0 / c_g, Cprime)
    forward_margin = float(forward_bound - c_n)

    backward_margin = math.inf
    for ball, phival, damping, _, asserted in per_ball.values():
        for D, lam in asserted:
            mu_D = float(space.weights[D].sum())
            rhs = (damping**b * (ball.volume / mu_D) ** nu - c_n) / c_n
            backward_margin = min(backward_margin, float(lam * phival - rhs))

    return ConditionReport(
        condition="fk_nash_consistency",
        params={"nu": nu, "b": b, "Cprime": Cprime},
        best_constant=forward_margin,
        witness={"C_gfk": c_g, "C_nash": c_n,
                 "forward_margin": forward_margin,
                 "backward_margin": backward_margin},
        gates=gates + [gate("forward_margin", forward_margin, ">=", -MARGIN_TOL),
                       gate("backward_margin", backward_margin, ">=", -MARGIN_TOL)],
        series=[{"C_gfk": c_g, "C_nash": c_n,
                 "forward_margin": forward_margin,
                 "backward_margin": backward_margin}],
    )

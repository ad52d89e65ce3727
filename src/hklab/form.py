"""Dirichlet form assembly, spectra, resolvents, and eigenvalue checkers.

The generator convention is the ordered-pair one:

    (L f)(x) = 2 * sum_y (f(x) - f(y)) j(x,y) mu(y),

so that <L f, f>_mu equals the double sum over ordered pairs
sum_{x,y} (f(x)-f(y))^2 j(x,y) mu(x) mu(y).  Dirichlet parts are principal
submatrices of L: the diagonal keeps the jumps that leave the domain, which
act as killing.

A full form keeps the generator diagonal and its eigenbasis, but no dense L
and no kernel matrix: J is read as a measure on blocks of atoms, one row
chunk or one D x D part at a time, from ``form.kernel``, which is exactly
symmetric (``assemble`` replaces a kernel symmetric only up to rounding by
its average with its mirror); off the diagonal L = -2 J W.  A form's
spectrum is one basis object behind one protocol (:class:`_Basis`): a
:class:`_DenseBasis` from one ``eigh``, which keeps ``psi``, or, when the
generator commutes with the central reflection of the space, a
:class:`_HalfSpectrum` of the even and odd half eigenbases, from which the
semigroup, the resolvent, kernel entries and the heat kernel are computed
with no ``psi`` at all.  Dirichlet parts are always solved whole.

Only this module reads a form's ``L``, ``eigvals`` and ``psi``; the other
checkers ask a :class:`SpectralForm` for entries, for its ``basis``, which
streams the kernel in row panels, and this module for parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from .errors import ParameterError, PointCapExceeded
from .kernel import JumpKernel
from .report import ConditionReport
from .scale import ScaleField, phi, phi_inverse, phi_vec
from .space import DENSE_MATRIX_CAP, BallQuery, FiniteMMSpace, _checked_ids


@dataclass
class SpectralForm:
    """Assembled generator restricted to a domain, with spectral data.

    ``domain`` indexes the ambient space; ``diag`` is the generator's
    diagonal on it; ``basis`` is its eigenbasis, whose ``eigvals`` are
    ascending.  ``jmat_nonzeros`` counts the off-diagonal nonzeros of the
    symmetric kernel, found while assembling.  ``_lambda1`` maps the bytes
    of each domain a part was solved on to the part's lambda_1; a part
    starts with an empty one and never fills it.

    Every spectral operation goes through ``basis``: a :class:`_HalfSpectrum`
    for a full form that commutes with the central reflection, else a
    :class:`_DenseBasis`, whose mu-orthonormal eigenfunction columns are
    ``psi``; a split form has no ``psi``.

    ``kernel`` equals its transpose bit for bit: the kernel ``assemble`` was
    given, or, if that is symmetric only up to rounding, its average with
    its mirror.  A Dirichlet part shares the kernel of its full form and
    keeps its small dense generator ``L``; a full form keeps none.
    """

    space: FiniteMMSpace
    kernel: JumpKernel
    domain: np.ndarray
    diag: np.ndarray
    basis: _Basis
    jmat_nonzeros: int
    L: np.ndarray | None = field(default=None, repr=False)
    _lambda1: dict[bytes, float] = field(default_factory=dict, init=False, repr=False)

    def jblock(self, rows, cols=None) -> np.ndarray:
        """The rows x cols block (all columns by default) of J, zero on the
        diagonal: the one way a form reads its kernel."""
        cols = np.arange(self.space.n_points) if cols is None else cols
        rows, cols = (np.atleast_1d(np.asarray(a, dtype=int)) for a in (rows, cols))
        block = self.kernel.block(rows, cols)
        block[rows[:, None] == cols[None, :]] = 0.0
        return block

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
        return self.domain.size != self.space.n_points

    def energy(self, f):
        """Quadratic form <L f, f>_mu on the domain, one value per row of a 2-D ``f``.

        A part multiplies by its small L_D.  The full form subtracts each
        function's mu-mean, which L1 = 0 leaves out of the form but would
        cancel in L f, then forms L f one row chunk of L at a time, one
        kernel block per chunk serving every row.
        """
        f = np.asarray(f, dtype=float)
        fs = np.atleast_2d(f)
        if self.L is not None:
            Lf = np.array([self.L @ g for g in fs])
        else:
            w = self.space.weights
            fs = fs - ((fs * w).sum(axis=1) / w.sum())[:, None]
            Lf = np.empty_like(fs)
            for rows in self.space._row_chunks():
                part = slice(rows[0], rows[-1] + 1)
                row = _kernel_generator(self.jblock(rows), w[None, :])
                row[np.arange(rows.size), rows] = self.diag[part]
                for k, g in enumerate(fs):
                    Lf[k, part] = row @ g
        values = np.array([Lg @ (g * self.weights) for Lg, g in zip(Lf, fs)])
        return float(values[0]) if f.ndim == 1 else values

    def _calculus(self, f, gains, scale=np.multiply) -> list[np.ndarray]:
        """psi scale(coef, g(eigvals)) for each ``g`` in ``gains``, with coef =
        psi.T W f the eigen-coefficients of ``f``, computed once.  ``f`` may
        hold one function per column; each result then does too."""
        f = np.asarray(f, dtype=float)
        if f.ndim == 0 or f.shape[0] != self.domain.size:
            raise ParameterError(f"f must have {self.domain.size} entries along its first axis")
        per_atom = (slice(None),) + (None,) * (f.ndim - 1)   # a vector along f's first axis
        filters = [lambda vals, coef, g=g: scale(coef, g(vals)[per_atom]) for g in gains]
        return self.basis.calculus(f, per_atom, filters)

    def apply_semigroup(self, t, f) -> np.ndarray:
        """P_t f on the domain by spectral calculus.

        ``t`` may be a sequence of times: the eigen-coefficients of ``f`` are
        then computed once, and row k of the result is P_{t[k]} f.  ``f`` may
        hold one function per column; each result then does too.
        """
        times = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array(self._calculus(f, [lambda vals, s=s: np.exp(-s * vals) for s in times]))
        return out.reshape(times.size, *np.shape(f)) if np.ndim(t) else out[0]

    def heat_kernel(self, t: float) -> np.ndarray:
        """p(t, x, y) on domain x domain; a run reads it only on the parts of ``meyer_check``."""
        if t < 0:
            raise ParameterError("time must be nonnegative")
        return self.basis.heat_kernel(t)

    def heat_kernel_entries(self, t: float, xs, ys) -> np.ndarray:
        """p(t, xs[k], ys[k]) for each k, in O(len(xs) N), no N x N kernel;
        ``xs`` and ``ys`` are equally long lists of positions in the domain."""
        if t < 0:
            raise ParameterError("time must be nonnegative")
        xs, ys = (_checked_ids(a, self.domain.size) for a in (xs, ys))
        if xs.size != ys.size:
            raise ParameterError("xs and ys must have the same length")
        return self.basis.entries(t, xs, None if np.array_equal(xs, ys) else ys,
                                  self.space._row_chunks)

    def resolvent(self, lam: float, f) -> np.ndarray:
        """Solve (L + lam) u = f on the domain."""
        if lam <= 0:
            raise ParameterError("resolvent parameter must be positive")
        return self._calculus(f, [lambda vals: vals + lam], np.divide)[0]


def _symmetrized(L: np.ndarray, sqrt_w: np.ndarray) -> np.ndarray:
    """The symmetric matrix W^(1/2) L W^(-1/2), symmetrized against rounding."""
    sym = L * sqrt_w[:, None]
    sym /= sqrt_w[None, :]
    sym += sym.T                                       # numpy buffers the overlap
    sym *= 0.5
    return sym


def _kernel_generator(j: np.ndarray, w_cols: np.ndarray) -> np.ndarray:
    """-2 J times ``w_cols``: with a block J[rows, cols] and w[None, cols],
    the block of L = -2 J W off the diagonal."""
    out = j * -2.0
    out *= w_cols
    return out


def _part_form(form: SpectralForm, D: np.ndarray, LD: np.ndarray) -> SpectralForm:
    """The part on ``D`` with the small dense generator ``LD``, which it keeps."""
    w = form.space.weights[D]
    basis = _DenseBasis.solve(_symmetrized(LD, np.sqrt(w)), w)
    return replace(form, domain=D, diag=LD.diagonal(), basis=basis, L=LD)


# Relative tolerance of the two symmetry tests: J against J.T, and the
# symmetrized generator against its central reflection.
_SYMMETRY_RTOL = 1e-10


def _symmetry_atol(top: float) -> float:
    """Absolute tolerance of a symmetry test on a matrix whose largest |entry| is ``top``."""
    return _SYMMETRY_RTOL * max(top, 1.0)


def _mirror_averaged(kernel: JumpKernel) -> JumpKernel:
    """``kernel`` averaged with its mirror, 0.5 (J + J.T): each block is
    averaged with ``kernel.block(cols, rows).T``, or with its own transpose
    when ``rows`` equals ``cols``."""
    def block_fn(rows, cols):
        block = kernel.block(rows, cols)
        block += block.T if np.array_equal(rows, cols) else kernel.block(cols, rows).T
        block *= 0.5
        return block
    return JumpKernel(kernel.space, block_fn, kernel.support_pattern, dict(kernel.meta))


def _symmetric_generator(space: FiniteMMSpace, kernel: JumpKernel
                         ) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """``_symmetrized(L, sqrt(w))`` for the generator L of 0.5 (J + J.T), the
    diagonal of L, the off-diagonal nonzeros of 0.5 (J + J.T), and whether J
    equals J.T bit for bit.

    One N x N buffer becomes the result.  A first pass over row chunks
    writes the rows of J into it, each entry read once, zeroes the diagonal
    and refuses negative and non-finite values.  A second pass takes each
    chunk's columns from its first row down, which hold every pair of a
    chunk atom with itself or a later atom, and tests them against the
    chunk's rows: bit for bit, then, where the bits differ, by
    ``np.allclose`` in both orders with atol ``_symmetry_atol(max |J|)``,
    which refuses just what ``np.allclose(J, J.T)`` would; a chunk that
    passes is averaged with its mirror in place.  The chunk's rows of L and
    its columns are then formed with the floating-point operations of the
    dense formula, so the result equals it bit for bit; the diagonal of L is
    minus its off-diagonal row sums.
    """
    n = space.n_points
    atoms = np.arange(n)
    sym = np.empty((n, n))
    top = 0.0                           # max |J|
    for rows in space._row_chunks():
        j = sym[rows[0]:rows[-1] + 1]
        j[...] = kernel.block(rows, atoms)
        j[np.arange(rows.size), rows] = 0.0
        low = j.min()
        chunk_top = np.maximum(j.max(), -low)          # propagates NaN
        if not np.isfinite(chunk_top):
            raise ParameterError("kernel has non-finite values (NaN or inf)")
        if low < 0:
            raise ParameterError(f"kernel has a negative jump intensity {float(low)!r}")
        top = max(top, float(chunk_top))
    atol = _symmetry_atol(top)
    w = space.weights
    sqrt_w = np.sqrt(w)
    diag = np.empty(n)
    nonzeros, exact = 0, True
    for rows in space._row_chunks():
        part = slice(rows[0], rows[-1] + 1)
        # compared in the layout of the columns, whose rows are contiguous:
        # in that of the rows, each entry of the columns is on its own page,
        # and the pass takes three times as long
        lower, upper = sym[part.start:, part], sym[part, part.start:].T
        # bitwise, so that signed zeros count as different too
        if not np.array_equal(lower.view(np.uint64), upper.view(np.uint64)):
            if not (np.allclose(lower, upper, atol=atol) and np.allclose(upper, lower, atol=atol)):
                raise ParameterError("kernel must be symmetric")
            exact = False
            lower += upper                                   # numpy buffers the overlap
            lower *= 0.5
            upper[...] = lower
        col = sym[part]                                      # the chunk's rows of J
        nonzeros += int(np.count_nonzero(col))
        on_diag = (np.arange(rows.size), rows)
        row = _kernel_generator(col, w[None, :])
        col *= -2.0                  # -2 J w[rows], which is L[:, rows].T, J being symmetric
        col *= w[rows, None]
        row[on_diag] = 0.0
        diag[part] = -row.sum(axis=1)
        row[on_diag] = col[on_diag] = diag[part]
        row *= sqrt_w[rows, None]
        row /= sqrt_w[None, :]
        col *= sqrt_w[None, :]
        col /= sqrt_w[rows, None]
        col += row
        col *= 0.5
    return sym, diag, nonzeros, exact


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
                       ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None:
    """``(A, B, [even, odd])`` when the symmetric matrix ``sym`` commutes with
    the central reflection P of the space, else None.

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
    return A, B, [even, odd]


def _flush_subnormal(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal entries set to zero, in place.  A decay near
    underflow makes them, and a matrix product runs up to 30 times slower on
    them; none moves a sum of N products by more than N times the smallest
    normal double."""
    a[np.abs(a) < np.finfo(float).tiny] = 0.0
    return a


# Rows per panel of a streamed kernel, in basis rows: a sixteenth of the
# atoms, so that the dozen panels alive at a time stay well under one N x N
# array, but at least the first bound, below which the per-panel overhead
# dominates, and at most the second, beyond which the GEMMs run no faster.
_PANEL_ROWS = (64, 256)


def _row_products(vecs: np.ndarray, decay: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray | None) -> np.ndarray:
    """sum_k vecs[xs, k] decay[k] vecs[ys, k] for each position, the rows
    vecs[xs] gathered once when ``ys`` is None, which stands for ``xs``."""
    rows = vecs[xs]
    other = rows if ys is None else vecs[ys]
    return np.einsum("ij,ij->i", rows * decay, other)


class _Basis:
    """The eigenbasis of a form, the one object its spectral operations read.

    A basis has ascending ``eigvals`` and its atoms' ``weights``; it answers
    ``entries(t, xs, ys, chunks)``, p(t, xs[k], ys[k]) in the consecutive
    pieces ``chunks(positions)`` of its positions (``ys`` None stands for
    ``xs``, whose rows are gathered once),
    ``heat_kernel(t)``, the whole kernel, and ``calculus(f, per_atom,
    filters)``: psi h(eigvals, psi.T W f) for each filter h, psi the
    mu-orthonormal eigenfunctions and ``per_atom`` indexing f's first axis.
    For a reader that streams the heat kernel one row panel at a time, each
    ``(vals, vecs)`` of ``bases`` gives K_b(t) = vecs exp(-t vals) vecs.T,
    its columns orthonormal against the weights ``metric`` (the unit
    weights when it is None); on each quadrant ``(X, Y, signs)`` of atoms,
    p(t)[X, Y] is K_0(t) plus or minus, as ``signs`` says, each further
    K_b(t), divided by scale[X] and scale[Y] unless ``scale`` is None.
    """

    def heat_kernel(self, t: float) -> np.ndarray:
        """p(t) on all the atoms, assembled from the row panels of :meth:`kernel`."""
        p = np.empty((self.eigvals.size,) * 2)
        for panel in self.panels():
            for X, Y, block in self.kernel(panel, self.rows(panel, t)):
                p[X[panel, None], Y] = block
        return p

    def panels(self):
        """Consecutive row panels of the bases."""
        m = self.bases[0][1].shape[0]
        low, high = _PANEL_ROWS
        step = min(max(m * len(self.bases) // 16, low), high)
        for start in range(0, m, step):
            yield np.arange(start, min(start + step, m))

    def rows(self, panel: np.ndarray, t: float, mirrored: bool = False) -> list[np.ndarray]:
        """K_b(t)[panel] = (vecs[panel] exp(-t vals)) vecs.T for each basis b.

        ``mirrored`` forms them as K_b(t)[:, panel].T instead, from
        (vecs exp(-t vals)) vecs[panel].T: the decay sits on the other factor,
        which is scaled one panel at a time, never whole.
        """
        out = []
        for vals, vecs in self.bases:
            decay = np.exp(-t * vals)
            rows = vecs[panel]
            if mirrored:
                out.append(np.concatenate([rows @ _flush_subnormal(vecs[cols] * decay).T
                                           for cols in self.panels()], axis=1))
            else:
                rows *= decay
                out.append(_flush_subnormal(rows) @ vecs.T)
        return out

    def composed(self, panel: np.ndarray, t: float) -> list[np.ndarray]:
        """((K_b(t)[panel] M) vecs) exp(-t vals) vecs.T for each basis b, M the
        metric: the panel of K(t) M K(t) formed through the basis, so that no
        second kernel is held."""
        out = []
        for (vals, vecs), rows in zip(self.bases, self.rows(panel, t)):
            if self.metric is not None:
                rows *= self.metric
            coef = rows @ vecs
            coef *= np.exp(-t * vals)
            out.append(_flush_subnormal(coef) @ vecs.T)
        return out

    def kernel(self, panel: np.ndarray, blocks: list[np.ndarray]):
        """(X, Y, p[X[panel], Y]) for each quadrant, from ``blocks``, a panel of
        each basis from :meth:`rows` or :meth:`composed`."""
        for X, Y, signs in self.quadrants:
            p = blocks[0]
            for sign, block in zip(signs, blocks[1:]):
                p = p + block if sign > 0 else p - block
            if self.scale is not None:
                p /= self.scale[X[panel], None]
                p /= self.scale[None, Y]
            yield X, Y, p


class _DenseBasis(_Basis):
    """``psi`` kept whole, mu-orthonormal against ``weights``: one basis on one
    quadrant of all the atoms, with the weights as its metric."""

    def __init__(self, eigvals: np.ndarray, psi: np.ndarray, weights: np.ndarray):
        self.eigvals, self.psi, self.weights = eigvals, psi, weights
        atoms = np.arange(weights.size)
        self.bases, self.metric = [(eigvals, psi)], weights
        self.quadrants, self.scale = [(atoms, atoms, ())], None

    @classmethod
    def solve(cls, sym: np.ndarray, weights: np.ndarray) -> _DenseBasis:
        """The ascending eigenvalues of the symmetrized generator ``sym`` and
        the mu-orthonormal eigenfunctions, by one ``eigh``."""
        eigvals, psi = np.linalg.eigh(sym)
        psi /= np.sqrt(weights)[:, None]
        return cls(eigvals, psi, weights)

    def entries(self, t: float, xs: np.ndarray, ys: np.ndarray | None, chunks) -> np.ndarray:
        """Entries from the rows of psi."""
        decay = np.exp(-t * self.eigvals)
        out = np.empty(xs.size)
        for part in chunks(np.arange(xs.size)):
            out[part] = _row_products(self.psi, decay, xs[part], None if ys is None else ys[part])
        return out

    def heat_kernel(self, t: float) -> np.ndarray:
        """(psi exp(-t eigvals)) psi.T in one product, faster than the panels."""
        return (self.psi * np.exp(-t * self.eigvals)) @ self.psi.T

    def calculus(self, f: np.ndarray, per_atom, filters) -> list[np.ndarray]:
        coef = self.psi.T @ (f * self.weights[per_atom])
        return [self.psi @ h(self.eigvals, coef) for h in filters]


class _HalfSpectrum(_Basis):
    """The eigenbasis of a matrix that ``_reflection_blocks`` split, kept as
    one ``eigh`` per block: ``even_vals``, ``even_vecs``, ``odd_vals``, ``odd_vecs``.

    With ``A[k]`` and ``B[k]`` the k-th mirror pair, an even eigenvector v
    of the whole matrix is (v on A, v on B) / sqrt(2) and an odd one
    (v on A, -v on B) / sqrt(2); the eigenfunctions divide them by sqrt(w).
    ``eigvals`` merges the blocks' eigenvalues ascending by a stable sort,
    so an even eigenvalue comes before an equal odd one.  Each block is
    taken out of ``blocks`` and freed once it is solved.  Its kernel
    factors are the two unit eigenbases on the four A/B quadrants; no
    eigenfunction is laid out N wide.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, blocks: list[np.ndarray],
                 weights: np.ndarray):
        self.A, self.B = A, B
        self.even_vals, self.even_vecs = np.linalg.eigh(blocks.pop(0))
        self.odd_vals, self.odd_vecs = np.linalg.eigh(blocks.pop(0))
        self.eigvals = np.sort(np.concatenate([self.even_vals, self.odd_vals]), kind="stable")
        n = self.eigvals.size
        self.pair = np.empty(n, dtype=int)                 # atom -> its pair's row in the blocks
        self.pair[A] = self.pair[B] = np.arange(A.size)
        self.sign = np.ones(n)                              # an odd eigenvector's: -1 on B
        self.sign[B] = -1.0
        self.weights, self.metric = weights, None
        self.bases = [(self.even_vals, self.even_vecs), (self.odd_vals, self.odd_vecs)]
        self.quadrants = [(A, A, (1,)), (A, B, (-1,)), (B, A, (-1,)), (B, B, (1,))]
        self.scale = np.sqrt(2.0 * weights)

    def entries(self, t: float, xs: np.ndarray, ys: np.ndarray | None, chunks) -> np.ndarray:
        """Entries from the pair rows v of both blocks: (sum_even v(x) v(y)
        e^(-t lambda) + s(x) s(y) sum_odd v(x) v(y) e^(-t lambda)), s the odd
        sign, divided by 2 sqrt(w(x) w(y)), which is exactly 2 w on the diagonal.
        There s(x) s(x) = 1, so each pair's row is read once and its sum
        serves both its atoms."""
        decays = [np.exp(-t * vals) for vals, _ in self.bases]
        if ys is None:
            pairs, where = np.unique(self.pair[xs], return_inverse=True)
            sums = np.empty(pairs.size)
            for part in chunks(np.arange(pairs.size)):
                even, odd = (_row_products(vecs, decay, pairs[part], None)
                             for decay, (_, vecs) in zip(decays, self.bases))
                sums[part] = even + odd
            w = self.weights[xs]
            return sums[where] / (2.0 * np.sqrt(w * w))
        out = np.empty(xs.size)
        for part in chunks(np.arange(xs.size)):
            x, y = xs[part], ys[part]
            even, odd = (_row_products(vecs, decay, self.pair[x], self.pair[y])
                         for decay, (_, vecs) in zip(decays, self.bases))
            out[part] = ((even + self.sign[x] * self.sign[y] * odd)
                         / (2.0 * np.sqrt(self.weights[x] * self.weights[y])))
        return out

    def calculus(self, f: np.ndarray, per_atom, filters) -> list[np.ndarray]:
        """g = f sqrt(w) folds into its even part g_A + g_B and its odd part
        g_A - g_B, each block acts on its own, and the two unfold onto A and B
        and are divided by sqrt(w) again."""
        sqrt_w = np.sqrt(self.weights)[per_atom]
        g = f * sqrt_w
        a, b = g[self.A], g[self.B]
        even = self.even_vecs.T @ (a + b)
        odd = self.odd_vecs.T @ (a - b)
        results = []
        for h in filters:
            u = self.even_vecs @ h(self.even_vals, even)
            v = self.odd_vecs @ h(self.odd_vals, odd)
            unfolded = np.empty_like(g)
            unfolded[self.A] = u + v
            unfolded[self.B] = u - v
            unfolded *= 0.5
            unfolded /= sqrt_w
            results.append(unfolded)
        return results


def assemble(space: FiniteMMSpace, kernel: JumpKernel) -> SpectralForm:
    """Assemble the generator of the pure-jump form for the whole space.

    The symmetrized generator is built in place from kernel blocks one row
    chunk at a time, each entry of J read once, so neither a dense generator
    nor the kernel matrix is alive during the eigensolve, which is split
    into two half-size ones when the generator commutes with the central
    reflection of the space.  A kernel symmetric only up to rounding is
    kept as its average with its mirror.  Refused above the dense cap, where
    the dense eigensolve would not fit.
    """
    if space.n_points > DENSE_MATRIX_CAP:
        raise PointCapExceeded(space.n_points, DENSE_MATRIX_CAP, dense=True)
    sym, diag, nonzeros, exact = _symmetric_generator(space, kernel)
    split = _reflection_blocks(space, sym)
    if split is None:
        basis = _DenseBasis.solve(sym, space.weights)
    else:
        del sym                         # only the half-size blocks reach the eigensolve
        basis = _HalfSpectrum(*split, space.weights)
    return SpectralForm(space=space, kernel=kernel if exact else _mirror_averaged(kernel),
                        domain=np.arange(space.n_points), diag=diag, basis=basis,
                        jmat_nonzeros=nonzeros)


def part_on(form: SpectralForm, D) -> SpectralForm:
    """Dirichlet part on D: principal submatrix of the ambient generator.

    ``D`` must be a nonempty 1-D list of distinct atom indices in 0..N-1.
    The part's lambda_1 is recorded in the form, for :func:`lambda1`.
    """
    D, LD = _part_generator(form, D)
    part = _part_form(form, D, LD)
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
    """The checked domain ``D`` and the principal submatrix L_D of the generator,
    from the D x D kernel block and the generator diagonal."""
    D = _checked_domain(form, D)
    LD = _kernel_generator(form.jblock(D, D), form.space.weights[D][None, :])
    np.fill_diagonal(LD, form.diag[D])
    return D, LD


def lambda1(form: SpectralForm, D) -> float:
    """Bottom eigenvalue of the Dirichlet part on D (the Rayleigh-quotient infimum).

    A domain that :func:`part_on` has solved is looked up, not solved again.
    """
    lam = form._lambda1.get(_checked_domain(form, D).tobytes())
    return lam if lam is not None else float(part_on(form, D).eigvals[0])


def default_time_grid(form: SpectralForm) -> np.ndarray:
    """Nine log-spaced times over [1e-3, 10] times the full form's relaxation time.

    The relaxation time is 1 / the smallest eigenvalue above N eps max |lambda|:
    the eigensolver leaves a zero eigenvalue anywhere within about
    eps max |lambda| of 0, so a fixed cut would take it for the spectral gap
    once max |lambda| is large enough.
    """
    lam = form.eigvals
    lam = lam[lam > lam.size * np.finfo(float).eps * np.abs(lam).max()]
    relax = 1.0 / lam[0] if lam.size else 1.0
    return relax * np.logspace(-3, 1, 9)


def far_tail_profile(form_full: SpectralForm, form_near: SpectralForm) -> np.ndarray:
    """tail(x) = sum over far atoms of j(x,w) mu(w), from the generator diagonals."""
    return 0.5 * (form_full.diag - form_near.diag)


def removed_top_eigenvalue(space: FiniteMMSpace, kernel_far: JumpKernel) -> float:
    """Largest eigenvalue of the removed generator L_full - L_near, without
    eigenvectors: the generator of the far kernel J - J_near, built like a
    full form's."""
    sym = _symmetric_generator(space, kernel_far)[0]
    split = _reflection_blocks(space, sym)
    if split is None:
        return float(np.linalg.eigvalsh(sym)[-1])
    del sym
    _, _, blocks = split
    return float(max(np.linalg.eigvalsh(block)[-1] for block in blocks))


def killed_part(form_full: SpectralForm, form_near: SpectralForm, D) -> SpectralForm:
    """Near part on D plus the killing potential 2*tail from the removed jumps."""
    D, LD = _part_generator(form_near, D)
    tail = far_tail_profile(form_full, form_near)
    return _part_form(form_near, D, LD + 2.0 * np.diag(tail[D]))


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


def build_cutoff(space: FiniteMMSpace, x0: int, R: float, r: float) -> np.ndarray:
    """Profile cutoff: 1 on B(x0,R), 0 outside B(x0,R+r), slope 1/r between."""
    if R <= 0 or r <= 0:
        raise ParameterError("cutoff needs positive plateau and ramp widths")
    d = space.dist_from(x0)
    return np.clip(1.0 - (d - R) / r, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Ball sampling helpers
# ---------------------------------------------------------------------------

def sample_balls(space: FiniteMMSpace, n_centers: int, radii: Iterable[float],
                 rng: np.random.Generator) -> list[tuple[int, float]]:
    centers = rng.choice(space.n_points, size=min(n_centers, space.n_points),
                         replace=False)
    return [(int(c), float(r)) for c in centers for r in radii]


def _quarter_balls(space: FiniteMMSpace, scale: ScaleField, ball_sample):
    """The sampled balls with phi(x0, r) < T0 and a nonempty quarter ball B(x0, r/4),
    as (x0, r, ball members, quarter-ball mask on them), and how many had an empty one."""
    balls, skipped = [], 0
    for x0, r in ball_sample:
        if phi(scale, x0, r) >= scale.T0:
            continue
        ball = space.ball(x0, r)
        members = ball.member_idx
        quarter_mask = ball.dist[members] < r / 4.0
        if quarter_mask.any():
            balls.append((x0, r, members, quarter_mask))
        else:
            skipped += 1
    return balls, skipped


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def lre_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
              kappa: float, ball_sample) -> ConditionReport:
    """Worst lower-resolvent constant on sampled balls.

    For each ball B(x0, r) with phi(x0, r) < T0, solves
    u = (L_B + kappa/phi(x0,r))^-1 1_B and reports
    c1 = min over the quarter ball of u / phi(x0, r).
    """
    if kappa <= 0:
        raise ParameterError("kappa must be positive")
    worst = math.inf
    witness: dict[str, Any] = {}
    series = []
    balls, skipped = _quarter_balls(space, scale, ball_sample)
    for x0, r, members, quarter_mask in balls:
        part = part_on(form, members)
        lam = kappa / phi(scale, x0, r)
        u = part.resolvent(lam, np.ones(members.size))
        c1 = float(u[quarter_mask].min() / phi(scale, x0, r))
        series.append({"x0": x0, "r": r, "c1": c1})
        if c1 < worst:
            worst = c1
            witness = {"x0": x0, "r": r}
    report = ConditionReport(condition="lre", params={"kappa": kappa},
                             best_constant=(None if worst is math.inf else worst),
                             witness=witness, series=series)
    if skipped:
        report.note(f"skipped {skipped} balls with empty quarter ball")
    if form.jmat_nonzeros == 0:
        report.note("degenerate zero kernel: the resolvent is the constant 1/lambda")
    report.passed = bool(series) and worst > 0
    return report


def _ball_cutoff(space: FiniteMMSpace, x0: int, r: float) -> np.ndarray:
    """The cutoff of the ball B(x0, r): plateau r/2 and ramp r/4."""
    return build_cutoff(space, x0, r / 2.0, r / 4.0)


def cs_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
             ball_sample) -> ConditionReport:
    """Pointwise cutoff-energy constant.

    For each sampled ball B(x0, r) builds its cutoff, plateau R = r/2 and
    ramp r/4 (the series' ``R`` and ``r``), and reports the best c with
    sup_x sum_y (cut(x)-cut(y))^2 j(x,y) mu(y) <= c / phi(x, r/4).  One
    kernel block per row chunk serves every cutoff.
    """
    ball_sample = list(ball_sample)
    atoms = np.arange(space.n_points)
    cuts = [_ball_cutoff(space, x0, r) for x0, r in ball_sample]
    energy_per_point = np.empty((len(cuts), space.n_points))
    for rows in space._row_chunks():
        j = form.jblock(rows)
        for k, cut in enumerate(cuts):
            diff2 = (cut[rows, None] - cut[None, :]) ** 2
            energy_per_point[k, rows] = (diff2 * j * space.weights[None, :]).sum(axis=1)
    best = 0.0
    witness: dict[str, Any] = {}
    series = []
    for (x0, r), energy in zip(ball_sample, energy_per_point):
        R, ramp = r / 2.0, r / 4.0
        vals = energy * phi_vec(scale, atoms, ramp)
        x = int(np.argmax(vals))
        series.append({"x0": x0, "R": R, "r": ramp, "c": float(vals[x]), "x": x})
        if vals[x] > best:
            best = float(vals[x])
            witness = {"x0": x0, "R": R, "r": ramp, "x": x}
    return ConditionReport(condition="cs", params={}, best_constant=best,
                           witness=witness, passed=bool(series) and math.isfinite(best),
                           notes=[] if series else ["no ball was sampled"], series=series)


def capacity_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
                   ball_sample) -> ConditionReport:
    """Cutoff capacity constant: E(cut,cut) <= C V(x0,r)/phi(x0,r) per ball,
    the energies of all the cutoffs from one pass over the kernel."""
    if form.is_part:
        raise ParameterError("capacity uses the full-space form")
    ball_sample = list(ball_sample)
    cuts = [_ball_cutoff(space, x0, r) for x0, r in ball_sample]
    energies = form.energy(np.reshape(cuts, (-1, space.n_points)))
    best = 0.0
    witness: dict[str, Any] = {}
    series = []
    for (x0, r), e in zip(ball_sample, map(float, energies)):
        v = space.volume(x0, r)
        c = float(e * phi(scale, x0, r) / v)
        series.append({"x0": x0, "r": r, "C": c, "energy": e})
        if c > best:
            best = c
            witness = {"x0": x0, "r": r}
    return ConditionReport(condition="capacity", params={}, best_constant=best,
                           witness=witness, passed=bool(series) and math.isfinite(best),
                           notes=[] if series else ["no ball was sampled"], series=series)


def _ball_cap_radius(scale: ScaleField, x0: int, delta: float) -> float:
    if math.isinf(scale.T0):
        return math.inf
    return phi_inverse(scale, x0, delta * scale.T0)


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


def _subsets_for_ball(form: SpectralForm, ball: BallQuery,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """The FK family of the ball, unsorted and possibly repeated: the ball, its
    quarter and half sub-balls, three super-level sets of the ball part's
    ground state and three random subsets."""
    ball_members = ball.member_idx
    subsets = [ball_members] + [ball.within(ball.radius * frac) for frac in (0.25, 0.5)]
    ground = np.abs(part_on(form, ball_members).psi[:, 0])
    for dens in (0.25, 0.5, 0.75):
        subsets.append(ball_members[ground > _quantile(ground, 1.0 - dens)])
    for dens in (0.25, 0.5, 0.75):
        k = max(1, int(round(dens * ball_members.size)))
        subsets.append(rng.choice(ball_members, size=k, replace=False))
    return subsets


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


def fk_family_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
                    variant: str, nu: float, b: float, Cprime: float, delta: float,
                    ball_sample, rng: np.random.Generator,
                    extra_subsets: dict[tuple[int, float], list[np.ndarray]] | None = None,
                    ) -> ConditionReport:
    """Faber-Krahn family sweep.

    For each sampled ball B(x0, r) and subset D of its family, the
    witness constant is lambda_1(D) * phi(x0,r) / bracket where the bracket is
    the variant's volume-ratio term; the reported best constant is the
    smallest witness, i.e. the largest C for which the inequality holds on
    every sample.  Subsets whose bracket is nonpositive satisfy the display
    trivially and are skipped.  Reports never claim more than the sampled
    family.  FK and WFK skip radii r >= phi^-1(x0, delta * T0).

    ``extra_subsets`` adds subsets per sampled ball; a subset that repeats
    one of its ball is swept once.  lambda_1 comes from :func:`lambda1`, so
    a subset some part was solved on is not solved again.
    """
    if variant not in ("FK", "WFK", "GFK"):
        raise ParameterError(f"unknown variant {variant!r}")
    best = math.inf
    witness: dict[str, Any] = {}
    series = []
    trivial = 0
    for x0, r in ball_sample:
        if variant in ("FK", "WFK") and r >= _ball_cap_radius(scale, x0, delta):
            continue
        ball = space.ball(x0, r)
        phival = phi(scale, x0, r)
        damping = _damping(scale, phival)
        subsets = _subsets_for_ball(form, ball, rng)
        if extra_subsets:
            subsets.extend(extra_subsets.get((x0, r), []))
        # sorted, without repeats or empty sets, in order of first appearance
        uniq = dict.fromkeys(tuple(sorted(int(i) for i in s)) for s in subsets)
        for D in (np.asarray(key, dtype=int) for key in uniq if key):
            mu_D = float(space.weights[D].sum())
            ratio_pow = (ball.volume / mu_D) ** nu
            bracket = _fk_bracket(variant, ratio_pow, damping, b, Cprime)
            if bracket <= 0:
                trivial += 1
                continue
            lam = lambda1(form, D)
            c = lam * phival / bracket
            series.append({"x0": x0, "r": r, "size_D": int(D.size),
                           "lambda1": lam, "C": c})
            if c < best:
                best = c
                witness = {"x0": x0, "r": r, "size_D": int(D.size), "lambda1": lam}
    report = ConditionReport(
        condition=f"fk_{variant.lower()}",
        params={"variant": variant, "nu": nu, "b": b, "Cprime": Cprime,
                "delta": delta, "subset_strategy": "mixed"},
        best_constant=(None if best is math.inf else best),
        witness=witness, series=series)
    if trivial:
        report.note(f"{trivial} subsets satisfied the display trivially (bracket <= 0)")
    report.passed = bool(series) and best > 0
    return report


def nash_witness_constant(space: FiniteMMSpace, scale: ScaleField, ball: BallQuery,
                          nu: float, b: float, f_on_D: np.ndarray, LD: np.ndarray) -> float:
    """Witness constant of the ball Nash display for one test function on ``ball``,
    its energy (L_D f) . (f w) from ``LD``, the generator of the ball part."""
    phival = phi(scale, ball.center, ball.radius)
    damping = _damping(scale, phival)
    w = space.weights[ball.member_idx]
    energy = float((LD @ f_on_D) @ (f_on_D * w))
    l1, l2sq = float(np.abs(f_on_D) @ w), float(f_on_D**2 @ w)
    denom = phival * (energy + l2sq / phival) * l1 ** (2 * nu)
    if denom == 0:
        return 0.0
    return l2sq ** (1 + nu) * ball.volume**nu * damping**b / denom


def nash_check(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
               nu: float, b: float, ball_sample,
               rng: np.random.Generator) -> ConditionReport:
    """Ball Nash-inequality sweep over a documented test family.

    The family per ball: low Dirichlet eigenfunctions of the ball part,
    indicators of sub-balls, and random sign vectors, all L2-normalized and
    supported in the ball.  The reported best constant is the largest
    witness, i.e. the smallest C for which the display holds on the family.
    """
    best = 0.0
    witness: dict[str, Any] = {}
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
        for name, f in family:
            norm = math.sqrt(float(f**2 @ w))
            if norm == 0:
                continue
            f = f / norm
            c = nash_witness_constant(space, scale, ball, nu, b, f, part.L)
            series.append({"x0": x0, "r": r, "family": name, "C": c})
            if c > best:
                best = c
                witness = {"x0": x0, "r": r, "family": name}
    return ConditionReport(condition="nash",
                           params={"nu": nu, "b": b, "family": "mixed"},
                           best_constant=best, witness=witness,
                           passed=math.isfinite(best) and best > 0, series=series)


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


def fk_nash_consistency(form: SpectralForm, space: FiniteMMSpace, scale: ScaleField,
                        nu: float, b: float, Cprime: float, ball_sample,
                        rng: np.random.Generator) -> ConditionReport:
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
    balls = list(ball_sample)

    # (x0, r) -> (ball, its largest Nash witness, [(asserted subset, its lambda_1)])
    per_ball: dict[tuple[int, float], tuple[BallQuery, float, list]] = {}
    sweep_subsets: dict[tuple[int, float], list[np.ndarray]] = {}
    for x0, r in balls:
        ball = space.ball(x0, r)
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
        for D in subs.values():
            sub_part = part_on(form, D)
            g = np.zeros(D_ball.size)
            g[np.searchsorted(D_ball, D)] = sub_part.psi[:, 0]
            grounds.append(g)
            asserted.append((D, float(sub_part.eigvals[0])))
        asserted.append((D_ball, float(part.eigvals[0])))
        funcs = base + grounds
        nash = max(nash_witness_constant(space, scale, ball, nu, b, f, part.L) for f in funcs)
        per_ball[(x0, r)] = (ball, nash, asserted)
        sweep_subsets[(x0, r)] = [s for f in funcs
                                  if (s := _superlevel_subset(space, D_ball, f)) is not None]

    gfk = fk_family_check(form, space, scale, "GFK", nu, b, Cprime, 0.5,  # GFK reads no delta
                          balls, rng=rng, extra_subsets=sweep_subsets)
    c_g = gfk.best_constant

    c_n = max([0.0] + [nash for _, nash, _ in per_ball.values()])

    if c_g is None or c_g <= 0 or c_n <= 0:
        return ConditionReport(condition="fk_nash_consistency",
                               params={"nu": nu, "b": b, "Cprime": Cprime},
                               witness={"C_gfk": c_g, "C_nash": c_n},
                               passed=False,
                               notes=["degenerate sweep; no usable constants"])

    forward_bound = 4.0**nu * max(2.0 / c_g, Cprime)
    forward_margin = float(forward_bound - c_n)

    backward_margin = math.inf
    for ball, _, asserted in per_ball.values():
        phival = phi(scale, ball.center, ball.radius)
        damping = _damping(scale, phival)
        for D, lam in asserted:
            mu_D = float(space.weights[D].sum())
            rhs = (damping**b * (ball.volume / mu_D) ** nu - c_n) / c_n
            backward_margin = min(backward_margin, float(lam * phival - rhs))

    passed = forward_margin >= -1e-9 and backward_margin >= -1e-9
    return ConditionReport(
        condition="fk_nash_consistency",
        params={"nu": nu, "b": b, "Cprime": Cprime},
        best_constant=forward_margin,
        witness={"C_gfk": c_g, "C_nash": c_n,
                 "forward_margin": forward_margin,
                 "backward_margin": backward_margin},
        passed=passed,
        series=[{"C_gfk": c_g, "C_nash": c_n,
                 "forward_margin": forward_margin,
                 "backward_margin": backward_margin}],
    )

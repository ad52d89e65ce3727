import re

import numpy as np
import pytest

import hklab as hk
import hklab.space as space_mod


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # the acceptance tests print their own PASS line; print the FAIL line
    # here so every criterion reports one way or the other
    outcome = yield
    rep = outcome.get_result()
    match = re.match(r"test_criterion_(\d+)_(\w+)", item.name)
    if match and rep.when == "call" and rep.failed:
        number, label = int(match.group(1)), match.group(2).replace("_", " ")
        print(f"\nACCEPTANCE {number:02d} {label}: FAIL")


def dense_kernel(space, m):
    """Test kernel whose blocks are read from the matrix ``m``, as it stands
    when a block is read."""
    return hk.JumpKernel(space, lambda rows, cols: m[np.ix_(rows, cols)])


def shuffled(kern):
    """The kernel ``kern`` on its space with the atoms in random order: a
    split form of it has mirror halves that are no evenly stepped runs, so
    it places its columns by index arrays."""
    space = kern.space
    perm = np.random.default_rng(0).permutation(space.n_points)
    atoms = hk.FiniteMMSpace(space.coords[perm], space.weights[perm], space.diameter)
    return dense_kernel(atoms, kern.matrix()[np.ix_(perm, perm)])


def random_setup(seed: int, max_points: int = 400):
    """Deterministic mixed space/kernel config for randomized suites."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    if kind == 0:
        side = int(rng.integers(6, 16))
        space = hk.build_grid(2, side)
        scale = hk.constant_field(space, float(rng.uniform(0.6, 1.8)), T0=1.0)
        kern = hk.build_stable_like_kernel(scale)
    elif kind == 1:
        level = int(rng.integers(4, 9))
        space = hk.build_cantor_product(1 / 3, 1, level)
        scale = hk.constant_field(space, float(rng.uniform(0.5, 1.5)), T0=1.0)
        kern = hk.build_cantor_axis_kernel(scale)
    elif kind == 2:
        space = hk.build_cantor_product(1 / 2, 2, int(rng.integers(2, 5)))
        scale = hk.constant_field(space, float(rng.uniform(0.5, 1.5)), T0=1.0)
        kern = hk.build_cantor_axis_kernel(scale)
    elif kind == 3:
        n = int(rng.integers(20, 120))
        coords = rng.uniform(0.0, 1.0, size=(n, 2))
        w = rng.uniform(0.5, 2.0, size=n)
        space = hk.build_custom(coords, w / w.sum())
        scale = hk.constant_field(space, 1.0, T0=1.0)
        jmat = rng.uniform(0.0, 2.0, size=(n, n))
        jmat = 0.5 * (jmat + jmat.T)
        np.fill_diagonal(jmat, 0.0)
        kern = dense_kernel(space, np.where(jmat > 1.0, jmat, 0.0))
    else:
        side = int(rng.integers(16, 64))
        space = hk.build_grid(1, side)
        scale = hk.constant_field(space, float(rng.uniform(0.6, 1.8)), T0=1.0)
        kern = hk.build_stable_like_kernel(scale)
    assert space.n_points <= max_points
    return space, scale, kern


def full_generator(form):
    """Test oracle: a full form's generator as a dense matrix, -2 J W off the
    diagonal from the form's kernel blocks and the form's diagonal on it."""
    atoms = np.arange(form.space.n_points)
    L = form.kernel.block(atoms, atoms) * -2.0
    L *= form.space.weights[None, :]
    np.fill_diagonal(L, form.diag)
    return L


def split_psi(form):
    """Test oracle: the mu-orthonormal eigenfunctions of a split form, which
    the form never lays out.  The even and the odd half's unit eigenvectors
    stand in merged eigenvalue order, an even column before an equal odd
    one; an even one is v on A and on B, an odd one v on A and -v on B, and
    each row is divided by sqrt(2 w)."""
    basis = form.basis
    A, B = basis.A, basis.B
    halves = basis.factors
    order = np.argsort(np.concatenate([half.eigvals for half in halves]), kind="stable")
    n = order.size
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)
    even, odd = column[:A.size], column[A.size:]
    psi = np.empty((n, n))
    psi[np.ix_(A, even)] = psi[np.ix_(B, even)] = halves[0].psi
    psi[np.ix_(A, odd)] = halves[1].psi
    psi[np.ix_(B, odd)] = -halves[1].psi
    psi /= np.sqrt(2.0 * form.weights)[:, None]
    return psi


@pytest.fixture(params=[None, 1000, 1 << 24],
                ids=["default_budget", "small_chunks", "one_chunk"])
def chunk_budget(request, monkeypatch):
    """Run a test at the default row-chunk budget, at one that splits every
    whole-space pass into ragged chunks of a few rows, and at one that holds
    every test space (up to 4096 atoms) in a single chunk."""
    if request.param is not None:
        monkeypatch.setattr(space_mod, "_CHUNK_ELEMENTS", request.param)
    return request.param


@pytest.fixture
def two_point():
    space = hk.build_two_point()
    kern = hk.build_uniform_kernel(space)
    form = hk.assemble(kern)
    return space, kern, form


@pytest.fixture
def cantor6():
    space = hk.build_cantor_product(1 / 3, 1, 6)
    scale = hk.constant_field(space, 0.8, T0=1.0)
    kern = hk.build_cantor_axis_kernel(scale)
    return space, scale, kern

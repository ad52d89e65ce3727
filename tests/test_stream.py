"""hklab's Stream against numpy's Generator, its oracle, and its own pins.

A Stream must give, for each call form the checks use, the draws that
``np.random.default_rng(seed)`` gives.  The tests may import numpy.random;
the package may not.
"""

import ast
import pathlib

import numpy as np
import pytest

import hklab as hk
from hklab.stream import Stream

SEEDS = list(range(64)) + [2**32, 2**64 + 5, 10**30, 2**200 + 17]


def pair(seed):
    return np.random.default_rng(seed), Stream(seed)


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_call_form_draws_as_numpy(seed):
    gen, stream = pair(seed)
    for high in (1, 2, 7, 201, 256, 4096, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1):
        assert same(gen.integers(0, high, size=5), stream.integers(0, high, 5)), high
    assert same(gen.integers(-3, 300, size=(40, 3)), stream.integers(-3, 300, (40, 3)))
    assert same(gen.choice(256, size=4, replace=False), stream.choice(256, 4, replace=False))
    members = np.arange(10, 200)
    assert same(gen.choice(members, size=47, replace=False),
                stream.choice(members, size=47, replace=False))
    assert same(gen.choice(9, size=9, replace=False), stream.choice(9, 9, replace=False))
    assert same(gen.choice([-1.0, 1.0], size=33), stream.choice([-1.0, 1.0], size=33))
    assert same(gen.choice(members, size=5), stream.choice(members, 5))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_bulk_fill_draws_as_numpy(seed):
    # a range just above 2**31 rejects about half the words, so a long draw
    # takes the next word for a rejected one again and again
    gen, stream = pair(seed)
    assert same(gen.integers(0, 2**31 + 1, size=5000), stream.integers(0, 2**31 + 1, 5000))


@pytest.mark.parametrize("population,k", [
    (10000, 200), (10000, 201), (10001, 200), (10001, 201), (16384, 327), (16384, 328),
    (16384, 512), (20000, 20000), (10, 10), (5, 0), (1, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_both_sides_of_the_tail_shuffle_switch(seed, population, k):
    # Floyd's algorithm then a shuffle, except above 10000 entries with k
    # over population // 50, where numpy shuffles the tail of an arange;
    # 16384 atoms and k = 512 is verify_scale_axioms past the dense cap
    gen, stream = pair(seed)
    assert same(gen.choice(population, size=k, replace=False),
                stream.choice(population, k, replace=False))


@pytest.mark.parametrize("seed", [0, 3, 2**64 + 5])
def test_mixed_calls_carry_the_buffered_half_word(seed):
    # an odd count of words leaves the high half of an output for the next
    # call, whatever its form, which takes it first and may leave one
    gen, stream = pair(seed)
    calls = [("integers", (0, 11, 3)), ("choice", (256, 5, False)),
             ("integers", (0, 2, 1)), ("integers", (0, 97, 1001)), ("choice", ([-1.0, 1.0], 7, True)),
             ("choice", (np.arange(50), 13, False)), ("integers", (0, 3, 600)),
             ("integers", (5, 9, 2)), ("choice", (300, 1, False))]
    for form, (a, b, c) in calls:
        if form == "choice":
            assert same(gen.choice(a, size=b, replace=c), stream.choice(a, b, replace=c))
        else:
            assert same(gen.integers(a, b, size=c), stream.integers(a, b, c))


def test_draws_are_pinned_as_the_streams_own_contract():
    # literal draws: these hold whatever numpy's Generator does next
    pins = {0: ([850, 636, 511, 269], [4, 10, 19, 77], [1, 1, 1, 1, 1, 1],
                [6539, 3576, 11344]),
            7: ([944, 625, 684, 897], [197, 212, 57, 146], [1, 1, -1, -1, 1, -1],
                [13407, 2114, 7966]),
            2**64 + 5: ([889, 742, 571, 391], [105, 216, 187, 174], [1, -1, -1, 1, -1, -1],
                        [10663, 4218, 5489])}
    for seed, (ints, balls, signs, tail) in pins.items():
        stream = Stream(seed)
        assert stream.integers(0, 1000, 4).tolist() == ints
        assert stream.choice(256, 4, replace=False).tolist() == balls
        assert stream.choice([-1, 1], 6).tolist() == signs
        assert stream.choice(16384, 512, replace=False)[:3].tolist() == tail


def test_the_stream_is_exported_and_what_the_checkers_take(rng):
    assert hk.Stream is Stream and isinstance(rng, Stream)
    space = hk.build_cantor_product(1 / 3, 1, 5)
    assert hk.sample_balls(space, 4, [0.5], rng) == hk.sample_balls(
        space, 4, [0.5], np.random.default_rng(0))


@pytest.mark.parametrize("call,message", [
    (lambda s: s.choice(5, 2, p=[0.2] * 5), "p="),
    (lambda s: s.integers(0, 5, 2, endpoint=True), "endpoint"),
    (lambda s: s.integers(0, 2**32, 2), "2\\*\\*32"),
    (lambda s: s.integers(-1, 2**32 - 1, 2), "2\\*\\*32"),
    (lambda s: s.integers(3, 3, 2), "2\\*\\*32"),
    (lambda s: s.integers(0, 3, (2, -1)), "negative"),
    (lambda s: s.choice(5, 6, replace=False), "without replacement"),
    (lambda s: s.choice([], 1), "population"),
    (lambda s: s.choice(2**32, 1), "population"),
    (lambda s: s.choice(5, -1), "negative"),
])
def test_unsupported_forms_are_refused(call, message):
    with pytest.raises(hk.ParameterError, match=message):
        call(Stream(0))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_a_seed_must_be_a_whole_number(seed):
    with pytest.raises(hk.ParameterError, match="seed"):
        Stream(seed)


# numpy.random imports secrets and hmac, which load OpenSSL's _hashlib, as
# hashlib does; the package draws from its Stream and hashes configs with
# CPython's built-in SHA-256 (report.config_hash reaches hashlib, by name,
# only on a build without it)
_OPENSSL_IMPORTERS = {"numpy.random", "secrets", "hmac", "_hashlib", "hashlib"}


def _openssl_imports(source: str) -> list[str]:
    """``line: what`` of each import of an ``_OPENSSL_IMPORTERS`` module (or a
    submodule of one) and each read of ``np.random`` or ``numpy.random``."""
    def banned(name):
        return any(name == m or name.startswith(m + ".") for m in _OPENSSL_IMPORTERS)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if banned(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.lineno}: from {node.module} import {a.name}" for a in node.names
                      if banned(node.module) or banned(f"{node.module}.{a.name}")]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.lineno}: {node.value.id}.random")
    return found


def test_openssl_import_detector_sees_every_form():
    source = ("import numpy as np\nimport numpy.random\nimport hashlib, json\n"
              "from numpy import random\nfrom numpy.random import default_rng\n"
              "from hmac import compare_digest\nimport secrets as s\n"
              "def f():\n    import _hashlib\n    return np.random.default_rng(0)\n"
              "def g(x):\n    return x.random, numpy.linalg, np.randomize\n")
    assert _openssl_imports(source) == [
        "2: import numpy.random", "3: import hashlib", "4: from numpy import random",
        "5: from numpy.random import default_rng", "6: from hmac import compare_digest",
        "7: import secrets", "9: import _hashlib", "10: np.random"]


def test_no_module_imports_numpy_random_or_openssl():
    package = pathlib.Path(hk.__file__).parent
    found = [f"{path.name}:{hit}" for path in sorted(package.glob("*.py"))
             for hit in _openssl_imports(path.read_text())]
    assert found == []

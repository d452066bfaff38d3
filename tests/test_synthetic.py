"""planted_fixture builds, in preallocated matrices, the bytes of the
row-by-row reference in oracles.py."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gendebias import planted_fixture

# the fixture perfbench builds at full size
BENCHMARK_SHAPE = dict(dim=300, n_nouns=6500, n_inanimate=650)

CONFIGS = {
    "default": {},
    "benchmark-rotated": BENCHMARK_SHAPE,
    "benchmark-aligned": dict(BENCHMARK_SHAPE, rotate_source=False),
    "dim4-two-nouns": dict(dim=4, n_nouns=2, n_inanimate=1),
    "dim17-no-definitional": dict(dim=17, n_definitional=0),
}


def assert_same_fixture(got, want):
    for side in ("source", "english"):
        a, b = getattr(got, side), getattr(want, side)
        assert a.words == b.words, side
        assert a.matrix.tobytes() == b.matrix.tobytes(), side
        assert (a.normalized, a.language_tag) == (b.normalized, b.language_tag), side
        assert a.row_norms().tobytes() == b.row_norms().tobytes(), side
    for field in ("rotation", "grammatical_axis", "semantic_axis"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.lexicon == want.lexicon
    assert got.english_lexicon == want.english_lexicon
    assert list(got.seed_dictionary.items()) == list(want.seed_dictionary.items())


@pytest.mark.parametrize("seed, config", [
    *((seed, name) for name in CONFIGS for seed in range(6)),
    (11, "benchmark-rotated"), (11, "benchmark-aligned"),
])
def test_fixture_is_bit_identical_to_rowwise_oracle(seed, config):
    kwargs = CONFIGS[config]
    assert_same_fixture(planted_fixture(seed=seed, **kwargs),
                        oracles.planted_fixture_rowwise(seed=seed, **kwargs))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       half_nouns=st.integers(0, 20), n_definitional=st.integers(0, 6),
       n_occupations=st.integers(0, 6), n_inanimate=st.integers(0, 40),
       rotate_source=st.booleans())
def test_small_fixtures_are_bit_identical_to_rowwise_oracle(
        seed, dim, half_nouns, n_definitional, n_occupations, n_inanimate,
        rotate_source):
    kwargs = dict(seed=seed, dim=dim, n_nouns=2 * half_nouns,
                  n_definitional=n_definitional, n_occupations=n_occupations,
                  n_inanimate=min(n_inanimate, 2 * half_nouns),
                  rotate_source=rotate_source)
    assert_same_fixture(planted_fixture(**kwargs),
                        oracles.planted_fixture_rowwise(**kwargs))


def test_fixture_peaks_near_three_matrices():
    # the bases, the source and the English rows are held at once, then the
    # source, the English and the rotated source: 3.17 source matrices
    # measured
    planted_fixture(seed=0, dim=4, n_nouns=2, n_inanimate=1)  # first-call imports
    tracemalloc.start()
    try:
        fixture = planted_fixture(seed=0, **BENCHMARK_SHAPE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * fixture.source.matrix.nbytes

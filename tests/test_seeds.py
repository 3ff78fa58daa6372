import numpy as np
import pytest

from treesplice.seeds import below, child_seed, substream, word_stream


def test_substream_reproducible_and_distinct():
    a = substream(7, "walk").integers(0, 1 << 32, size=8)
    b = substream(7, "walk").integers(0, 1 << 32, size=8)
    assert np.array_equal(a, b)
    c = substream(7, "orient").integers(0, 1 << 32, size=8)
    d = substream(8, "walk").integers(0, 1 << 32, size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_path_components_matter():
    a = substream(1, "tree", 0).integers(0, 100, size=4)
    b = substream(1, "tree", 1).integers(0, 100, size=4)
    assert not np.array_equal(a, b)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        substream(-1, "x")
    with pytest.raises(ValueError):
        substream(1 << 64, "x")
    substream((1 << 64) - 1, "x")  # boundary is fine


def test_child_seed_chains():
    s1 = child_seed(3, "a", 1)
    s2 = child_seed(3, "a", 2)
    assert s1 != s2
    assert 0 <= s1 < 1 << 64
    assert child_seed(3, "a", 1) == s1


class _OldBoundedDraws:
    """The buffered draw class the kernels used before ``word_stream``."""

    def __init__(self, gen, size=64, cap=16384):
        self._gen, self._size, self._cap = gen, size, cap
        self._buf = gen.integers(0, 1 << 64, size=size, dtype=np.uint64).tolist()
        self._pos = 0

    def below(self, bound):
        limit = ((1 << 64) // bound) * bound
        while True:
            if self._pos >= len(self._buf):
                self._size = min(self._size * 4, self._cap)
                self._buf = self._gen.integers(0, 1 << 64, size=self._size, dtype=np.uint64).tolist()
                self._pos = 0
            w = self._buf[self._pos]
            self._pos += 1
            if w < limit:
                return w % bound


class _StubGenerator:
    """Hands out ``head``'s words first, then zeros; records each block size."""

    def __init__(self, head):
        self.words = list(head)
        self.sizes = []

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        self.sizes.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out + [0] * (size - len(out)), dtype=np.uint64)


def test_word_stream_draws_unbiased_and_deterministic():
    word = word_stream(substream(11, "draws"))
    vals = [below(word, 7) for _ in range(70_000)]
    assert set(vals) == set(range(7))
    counts = np.bincount(vals)
    # 4 standard errors around the uniform expectation.
    expect = 10_000
    se = (70_000 * (1 / 7) * (6 / 7)) ** 0.5
    assert all(abs(c - expect) <= 4 * se for c in counts)
    again = word_stream(substream(11, "draws"))
    assert [below(again, 7) for _ in range(100)] == vals[:100]


def test_word_stream_grows_buffer_and_validates():
    word = word_stream(substream(12, "grow"), size=4)
    out = [below(word, 1000) for _ in range(1000)]
    assert all(0 <= x < 1000 for x in out)
    with pytest.raises(ValueError):
        below(word, 0)
    stub = _StubGenerator([])
    word = word_stream(stub, size=4)
    for _ in range(4 + 16 + 64 + 256 + 1024 + 4096 + 16384 + 1):
        word()
    assert stub.sizes == [4, 16, 64, 256, 1024, 4096, 16384, 16384]


def test_word_stream_draws_equal_the_old_buffered_draws():
    # Log-uniform bounds from 2 up to 2^20, so small and large ones interleave.
    bounds = np.exp2(substream(13, "bounds").uniform(1, 20, size=30_000)).astype(int).tolist()
    old = _OldBoundedDraws(substream(13, "words"))
    word = word_stream(substream(13, "words"))
    assert [below(word, b) for b in bounds] == [old.below(b) for b in bounds]


def test_rejected_word_is_skipped():
    # 2^64 mod 3 = 1, so the top word 2^64 - 1 is the one word rejected for 3.
    top = (1 << 64) - 1
    word = word_stream(_StubGenerator([top, top - 1, top, 10]))
    assert below(word, 3) == (top - 1) % 3
    assert below(word, 3) == 10 % 3
    word = word_stream(_StubGenerator([top, 10]))
    assert below(word, 2) == top % 2  # 2 divides 2^64: nothing is rejected

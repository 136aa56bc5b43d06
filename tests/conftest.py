import hypothesis.strategies as st
import pytest

from crossnest import SignedPermutation, enumeration


@st.composite
def signed_permutations(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    mags = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(tuple(m * s for m, s in zip(mags, signs)))


@pytest.fixture
def small_blocks(monkeypatch):
    """Stream in blocks of 2^5 rows and refuse to build more magnitude
    permutations at once than one block holds; the list it returns
    records each block's count."""
    monkeypatch.setattr(enumeration, "BLOCK_ROWS", 2 ** 5)
    build, built = enumeration._signed_rows, []

    def one_block(mags, n):
        step = max(1, enumeration.BLOCK_ROWS >> n)
        assert len(mags) <= step, f"{len(mags)} magnitude permutations in one block of {step}"
        built.append(len(mags))
        return build(mags, n)

    monkeypatch.setattr(enumeration, "_signed_rows", one_block)
    return built

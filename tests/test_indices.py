import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    basis_monomials,
    canonical_counts,
    canonicalize,
    count_freqs,
    count_matrix_basis,
    count_moment_vector,
    enumerate_matrix_basis,
    enumerate_moment_vector,
    is_canonical,
    mode_counts,
    moment_keys,
)
from momentpde.models import MeasureTag
from momentpde.relaxation import MOMENT, BlockSpec, block_specs


def negated(idx):
    return MomentIndex(idx.time_degree, tuple(-n for n in idx.freqs))


# (degrees) -> (moment vector size, matrix size)
SIZE_TABLE = {
    (2, 2, 2): (63, 12),
    (4, 2, 2): (105, 18),
    (6, 2, 2): (147, 24),
    (6, 2, 4): (385, 40),
    (2, 4, 2): (378, 42),
    (4, 4, 2): (630, 63),
    (6, 4, 2): (882, 84),
    (4, 4, 4): (3575, 165),
    (6, 4, 4): (5005, 220),
    (6, 4, 6): (16660, 420),
    (6, 6, 4): (35035, 880),
    (6, 6, 6): (189924, 2240),
}


def test_size_table_closed_form():
    for triple, (vec, mat) in SIZE_TABLE.items():
        deg = TruncationDegrees(*triple)
        assert count_moment_vector(deg) == vec
        assert count_matrix_basis(deg) == mat


def test_enumeration_matches_closed_form_counts():
    for triple in SIZE_TABLE:
        deg = TruncationDegrees(*triple)
        assert len(enumerate_moment_vector(deg)) == count_moment_vector(deg)
        assert len(enumerate_matrix_basis(deg)) == count_matrix_basis(deg)


def test_degenerate_truncation():
    deg = TruncationDegrees(0, 0, 0)
    assert count_moment_vector(deg) == 1
    assert count_matrix_basis(deg) == 1
    assert enumerate_moment_vector(deg) == [MomentIndex(0, ())]


def test_truncation_degree_validation():
    with pytest.raises(ValueError):
        TruncationDegrees(3, 2, 2)
    with pytest.raises(ValueError):
        TruncationDegrees(2, 1, 2)
    with pytest.raises(ValueError):
        TruncationDegrees(2, 2, -1)


def test_moment_index_normalizes_freqs():
    assert MomentIndex(1, (2, -1)).freqs == (-1, 2)
    assert MomentIndex(1, (2, -1)) == MomentIndex(1, (-1, 2))
    with pytest.raises(ValueError):
        MomentIndex(-1, ())


def test_canonicalize_permutation_and_conjugation():
    # permutation symmetry: order of modes is immaterial
    assert canonicalize(MomentIndex(1, (2, -1))) == canonicalize(MomentIndex(1, (-1, 2)))
    # conjugate pair maps to one representative with opposite flags
    a = canonicalize(MomentIndex(0, (1, -2)))
    b = canonicalize(MomentIndex(0, (-1, 2)))
    assert a.index == b.index
    assert a.conjugated != b.conjugated
    # self-conjugate multiset is its own representative
    c = canonicalize(MomentIndex(3, (-1, 1)))
    assert c.conjugated is False
    assert c.index == MomentIndex(3, (-1, 1))


index_strategy = st.builds(
    MomentIndex,
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=6).map(tuple),
)


@settings(max_examples=500)
@given(index_strategy)
def test_canonicalize_idempotent(idx):
    canon = canonicalize(idx)
    again = canonicalize(canon.index)
    assert again.index == canon.index
    assert again.conjugated is False


@settings(max_examples=500)
@given(index_strategy)
def test_canonicalize_involution_under_negation(idx):
    canon = canonicalize(idx)
    flipped = canonicalize(negated(idx))
    assert flipped.index == canon.index
    if negated(idx) == idx:
        assert canon.conjugated is False and flipped.conjugated is False
    else:
        assert flipped.conjugated != canon.conjugated


def test_entry_index_examples():
    # entry (r, c) is the row monomial times the conjugated column monomial
    basis = [MomentIndex(0, ()), MomentIndex(1, (1,)), MomentIndex(0, (2,)),
             MomentIndex(0, (1,))]
    spec = BlockSpec("example", MeasureTag.OCCUPATION, basis, MOMENT, 2)
    r, c, _, ell, counts = spec.upper_terms()
    entries = {
        (int(i), int(j)): MomentIndex(int(t), f)
        for i, j, t, f in zip(r, c, ell, count_freqs(counts, 2))
    }
    assert entries[(1, 2)] == MomentIndex(1, (1, -2))
    assert entries[(0, 0)] == MomentIndex(0, ())
    assert entries[(3, 3)] == MomentIndex(0, (1, -1))
    assert entries[(0, 2)] == MomentIndex(0, (-2,))
    assert len(entries) == 10


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 4, 2), (4, 2, 4)])
def test_matrix_entries_stay_inside_truncation(triple):
    # the lower triangle holds the conjugates, and the universe is closed
    # under conjugation
    deg = TruncationDegrees(*triple)
    universe = set(enumerate_moment_vector(deg))
    for spec in block_specs(deg):
        _, _, _, ell, counts = spec.upper_terms()
        m = len(spec.basis)
        assert len(ell) == len(spec.terms) * m * (m + 1) // 2
        freqs = count_freqs(counts, deg.harmonic)
        moments = {MomentIndex(int(t), f) for t, f in zip(ell, freqs)}
        assert moments <= universe


def test_enumeration_is_deterministic_and_ordered():
    deg = TruncationDegrees(4, 4, 2)
    first = enumerate_moment_vector(deg)
    assert first == enumerate_moment_vector(deg)
    keys = [(i.time_degree, len(i.freqs), i.freqs) for i in first]
    assert keys == sorted(keys)
    assert enumerate_matrix_basis(deg) == enumerate_matrix_basis(deg)


def test_canonical_indices_partition():
    deg = TruncationDegrees(2, 2, 2)
    canon = [idx for idx in enumerate_moment_vector(deg) if is_canonical(idx)]
    assert all(is_canonical(i) for i in canon)
    # every enumerated index resolves to exactly one listed representative
    reps = set(canon)
    for idx in enumerate_moment_vector(deg):
        assert canonicalize(idx).index in reps
    # pairs: total = self-conjugate + 2 * strict pairs
    self_conj = sum(1 for i in canon if negated(i) == i)
    assert len(enumerate_moment_vector(deg)) == self_conj + 2 * (len(canon) - self_conj)


def test_basis_monomials_caps():
    assert basis_monomials(-1, 2, 2) == []
    term = basis_monomials(0, 1, 2)
    assert len(term) == 6
    assert all(m.time_degree == 0 for m in term)


@settings(max_examples=500)
@given(index_strategy)
def test_canonical_counts_agree_with_canonicalize(idx):
    canon = canonicalize(idx)
    counts = mode_counts([idx.freqs, negated(idx).freqs], 6)
    assert np.array_equal(counts[0, ::-1], counts[1])  # negation reverses the row
    rows, conjugated = canonical_counts(counts[:1])
    assert bool(conjugated[0]) == canon.conjugated
    assert count_freqs(rows, 6) == [canon.index.freqs]


@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 4, 2), (6, 4, 6), (2, 2, 20), (2, 6, 3)])
def test_moment_keys_are_distinct(triple):
    # one distinct key per moment of the truncation, (2, 2, 20) with 41 modes
    deg = TruncationDegrees(*triple)
    moments = enumerate_moment_vector(deg)
    ell = np.array([idx.time_degree for idx in moments])
    keys = moment_keys(ell, mode_counts([idx.freqs for idx in moments], deg.harmonic))
    assert keys.shape == (len(moments),)
    assert len(set(keys.tolist())) == len(moments)


def test_moment_keys_reject_what_they_cannot_encode():
    # int8 keys: a time degree above 127 would wrap onto a smaller one
    with pytest.raises(ValueError, match="do not fit"):
        moment_keys(np.array([0, 128]), mode_counts([(), (1,)], 2))
    with pytest.raises(ValueError, match="outside"):
        mode_counts([(3,)], 2)

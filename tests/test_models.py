import itertools

import numpy as np
import pytest

from momentpde.analytic import analytic_tables
from momentpde.indices import (
    MomentIndex,
    TruncationDegrees,
    canonicalize,
    count_freqs,
    enumerate_moment_vector,
)
from momentpde.models import (
    DistributedQuadratic,
    InitialData,
    Linear,
    LocalQuadratic,
    MeasureTag,
    constraint_residual,
    generate_constraints,
    initial_table,
)
from momentpde.tables import MissingMomentError, MomentTable


def test_initial_data_validation():
    with pytest.raises(ValueError):
        InitialData({1: 1.0})  # missing conjugate partner
    with pytest.raises(ValueError):
        InitialData({1: 1 + 1j, -1: 1 + 1j})  # not conjugate-symmetric
    # the tolerance is relative to the larger of u_n and u_-n, also below 1
    for bad in ({1: 1e-13}, {1: 1e-13, -1: 2e-13}, {2: 1e-20j, -2: 1e-20j}):
        with pytest.raises(ValueError, match="not conjugate-symmetric"):
            InitialData(bad)
    small = InitialData({1: 1e-13 + 2e-13j, -1: 1e-13 - 2e-13j})
    assert small.coeff(-1) == small.coeff(1).conjugate()
    for bad in ({0: float("nan")}, {1: float("inf"), -1: float("inf")}):
        with pytest.raises(ValueError, match="not finite"):
            InitialData(bad)
    data = InitialData({1: 1 + 2j, -1: 1 - 2j, 0: 3.0})
    assert data.coeff(1) == 1 + 2j
    assert data.coeff(5) == 0
    assert data.max_mode == 1


def test_initial_moment_examples(u0, deg222):
    table = initial_table(u0, deg222)
    assert table.get(MomentIndex(0, (1, -1))) == 1
    assert table.get(MomentIndex(2, (1,))) == 0
    assert table.get(MomentIndex(0, (2,))) == 0


def negated(idx):
    return MomentIndex(idx.time_degree, tuple(-n for n in idx.freqs))


def expand(equations):
    """{test index: {(measure, moment): coeff}} of every equation, with the
    implied terminal (+1) and initial (-1) terms."""
    h = equations.harmonic
    tests = [
        MomentIndex(ell, freqs)
        for ell, freqs in zip(equations.test_ell.tolist(), count_freqs(equations.test_counts, h))
    ]
    out = {t: {(MeasureTag.TERMINAL, t): 1.0, (MeasureTag.INITIAL, t): -1.0} for t in tests}
    assert len(out) == len(tests)  # one equation per test index
    assert np.all(np.diff(equations.eq) >= 0)  # the terms of an equation are contiguous
    terms = zip(
        equations.eq.tolist(),
        equations.coeff.tolist(),
        equations.ell.tolist(),
        count_freqs(equations.counts, h),
    )
    for e, coeff, ell, freqs in terms:
        key = (MeasureTag.OCCUPATION, MomentIndex(ell, freqs))
        assert key not in out[tests[e]]  # repeated moments are merged
        out[tests[e]][key] = coeff
    return out


def test_linear_constraint_examples(deg222):
    equations = expand(generate_constraints(Linear(), deg222))
    # mass conservation: empty sums leave terminal minus initial
    assert equations[MomentIndex(0, ())] == {
        (MeasureTag.TERMINAL, MomentIndex(0, ())): 1,
        (MeasureTag.INITIAL, MomentIndex(0, ())): -1,
    }
    # single mode: y1 - y0 = -1 * occupation
    assert equations[MomentIndex(0, (1,))] == {
        (MeasureTag.TERMINAL, MomentIndex(0, (1,))): 1,
        (MeasureTag.INITIAL, MomentIndex(0, (1,))): -1,
        (MeasureTag.OCCUPATION, MomentIndex(0, (1,))): 1,
    }
    # time term appears for ell >= 1 with coefficient -ell
    terms = equations[MomentIndex(2, (1,))]
    assert terms[(MeasureTag.OCCUPATION, MomentIndex(1, (1,)))] == -2
    assert terms[(MeasureTag.OCCUPATION, MomentIndex(2, (1,)))] == 1


def test_linear_constraint_count_matches_moment_vector(deg222, deg422):
    for deg in (deg222, deg422):
        constraints = generate_constraints(Linear(), deg)
        indices = enumerate_moment_vector(deg)
        assert len(constraints) == len(indices)
        canon = generate_constraints(Linear(), deg, canonical_only=True)
        assert len(canon) == sum(not canonicalize(idx).conjugated for idx in indices)


def test_conjugated_test_index_gives_conjugated_constraint(deg422):
    equations = expand(generate_constraints(Linear(), deg422))
    for test, terms in equations.items():
        mirror = equations[negated(test)]
        mirrored = {(m, negated(i)): coeff for (m, i), coeff in mirror.items()}
        assert mirrored == {k: v.conjugate() for k, v in terms.items()}


def test_distributed_epsilon_terms_only_on_zero_modes(deg422):
    model = DistributedQuadratic(0.5, 1, 1)
    for test, terms in expand(generate_constraints(model, deg422)).items():
        eps_terms = {
            (m, i): coeff
            for (m, i), coeff in terms.items()
            if m is MeasureTag.OCCUPATION
            and len(i.freqs) == len(test.freqs) + 1
        }
        if 0 not in test.freqs:
            assert not eps_terms
        else:
            assert eps_terms
            # stored residual form carries -eps (equation RHS carries +eps)
            assert all(coeff.real < 0 for coeff in eps_terms.values())


def test_distributed_forcing_modes_must_fit_truncation(deg222):
    with pytest.raises(ValueError):
        generate_constraints(DistributedQuadratic(1.0, 3, 1), deg222)


def test_distributed_example_terms(deg422):
    # test index (0, [0]): forcing spreads over the four sign choices of (1, 1)
    model = DistributedQuadratic(0.25, 1, 1)
    terms = expand(generate_constraints(model, deg422))[MomentIndex(0, (0,))]
    assert terms[(MeasureTag.OCCUPATION, MomentIndex(0, (1, 1)))] == -0.25
    assert terms[(MeasureTag.OCCUPATION, MomentIndex(0, (-1, 1)))] == -0.5
    assert terms[(MeasureTag.OCCUPATION, MomentIndex(0, (-1, -1)))] == -0.25


def test_local_convolution_window():
    # d_h = 2, test index (0, [1]): admissible m in {-1, 0, 1, 2}, multisets pair up
    deg = TruncationDegrees(2, 2, 2)
    model = LocalQuadratic(1e-3)
    terms = expand(generate_constraints(model, deg))[MomentIndex(0, (1,))]
    eps_terms = {
        i: coeff
        for (m, i), coeff in terms.items()
        if m is MeasureTag.OCCUPATION and len(i.freqs) == 2
    }
    # brute-force window enumeration
    expected = {}
    for m in range(-2, 3):
        if abs(1 - m) <= 2:
            idx = MomentIndex(0, (m, 1 - m))
            expected[idx] = expected.get(idx, 0) - 1e-3
    assert set(eps_terms) == set(expected)
    for idx, coeff in expected.items():
        assert eps_terms[idx] == pytest.approx(coeff)


def test_zero_epsilon_regenerates_linear_constraints(deg422):
    linear = generate_constraints(Linear(), deg422)
    for model in (DistributedQuadratic(0.0, 1, 1), LocalQuadratic(0.0)):
        equations = generate_constraints(model, deg422)
        assert expand(equations) == expand(linear)
        for name in ("test_ell", "test_counts", "eq", "coeff", "ell", "counts"):
            assert np.array_equal(getattr(equations, name), getattr(linear, name))


def test_nonlinear_admissibility_drops_top_algebraic_degree(deg422):
    # local model: every test index with 1 <= k needs k+1 <= algebraic degree
    kept = set(expand(generate_constraints(LocalQuadratic(1.0), deg422)))
    for idx in enumerate_moment_vector(deg422):
        k = len(idx.freqs)
        assert (idx in kept) == (k + 1 <= deg422.algebraic or k == 0)
    # distributed model: only dropped when a zero mode forces the epsilon term
    kept = set(expand(generate_constraints(DistributedQuadratic(1.0, 1, 1), deg422)))
    for idx in enumerate_moment_vector(deg422):
        k = len(idx.freqs)
        dropped = 0 in idx.freqs and k + 1 > deg422.algebraic
        assert (idx in kept) == (not dropped)


def test_constraint_residual_on_analytic_tables(u0, deg422):
    tables = analytic_tables(u0, deg422)
    res = constraint_residual(generate_constraints(Linear(), deg422), tables)
    assert res <= 1e-10


def test_constraint_residual_zeroed_occupation(u0, deg222):
    tables = analytic_tables(u0, deg222)
    zeroed = dict(tables)
    zeroed[MeasureTag.OCCUPATION] = MomentTable.from_moments(
        {idx: 0j for idx, _ in tables[MeasureTag.OCCUPATION].items()}
    )
    equations = generate_constraints(Linear(), deg222)
    res = constraint_residual(equations, zeroed)
    expected = max(
        abs(tables[MeasureTag.TERMINAL].get(test) - tables[MeasureTag.INITIAL].get(test))
        for test in expand(equations)
    )
    assert res == pytest.approx(expected)


def test_constraint_residual_missing_index_names_it(u0, deg222):
    tables = analytic_tables(u0, deg222)
    tables[MeasureTag.OCCUPATION] = MomentTable.from_moments({MomentIndex(0, ()): 1.0})
    with pytest.raises(MissingMomentError) as err:
        constraint_residual(generate_constraints(Linear(), deg222), tables)
    assert "occupation" in str(err.value)
    assert "y[" in str(err.value)


def reference_equations(model, deg, canonical_only):
    """Brute-force moment equations by the rules of the README's model table,
    in the order of the moment vector."""
    h, eps = deg.harmonic, model.epsilon
    out = {}
    for ell in range(deg.time + 1):
        for k in range(deg.algebraic + 1):
            for freqs in itertools.combinations_with_replacement(range(-h, h + 1), k):
                test = MomentIndex(ell, freqs)
                if canonical_only and tuple(sorted(-n for n in freqs)) < freqs:
                    continue  # the conjugate of a kept test index
                extra = []  # (rest of the multiset, two new modes) per model term
                if isinstance(model, DistributedQuadratic) and eps != 0:
                    for j, n in enumerate(freqs):
                        if n == 0:
                            signs = itertools.product((model.m1, -model.m1), (model.m2, -model.m2))
                            extra += [(freqs[:j] + freqs[j + 1 :], pair) for pair in signs]
                elif isinstance(model, LocalQuadratic) and eps != 0:
                    for j, n in enumerate(freqs):
                        pairs = [(m, n - m) for m in range(-h, h + 1) if abs(n - m) <= h]
                        extra += [(freqs[:j] + freqs[j + 1 :], pair) for pair in pairs]
                if extra and k + 1 > deg.algebraic:
                    continue  # dropped, never clipped
                terms = {(MeasureTag.TERMINAL, test): 1.0, (MeasureTag.INITIAL, test): -1.0}
                occupation = [(MomentIndex(ell - 1, freqs), -ell)] if ell > 0 else []
                occupation.append((test, sum(n * n for n in freqs)))
                occupation += [(MomentIndex(ell, rest + pair), -eps) for rest, pair in extra]
                for idx, coeff in occupation:
                    key = (MeasureTag.OCCUPATION, idx)
                    terms[key] = terms.get(key, 0.0) + coeff
                out[test] = {key: c for key, c in terms.items() if c != 0}
    return out


@pytest.mark.parametrize("canonical_only", [False, True])
@pytest.mark.parametrize(
    "model",
    [Linear(), DistributedQuadratic(0.125), LocalQuadratic(0.125), DistributedQuadratic(0.1, 2, 1)],
    ids=repr,
)
@pytest.mark.parametrize("triple", [(2, 2, 2), (4, 2, 2), (4, 4, 2), (6, 2, 4)], ids=str)
def test_equations_match_brute_force_reference(triple, model, canonical_only):
    deg = TruncationDegrees(*triple)
    equations = expand(generate_constraints(model, deg, canonical_only=canonical_only))
    reference = reference_equations(model, deg, canonical_only)
    assert list(equations) == list(reference)  # same test indices, same order
    for test, terms in reference.items():
        # exact coefficients, in the order of first occurrence
        assert list(equations[test].items()) == list(terms.items()), test

"""Fractional-ideal arithmetic: products, colon ideals, coefficient rings,
invertibility, weak equivalence, indices, and the order extension/contraction
maps."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import localconj.ideals as ideals
from localconj import (
    IdealLattice,
    IntMatrix,
    NumberField,
    Order,
    coeff_ring,
    down_map,
    generate_pair,
    ideal_of_matrix,
    in_Id_p,
    index,
    intersection,
    is_invertible,
    mul,
    parse_poly,
    quotient,
    theta_membership,
    up_map,
    verify_arith_equiv,
    verify_weak_witnesses,
    weak_equivalence_data,
    weakly_equivalent,
    zbeta_order,
)

from conftest import CLASSIC_A, CLASSIC_B, M
from oracles import (
    elementwise_contains_lattice,
    elementwise_is_stable_under,
    elementwise_is_stable_under_beta,
    elementwise_order_failure,
    elementwise_scaled,
    kernel_intersection,
    kernel_smallest_positive_integer,
    kernel_system_quotient,
)


@pytest.fixture(scope="module")
def K():
    return NumberField(parse_poly("t^2+3"))


@pytest.fixture(scope="module")
def S(K):
    return IdealLattice.zbeta(K)


@pytest.fixture(scope="module")
def I2(K):
    # 2Z + (1+beta)Z, the classic non-invertible lattice
    return IdealLattice(K, [[2, 0], [1, 1]], 1)


@pytest.fixture(scope="module")
def R(I2):
    return coeff_ring(I2)


def random_ideal(order: Order, p: int, k: int, rng: random.Random) -> IdealLattice:
    """A random member of Id_p of the order: p^k * order plus the module
    generated by two random elements (x * basis spans x * order over Z)."""
    lat = order.lattice
    field = lat.field
    pk = p**k
    base = lat.basis_elements()
    gens = [e * pk for e in base]
    for _ in range(2):
        x = field.zero()
        for e in base:
            x = x + rng.randint(0, pk - 1) * e
        for e in base:
            gens.append(x * e)
    return IdealLattice.from_elements(field, gens)


class TestConstruction:
    @pytest.mark.parametrize(
        "rows", [[[1, 0, 5], [0, 1, 7]], [[1, 0], [0, 1, 7]], [[1], [0]]]
    )
    def test_rows_must_have_the_field_degree(self, K, rows):
        # a longer row was kept past the degree: a 2 x 3 basis in a quadratic field
        with pytest.raises(ValueError, match="field degree"):
            IdealLattice(K, rows)


class TestProduct:
    def test_ring_acts_as_identity(self, K, S, I2):
        assert mul(I2, S) == I2
        assert mul(S, S) == S

    def test_commutative(self, K, S, I2):
        assert mul(I2, S) == mul(S, I2)

    def test_classic_square(self, K, I2):
        two = K.element([2])
        assert mul(I2, I2) == I2.scaled(two)

    def test_associative_random(self, K):
        rng = random.Random(13)
        ideals = []
        while len(ideals) < 3:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(3)]
            try:
                ideals.append(IdealLattice(K, rows, rng.randint(1, 3)))
            except ValueError:
                continue
        a, b, c = ideals
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_field_mismatch(self, I2):
        other = IdealLattice.zbeta(NumberField(parse_poly("t^2-t-1")))
        with pytest.raises(ValueError):
            mul(I2, other)


class TestQuotient:
    def test_no_field_inverse_scaling_or_meet(self, monkeypatch, field_inversions):
        lattices = overorder_lattices("t^4-10t^2+1", 2, [1, 1])

        def forbidden(*args):
            raise AssertionError("quotient must not scale or meet lattices")

        monkeypatch.setattr(IdealLattice, "scaled", forbidden)
        monkeypatch.setattr(ideals, "intersection", forbidden)
        monkeypatch.setattr(ideals, "_meet_rows", forbidden)
        for i in lattices:
            for j in lattices:
                assert j.contains_lattice(mul(quotient(j, i), i))
        assert field_inversions == []

    def test_self_quotient_contains_ring(self, K, I2):
        q = quotient(I2, I2)
        assert q.contains(K.one())
        assert q.contains(K.beta())

    def test_ring_self_quotient(self, K, S):
        assert quotient(S, S) == S

    def test_classic_colon_is_maximal_order(self, K, S, I2):
        # (S : I2) is the bigger ring Z + ((1+beta)/2) Z
        q = quotient(S, I2)
        assert q.den == 2
        assert q.basis == IntMatrix([[1, 1], [0, 2]])
        # and contracting again returns I2 itself: non-invertibility shows up
        # through the coefficient ring, not through double contraction here
        assert quotient(S, q) == I2

    def test_colon_times_ideal_stays_inside(self, K, S, I2):
        q = quotient(S, I2)
        assert S.contains_lattice(mul(q, I2))

    def test_colon_matches_definition_on_grid(self, K, S, I2):
        # membership in (S : I2) == the defining condition, on a grid of
        # small elements with denominators 1..3
        q = quotient(S, I2)
        gens = I2.basis_elements()
        for c0 in range(-4, 5):
            for c1 in range(-4, 5):
                for den in (1, 2, 3):
                    x = K.element([c0, c1], den)
                    assert q.contains(x) == all(S.contains(x * g) for g in gens)


# (field, prime p, g): g(beta) generates the p-radical of Z[beta] together
# with p, and Z[beta] is not p-maximal, so the radical's coefficient ring is
# a strictly larger order
OVERORDER_FIELDS = (
    ("t^2+3", 2, [1, 1]),
    ("t^3-t^2-2t-8", 2, [0, 1, 1]),
    ("t^4-10t^2+1", 2, [1, 1]),
    ("t^5-8", 2, [0, 1]),
    ("t^6-24", 2, [0, 1]),
)


def overorder_lattices(f_text, p, g):
    """Z[beta], the coefficient ring of the p-radical, and random ideals of
    both."""
    field = NumberField(parse_poly(f_text))
    s = zbeta_order(field)
    base = s.lattice.basis_elements()
    radical = IdealLattice.from_elements(
        field, [e * p for e in base] + [field.element(g) * e for e in base]
    )
    r = coeff_ring(radical)
    assert index(s.lattice, r.lattice) > 1
    rng = random.Random(f_text)
    return [
        s.lattice,
        r.lattice,
        random_ideal(s, p, 1, rng),
        random_ideal(s, 3, 1, rng),
        random_ideal(r, p, 2, rng),
        random_ideal(r, 3, 1, rng),
    ]


# (field, generate_pair strategy, seed) at n = 7, 8; on random and singular
# pairs the kernel-system oracle takes from seconds to minutes
LARGE_MATRIX_PAIRS = (
    ("t^7-3", "unimodular", 0),
    ("t^7-3", "unimodular", 1),
    ("t^8-3", "unimodular", 0),
    ("t^8-3", "unimodular", 2),
)


class TestQuotientAgainstKernelSystem:
    @pytest.mark.parametrize("f_text,p,g", OVERORDER_FIELDS)
    def test_sub_ideals_and_overorders(self, f_text, p, g):
        lattices = overorder_lattices(f_text, p, g)
        for i in lattices:
            for j in lattices:
                assert quotient(j, i) == kernel_system_quotient(j, i)

    @pytest.mark.parametrize("f_text,strategy,seed", LARGE_MATRIX_PAIRS)
    def test_matrix_ideals_at_degree_7_and_8(self, f_text, strategy, seed):
        pair = generate_pair(parse_poly(f_text), strategy, seed)
        lattices = (ideal_of_matrix(pair.a), ideal_of_matrix(pair.b))
        for i in lattices:
            for j in lattices:
                assert quotient(j, i) == kernel_system_quotient(j, i)


class TestMeetAgainstKernels:
    """The Hermite-form meets against the Smith-form kernels they replaced."""

    @pytest.mark.parametrize("f_text,p,g", OVERORDER_FIELDS)
    def test_intersection(self, f_text, p, g):
        lattices = overorder_lattices(f_text, p, g)
        for i in lattices:
            for j in lattices:
                assert intersection(i, j) == kernel_intersection(i, j)

    @pytest.mark.parametrize("f_text,p,g", OVERORDER_FIELDS)
    def test_smallest_positive_integer(self, f_text, p, g):
        lattices = overorder_lattices(f_text, p, g)
        for i in lattices:
            for j in lattices:
                for lat in (intersection(i, j), quotient(j, i)):
                    c = lat.smallest_positive_integer()
                    assert c == kernel_smallest_positive_integer(lat)


class TestIntegerPredicatesAgainstElementwise:
    """Membership, stability, scaling and the order axioms on integer rows
    against their definitions through field-element products, on the
    overorder families and their colon ideals."""

    @pytest.fixture(params=OVERORDER_FIELDS, ids=[f for f, _, _ in OVERORDER_FIELDS])
    def family(self, request):
        lattices = overorder_lattices(*request.param)
        colons = [quotient(j, i) for i in lattices for j in lattices]
        # Z + 2 Z[beta] misses beta; Z + Z beta + 2 Z[beta] misses beta^2 (n >= 3)
        n = lattices[0].field.degree
        skewed = [
            IdealLattice(lattices[0].field, IntMatrix.diagonal([1] * k + [2] * (n - k)).entries)
            for k in (1, 2)
        ]
        return lattices, lattices + list(dict.fromkeys(colons)) + skewed

    def test_containment_and_stability(self, family):
        lattices, everything = family
        for i in lattices:
            for j in everything:
                for outer, inner in ((i, j), (j, i)):
                    assert outer.contains_lattice(inner) == elementwise_contains_lattice(
                        outer, inner
                    )
                    assert outer.is_stable_under(inner) == elementwise_is_stable_under(
                        outer, inner
                    )

    def test_beta_stability_scaling_and_order_axioms(self, family):
        _, everything = family
        field = everything[0].field
        rng = random.Random(len(everything))
        for lat in everything:
            assert lat.is_stable_under_beta() == elementwise_is_stable_under_beta(lat)
            coeffs = [rng.randint(-5, 5) for _ in range(field.degree)]
            alpha = field.element(coeffs, rng.randint(1, 4))
            if not alpha.is_zero:
                assert lat.scaled(alpha) == elementwise_scaled(lat, alpha)
            want = elementwise_order_failure(lat)
            if want is None:
                assert Order(lat).lattice == lat
            else:
                with pytest.raises(AssertionError, match=want):
                    Order(lat)

    def test_orders_and_ideal_predicates_build_no_field_element(self, field_elements):
        s, r, *sub = overorder_lattices("t^4-10t^2+1", 2, [1, 1])
        field_elements.clear()
        for order, ideals_of_order in ((Order(s), [s, *sub[:2]]), (Order(r), [r, *sub[2:]])):
            for i in ideals_of_order:
                is_invertible(i, coeff_ring(i))
                is_invertible(i, order)
                for p in (2, 3):
                    in_Id_p(i, order, p)
        assert field_elements == []


class TestCoeffRing:
    def test_zbeta(self, K, S):
        assert coeff_ring(S).lattice == S

    def test_scaling_invariance(self, K, I2):
        alpha = K.element([3, 2], 5)
        assert coeff_ring(I2.scaled(alpha)).lattice == coeff_ring(I2).lattice

    def test_classic_overorder(self, K, I2, R):
        assert R.lattice.den == 2
        assert R.lattice.basis == IntMatrix([[1, 1], [0, 2]])
        assert index(IdealLattice.zbeta(K), R.lattice) == 2


class TestInvertibility:
    def test_principal_is_invertible(self, K, S):
        alpha = K.element([1, 2], 3)
        principal = S.scaled(alpha)
        assert is_invertible(principal, zbeta_order(K))

    def test_classic_non_invertible(self, K, I2):
        assert not is_invertible(I2, zbeta_order(K))

    def test_everything_invertible_when_disc_squarefree(self):
        field = NumberField(parse_poly("t^2-t-1"))
        rng = random.Random(4)
        order = zbeta_order(field)
        found = 0
        while found < 5:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(3)]
            try:
                lat = IdealLattice(field, rows, 1)
            except ValueError:
                continue
            if not lat.is_stable_under_beta():
                continue
            found += 1
            assert is_invertible(lat, order)

    def test_invertible_over_its_own_ring(self, K, I2, R):
        assert is_invertible(I2, R)


class TestWeakEquivalence:
    def test_reflexive(self, I2):
        assert weakly_equivalent(I2, I2)

    def test_scaling(self, K, I2):
        alpha = K.element([1, 1], 2)
        assert weakly_equivalent(I2, I2.scaled(alpha))

    def test_classic_false(self, K, S, I2):
        assert not weakly_equivalent(S, I2)

    def test_witnesses_reverify(self, K, I2):
        alpha = K.element([5, -1], 3)
        j = I2.scaled(alpha)
        ok, x, y = weak_equivalence_data(I2, j)
        assert ok
        assert mul(x, j) == I2
        assert mul(y, I2) == j

    def test_equivalence_relation_axioms(self, K, S, I2):
        rng = random.Random(17)
        family = [S, I2, S.scaled(K.element([1, 1])), I2.scaled(K.element([0, 1]))]
        while len(family) < 8:
            rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)]
            try:
                lat = IdealLattice(K, rows, rng.randint(1, 2))
            except ValueError:
                continue
            if lat.is_stable_under_beta():
                family.append(lat)
        rel = {}
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                rel[i, j] = weakly_equivalent(a, b)
        for i in range(len(family)):
            assert rel[i, i]
            for j in range(len(family)):
                assert rel[i, j] == rel[j, i]
                for k in range(len(family)):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]

    def test_invertible_same_ring_always_equivalent(self):
        field = NumberField(parse_poly("t^3-t-1"))
        rng = random.Random(23)
        order = zbeta_order(field)
        ideals = []
        while len(ideals) < 4:
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
            try:
                lat = IdealLattice(field, rows, 1)
            except ValueError:
                continue
            if lat.is_stable_under_beta():
                ideals.append(lat)
        for a, b in itertools.combinations(ideals, 2):
            assert is_invertible(a, order) and is_invertible(b, order)
            assert weakly_equivalent(a, b)


class TestWitnessCheck:
    """`verify_weak_witnesses`: (1) x * j in i and y * i in j, each tested
    on the rows of x or y times the Z[beta]-module generators S(j) or S(i),
    and (2) 1 in x * y, first on the sublattice of S(x) times y."""

    # (field, strategy) at n = 2-8; singular:p pairs have non-maximal orders
    FIELDS = [
        ("t^2+3", "singular:2"), ("t^3-t-1", "singular:3"), ("t^4-2", "singular:2"),
        ("t^5-2", "unimodular"), ("t^6-2", "singular:3"), ("t^6+7", "unimodular"),
        ("t^7-3", "singular:2"), ("t^8-3", "unimodular"),
    ]

    @staticmethod
    def ideals(f_text, strategy, seed):
        pair = generate_pair(parse_poly(f_text), strategy, seed)
        i = ideal_of_matrix(pair.a)
        j = ideal_of_matrix(pair.b, i.field)
        return i, j

    @staticmethod
    def zbeta_span(lat):
        # row k of Mult(g) holds the coordinates of g * beta^k
        field = lat.field
        rows = [r for g in ideals._module_generators(lat) for r in field.mult_matrix(g).entries]
        return IdealLattice(field, rows, lat.den)

    @pytest.fixture()
    def products(self, monkeypatch):
        """The (x, y) of every `ideals.mul` call, in order."""
        full = ideals.mul
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return full(a, b)

        monkeypatch.setattr(ideals, "mul", counting_mul)
        return calls

    @given(case=st.sampled_from(FIELDS), seed=st.integers(0, 40))
    @settings(max_examples=12, deadline=None)
    def test_generators_span_the_lattice(self, case, seed):
        # the degree-filtration lemma: S(L) generates L over Z[beta] for the
        # ideals of matrices and the colon ideals between them
        i, j = self.ideals(*case, seed)
        for lat in (i, j, quotient(i, j), quotient(j, i), quotient(i, i)):
            assert lat.is_stable_under_beta()
            assert self.zbeta_span(lat) == lat

    def test_generators_need_beta_stability(self, K):
        # Z + 2 beta Z is not beta-stable: its generators 1 and 2 beta span
        # Z[beta] over Z[beta], which is larger
        lat = IdealLattice(K, [[1, 0], [0, 2]], 1)
        assert not lat.is_stable_under_beta()
        assert self.zbeta_span(lat) == IdealLattice.zbeta(K)

    @pytest.mark.parametrize("f_text,strategy", FIELDS)
    def test_genuine_witnesses_pass_without_the_fallback(self, f_text, strategy, monkeypatch):
        i, j = self.ideals(f_text, strategy, 0)
        ok, x, y = weak_equivalence_data(i, j)
        assert ok
        monkeypatch.setattr(ideals, "mul", None)  # the n^2 products never run
        assert verify_weak_witnesses(i, j, x, y)

    def test_halved_x_fails_the_inclusion(self):
        i, j = self.ideals("t^6-2", "unimodular", 1)
        _, x, y = weak_equivalence_data(i, j)
        half = IdealLattice(i.field, x.basis.entries, 2 * x.den)
        assert not ideals._products_inside(i, half, j)
        assert not verify_weak_witnesses(i, j, half, y)

    def test_doubled_x_passes_the_inclusion_but_misses_one(self, products):
        i, j = self.ideals("t^6-2", "unimodular", 1)
        _, x, y = weak_equivalence_data(i, j)
        doubled = IdealLattice(i.field, [[2 * v for v in r] for r in x.basis.entries], x.den)
        assert ideals._products_inside(i, doubled, j)
        assert ideals._products_inside(j, y, i)
        products.clear()
        assert not ideals._product_contains_one(doubled, y)
        assert not verify_weak_witnesses(i, j, doubled, y)
        # 2x and y are beta-stable, so the miss is settled without `mul`
        assert products == []

    @pytest.mark.parametrize("f_text,strategy", FIELDS)
    def test_beta_stable_witnesses_take_no_products(self, f_text, strategy, products):
        # genuine witnesses are colon ideals, so beta-stable: they are
        # accepted, and 2x, which passes (1) and misses 1, is rejected,
        # both without the n^2 products
        i, j = self.ideals(f_text, strategy, 0)
        ok, x, y = weak_equivalence_data(i, j)
        assert ok
        doubled = IdealLattice(i.field, [[2 * v for v in r] for r in x.basis.entries], x.den)
        assert doubled.is_stable_under_beta() and y.is_stable_under_beta()
        products.clear()
        assert verify_weak_witnesses(i, j, x, y)
        assert not verify_weak_witnesses(i, j, doubled, y)
        assert products == []

    def test_unstable_witness_reaches_the_fallback(self, K, S, products):
        # x = 2Z + (1 + 2 beta)Z is not beta-stable and S(x) = {2}: the
        # sublattice 2 Z[beta] misses 1, which x Z[beta] holds
        # (1 = (1 + 2 beta) - 2 beta), so only the n^2 products find it
        x = IdealLattice(K, [[2, 0], [1, 2]], 1)
        assert not x.is_stable_under_beta()
        assert ideals._module_generators(x) == [(2, 0)]
        products.clear()
        assert ideals._product_contains_one(x, S)
        assert products == [(x, S)]
        # x * 2 Z[beta] misses 1 as well, and the products settle that too
        two = IdealLattice(K, [[2, 0], [0, 2]], 1)
        products.clear()
        assert not ideals._product_contains_one(x, two)
        assert products == [(x, two)]

    def test_fallback_is_exact(self, monkeypatch, products):
        # with S cut to its first row the sublattice of (2) can miss 1; a
        # miss settles the answer only for beta-stable x and y, so with the
        # stability test answering no the n^2 products must find 1
        generators = ideals._module_generators
        monkeypatch.setattr(ideals, "_module_generators", lambda lat: generators(lat)[:1])
        monkeypatch.setattr(IdealLattice, "is_stable_under_beta", lambda lat: False)
        misses = 0
        for f_text, strategy in self.FIELDS:
            i, j = self.ideals(f_text, strategy, 0)
            ok, x, y = weak_equivalence_data(i, j)
            assert ok
            g = generators(x)[0]
            rows = (y.basis @ i.field.mult_matrix(g)).entries
            first_try = IdealLattice(i.field, rows, x.den * y.den).contains_one()
            products.clear()
            assert verify_weak_witnesses(i, j, x, y)
            assert products == ([] if first_try else [(x, y)])
            misses += not first_try
        assert misses > 0

    def test_agrees_with_the_product_check_on_every_single_entry_edit(self, corpus60):
        # every edited witness that passes the definition also passes the
        # product check x * j == i and y * i == j (a rank collapse is
        # malformed before either runs)
        edits = accepted = 0
        for a, b, _, _ in corpus60[::3]:
            i = ideal_of_matrix(a)
            j = ideal_of_matrix(b, i.field)
            ok, x, y = weak_equivalence_data(i, j)
            if not ok:
                continue
            assert verify_weak_witnesses(i, j, x, y)
            for which, w in (("x", x), ("y", y)):
                rows, den = w.basis.to_lists(), w.den
                variants = [(rows, den + d) for d in (1, -1, den) if den + d > 0]
                for r, c in itertools.product(range(len(rows)), range(len(rows[0]))):
                    for delta in (1, 2, -1):
                        edited = [list(row) for row in rows]
                        edited[r][c] += delta
                        variants.append((edited, den))
                for edited, d in variants:
                    try:
                        lat = IdealLattice(i.field, edited, d)
                    except ValueError:
                        continue
                    x2, y2 = (lat, y) if which == "x" else (x, lat)
                    edits += 1
                    if verify_weak_witnesses(i, j, x2, y2):
                        accepted += 1
                        assert mul(x2, j) == i and mul(y2, i) == j
        assert edits > 500 and accepted < edits


class TestArithEquiv:
    def test_identity_alpha(self, K, I2):
        assert verify_arith_equiv(I2, I2, K.one())

    def test_unit_beta_preserves_ring(self):
        field = NumberField(parse_poly("t^2-t-1"))
        s = IdealLattice.zbeta(field)
        # beta has norm -1, so beta * Z[beta] = Z[beta]
        assert verify_arith_equiv(s, s, field.beta())

    def test_wrong_alpha(self, K, S, I2):
        assert not verify_arith_equiv(S, I2, K.one())

    def test_zero_alpha_rejected(self, K, I2):
        with pytest.raises(ZeroDivisionError):
            verify_arith_equiv(I2, I2, K.zero())


class TestIndex:
    def test_self(self, I2):
        assert index(I2, I2) == 1

    def test_scalar_multiple(self, K, S):
        p3 = S.scaled(K.element([3]))
        assert index(p3, S) == 9

    def test_classic(self, K, S, I2):
        assert index(I2, S) == 2

    def test_non_inclusion_rejected(self, K, S, I2):
        with pytest.raises(ValueError):
            index(S, I2)

    def test_both_denominators_above_one(self, K, S, I2):
        # (1/3) I2 = (1/6) (2 I2) inside (1/6) S: index [S : 2 I2] = 4 * 2
        sub = I2.scaled(K.element([1], 3))
        sup = S.scaled(K.element([1], 6))
        assert (sub.den, sup.den) == (3, 6)
        assert index(sub, sup) == 8
        with pytest.raises(ValueError):
            index(sup, sub)


class TestIdP:
    def test_self_index_one(self, K, S):
        assert in_Id_p(S, zbeta_order(K), 2)

    def test_p_times_order(self, K, S):
        order = zbeta_order(K)
        assert in_Id_p(S.scaled(K.element([3])), order, 3)

    def test_mixed_index_false(self, K, S, I2):
        order = zbeta_order(K)
        frak3 = IdealLattice(K, [[3, 0], [0, 1]], 1)
        mixed = mul(I2, frak3)  # index 6
        assert index(mixed, S) == 6
        assert not in_Id_p(mixed, order, 2)
        assert not in_Id_p(mixed, order, 3)


class TestUpDown:
    def test_ud_relations_general(self, K, S, I2, R):
        rng = random.Random(31)
        order_s = zbeta_order(K)
        for p, k in [(3, 1), (5, 1), (3, 2)]:
            i = random_ideal(order_s, p, k, rng)
            u_i = up_map(i, R)
            assert down_map(u_i, order_s).contains_lattice(i)
            assert up_map(down_map(u_i, order_s), R) == u_i

    def test_inverse_isomorphisms_when_p_coprime_to_index(self, K, S, R):
        rng = random.Random(37)
        order_s = zbeta_order(K)
        # [R : S] = 2, so take p in {3, 5, 7}
        for p in (3, 5, 7):
            for k in (1, 2):
                i = random_ideal(order_s, p, k, rng)
                assert down_map(up_map(i, R), order_s) == i
                j = random_ideal(R, p, k, rng)
                assert up_map(down_map(j, order_s), R) == j

    def test_up_multiplicative(self, K, R):
        rng = random.Random(41)
        order_s = zbeta_order(K)
        for _ in range(4):
            i1 = random_ideal(order_s, 3, 1, rng)
            i2 = random_ideal(order_s, 3, 2, rng)
            assert up_map(mul(i1, i2), R) == mul(up_map(i1, R), up_map(i2, R))

    def test_prime_above_2_non_invertible(self, K, S, I2):
        # 2 divides the index of Z[beta] in the bigger ring, and the prime
        # lattice above 2 is exactly the classic non-invertible ideal
        assert not is_invertible(I2, zbeta_order(K))
        assert in_Id_p(I2, zbeta_order(K), 2)


class TestIntersection:
    def test_idempotent(self, I2):
        assert intersection(I2, I2) == I2

    def test_commutative(self, K, S, I2):
        assert intersection(S, I2) == intersection(I2, S)

    def test_against_membership(self, K, S, I2):
        both = intersection(S, I2)
        for e in both.basis_elements():
            assert S.contains(e) and I2.contains(e)


class TestThetaMembership:
    def test_t_always_inside(self, K):
        a = parse_poly("t^2+3").companion()
        assert theta_membership(K.beta(), a)

    def test_half_t_on_odd_matrix(self, K):
        assert not theta_membership(K.element([0, 1], 2), CLASSIC_A)

    def test_half_one_plus_t_both_sides(self, K):
        theta = K.element([1, 1], 2)
        assert not theta_membership(theta, CLASSIC_A)
        assert theta_membership(theta, CLASSIC_B)

    def test_field_mismatch(self):
        other = NumberField(parse_poly("t^2-t-1"))
        with pytest.raises(ValueError):
            theta_membership(other.beta(), CLASSIC_A)

    def test_one_charpoly_per_call(self, charpolys):
        # the field comes from the eigenvector rows that build the ideal
        f = parse_poly("t^4-10t^2+1")
        a = generate_pair(f, "unimodular", 0).a
        charpolys.clear()
        assert theta_membership(NumberField(f).beta(), a)
        assert charpolys == [a]


class TestCanonicalForm:
    def test_idempotent_construction(self, K, I2):
        again = IdealLattice(K, I2.basis.to_lists(), I2.den)
        assert again == I2

    def test_denominator_reduction(self, K):
        doubled = IdealLattice(K, [[4, 0], [2, 2]], 2)
        assert doubled == IdealLattice(K, [[2, 0], [1, 1]], 1)

    def test_rank_deficiency_rejected(self, K):
        with pytest.raises(ValueError):
            IdealLattice(K, [[1, 1], [2, 2]], 1)

"""Integer lattice layer: pairing arithmetic, Smith normal form,
discriminant groups, signatures."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihscone.errors import (
    DegenerateGramError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
)
from ihscone.lattice import (
    Lattice,
    _disc_data,
    det_int,
    disc_class,
    discriminant_group,
    divisibility,
    eichler_equivalent,
    gram_vec,
    is_primitive,
    mat_vec,
    norm,
    pairing,
    signature,
    smith_normal_form,
)
from tests.helpers import congruate, rand_diag_gram, rand_primitive, rand_unimodular

U = Lattice(((0, 1), (1, 0)))
DENSE = Lattice(((2, 1), (1, -2)))


def test_pairing_frozen():
    assert pairing(U, (1, 0), (0, 1)) == 1
    assert pairing(U, (1, 0), (0, 0)) == 0
    assert pairing(DENSE, (1, 1), (1, 0)) == 3


def test_norm_frozen():
    assert norm(Lattice(((-2,),)), (1,)) == -2
    assert norm(Lattice(((2, 0), (0, -2))), (1, 1)) == 0
    assert norm(DENSE, (2, 1)) == 10


def test_divisibility_frozen():
    assert divisibility(U, (1, 0)) == 1
    assert divisibility(Lattice(((-4,),)), (1,)) == 4
    lat = Lattice(((2, 0), (0, -6)))
    assert divisibility(lat, (0, 1)) == 6
    assert discriminant_group(lat).order % 6 == 0


def test_divisibility_rejects_zero():
    with pytest.raises(PreconditionError):
        divisibility(U, (0, 0))


def test_is_primitive():
    assert not is_primitive(U, (2, 4))
    assert is_primitive(U, (1, 0))
    assert is_primitive(Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2))), (6, 10, 15))
    assert not is_primitive(U, (0, 0))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pairing(U, (1, 0, 0), (0, 1))
    with pytest.raises(DimensionMismatchError):
        pairing(U, (1, 0), (0, 1, 0))
    with pytest.raises(DimensionMismatchError):
        gram_vec(U, (1,))


def test_primitives_match_naive_double_loop():
    # 100-digit entries: the row-at-a-time sums must stay exact
    rng = random.Random(100)
    big = 10**100
    for n in range(1, 9):
        gram = tuple(tuple(rng.randint(-big, big) for _ in range(n)) for _ in range(n))
        v = tuple(rng.randint(-big, big) for _ in range(n))
        w = tuple(rng.randint(-big, big) for _ in range(n))
        naive_mv = tuple(sum(gram[i][j] * v[j] for j in range(n)) for i in range(n))
        assert mat_vec(gram, v) == naive_mv
        sym = tuple(tuple(gram[i][j] + gram[j][i] for j in range(n)) for i in range(n))
        if det_int(sym) == 0:
            continue
        lat = Lattice(sym)
        assert gram_vec(lat, v) == tuple(
            sum(sym[i][j] * v[j] for j in range(n)) for i in range(n)
        )
        assert pairing(lat, v, w) == sum(
            v[i] * sym[i][j] * w[j] for i in range(n) for j in range(n)
        )


@pytest.mark.parametrize(
    "vector", [(1.5, 1), (1, True), (True, 0), (Fraction(1), 0), ("1", 0), (1.0, 0)]
)
def test_vectors_must_have_integer_entries(vector):
    # int() would truncate 1.5 and turn True into 1
    with pytest.raises(InputFormatError):
        U.check_vector(vector)
    with pytest.raises(InputFormatError):
        pairing(U, (1, 0), vector)


def test_one_shot_iterators_are_checked_as_lists():
    # the boolean check must read the entries the integer check read, or a
    # boolean in a one-shot iterator is taken as 1
    for vector in ((1, True), (True, 0), (1.5, 1)):
        for form in (list, iter, lambda v: (x for x in v)):
            with pytest.raises(InputFormatError):
                U.check_vector(form(vector))
    with pytest.raises(InputFormatError):
        Lattice([iter((True, 0)), iter((0, -2))])
    assert U.check_vector(x for x in (3, -1)) == (3, -1)
    assert Lattice([iter((2, 1)), iter((1, -2))]) == DENSE
    # an error names the entries a one-shot iterator gave, not its repr
    for form in (iter, lambda v: (x for x in v)):
        with pytest.raises(InputFormatError) as info:
            U.check_vector(form((True, 0)))
        assert str(info.value) == "expected integer entries, got a boolean in (True, 0)"
        with pytest.raises(InputFormatError) as info:
            U.check_vector(form((1.5, 1)))
        assert str(info.value) == "expected integer entries, got (1.5, 1)"


@pytest.mark.parametrize(
    "gram", [((2.9, 0), (0, -2)), ((2, 0), (0, False)), ((True, 0), (0, -2))]
)
def test_gram_must_have_integer_entries(gram):
    with pytest.raises(InputFormatError):
        Lattice(gram)


def test_degenerate_gram_rejected_at_construction():
    with pytest.raises(DegenerateGramError):
        Lattice(((1, 1), (1, 1)))


def test_asymmetric_gram_rejected():
    with pytest.raises(InputFormatError):
        Lattice(((0, 1), (2, 0)))
    for gram, message in [
        ((), "gram matrix must have positive rank"),
        (((2, 0), (0,)), "gram matrix is not square: row 1 has length 1, expected 2"),
    ]:
        with pytest.raises(InputFormatError) as info:
            Lattice(gram)
        assert str(info.value) == message


def test_snf_frozen():
    d, _, _ = smith_normal_form([[2, 0], [0, -2]])
    assert d == ((2, 0), (0, 2))
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == ((1, 0), (0, 1))
    d, _, _ = smith_normal_form([[0, 1], [1, 0]])
    assert d == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "mat", [((2.5, 1), (True, 3)), ((Fraction(7, 2), 1), (0, 3)), ((2, 1), (1, True))]
)
def test_snf_entries_must_be_integers(mat):
    # int() would truncate 2.5 and 7/2 and turn True into 1, giving a Smith
    # form of some other matrix
    with pytest.raises(InputFormatError):
        smith_normal_form(mat)


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _check_snf(mat):
    d, u, v = smith_normal_form(mat)
    m = len(mat)
    n = len(mat[0]) if m else 0
    prod = _mat_mul(_mat_mul([list(r) for r in u], [list(r) for r in mat]), [list(r) for r in v])
    assert [list(r) for r in d] == prod
    assert det_int([list(r) for r in u]) in (1, -1)
    assert det_int([list(r) for r in v]) in (1, -1)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0


def test_snf_random_square_and_rectangular():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        _check_snf([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    _check_snf([[0, 0], [0, 0]])


def test_discriminant_group_frozen():
    assert discriminant_group(Lattice(((-2,),))).invariant_factors == (2,)
    g = discriminant_group(U)
    assert g.invariant_factors == () and g.order == 1
    g2 = discriminant_group(Lattice(((2, 0), (0, -2))))
    assert g2.invariant_factors == (2, 2) and g2.order == 4


def test_discriminant_group_order_is_abs_det():
    rng = random.Random(5)
    for _ in range(40):
        rank = rng.randint(1, 4)
        gram = congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank))
        lat = Lattice(gram)
        assert discriminant_group(lat).order == abs(det_int([list(r) for r in gram]))


def test_disc_data_cache_keeps_one_lattice():
    # an in-process caller sees many lattices; the cache must not grow with them
    _disc_data.cache_clear()
    for d in (2, 4, 6):
        discriminant_group(Lattice(((2, 0, 0), (0, -d, 0), (0, 0, -2))))
    assert _disc_data.cache_info().currsize <= 1


def test_generator_lifts_pair_integrally():
    rng = random.Random(13)
    for _ in range(25):
        rank = rng.randint(1, 4)
        lat = Lattice(congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank)))
        g = discriminant_group(lat)
        for lift, factor in zip(g.generator_lifts, g.invariant_factors):
            assert factor > 1
            for i in range(rank):
                basis = tuple(1 if j == i else 0 for j in range(rank))
                val = sum(Fraction(x) * c for x, c in zip(gram_vec(lat, basis), lift))
                assert val.denominator == 1


def test_disc_class_frozen():
    # divisibility 1 always lands on the identity class
    c = disc_class(DENSE, (1, 0))
    assert c.order == 1
    c4 = disc_class(Lattice(((-4,),)), (1,))
    assert c4.order == 4
    c6 = disc_class(Lattice(((2, 0), (0, -6))), (0, 1))
    assert c6.order == 6


def test_disc_class_requires_primitive():
    with pytest.raises(PreconditionError):
        disc_class(U, (2, 2))


def test_disc_class_negation():
    c = disc_class(Lattice(((2, 0), (0, -6))), (0, 1))
    assert (-c).order == c.order
    assert -(-c) == c


def test_disc_class_order_equals_divisibility_randomized():
    # order of [v / div(v)] in the discriminant group = div(v), 500+ draws
    rng = random.Random(97)
    checked = 0
    while checked < 500:
        rank = rng.randint(1, 5)
        lat = Lattice(congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank)))
        v = rand_primitive(rng, rank)
        dv = divisibility(lat, v)
        cls = disc_class(lat, v)
        assert cls.order == dv
        assert discriminant_group(lat).order % dv == 0
        checked += 1


def test_signature_frozen():
    assert signature(Lattice(((2, 0), (0, -2)))) == (1, 1)
    assert signature(U) == (1, 1)
    assert signature(Lattice(((2, 0, 0), (0, -2, 0), (0, 0, -2)))) == (1, 2)
    assert signature(Lattice(((5,),))) == (1, 0)
    assert signature(Lattice(((2, 0), (0, 3)))) == (2, 0)


def test_signature_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(60):
        rank = rng.randint(1, 5)
        gram = rand_diag_gram(rng, rank)
        expected = signature(Lattice(gram))
        moved = congruate(gram, rand_unimodular(rng, rank))
        assert signature(Lattice(moved)) == expected


def test_signature_by_sylvester_inertia():
    # P^T (D + H^k) P with H = [[0, b], [b, 0]] has signature
    # (k + #D>0, k + #D<0); a signed permutation P keeps the zero diagonal
    # of the hyperbolic planes, so the zero-pivot step runs often
    rng = random.Random(67)
    zero_diagonal = 0
    for _ in range(400):
        diag = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
        k = rng.randint(0 if diag else 1, 3)
        n = len(diag) + 2 * k
        gram = [[0] * n for _ in range(n)]
        for i, d in enumerate(diag):
            gram[i][i] = d
        for h in range(k):
            i = len(diag) + 2 * h
            gram[i][i + 1] = gram[i + 1][i] = rng.choice((-1, 1)) * rng.randint(1, 6)
        if rng.random() < 0.2:
            p = rand_unimodular(rng, n)
        else:
            perm = rng.sample(range(n), n)
            p = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        moved = congruate(gram, p)
        zero_diagonal += all(moved[i][i] == 0 for i in range(n))
        expected = (k + sum(d > 0 for d in diag), k + sum(d < 0 for d in diag))
        assert signature(Lattice(moved)) == expected, moved
    assert zero_diagonal > 20


@given(st.integers(min_value=1, max_value=4), st.integers())
@settings(deadline=None, max_examples=60)
def test_pairing_bilinear_symmetric(rank, seed):
    rng = random.Random(seed)
    lat = Lattice(congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank)))
    v = tuple(rng.randint(-5, 5) for _ in range(rank))
    w = tuple(rng.randint(-5, 5) for _ in range(rank))
    assert pairing(lat, v, w) == pairing(lat, w, v)
    vw = tuple(a + b for a, b in zip(v, w))
    assert norm(lat, vw) == norm(lat, v) + 2 * pairing(lat, v, w) + norm(lat, w)
    c = rng.randint(-3, 3)
    cv = tuple(c * a for a in v)
    assert pairing(lat, cv, w) == c * pairing(lat, v, w)


def test_divisibility_divides_every_pairing():
    rng = random.Random(31)
    for _ in range(80):
        rank = rng.randint(1, 4)
        lat = Lattice(congruate(rand_diag_gram(rng, rank), rand_unimodular(rng, rank)))
        v = rand_primitive(rng, rank)
        dv = divisibility(lat, v)
        for _ in range(5):
            w = tuple(rng.randint(-6, 6) for _ in range(rank))
            assert pairing(lat, v, w) % dv == 0


def test_det_int_matches_fraction_elimination():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        rows = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = -det
            det *= rows[c][c]
            for i in range(c + 1, n):
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        assert det_int(m) == det


def test_eichler_equivalent():
    lat = Lattice(((0, 1, 0), (1, 0, 0), (0, 0, -2)))
    v = (1, -1, 1)
    w = (2, -1, 0)
    assert norm(lat, v) == norm(lat, w) == -4
    assert divisibility(lat, v) == divisibility(lat, w) == 1
    assert eichler_equivalent(lat, v, v)
    assert eichler_equivalent(lat, v, w)
    # different norms can never be equivalent
    assert not eichler_equivalent(lat, (1, 0, 0), (0, 0, 1))
    with pytest.raises(PreconditionError):
        eichler_equivalent(lat, (2, 0, 0), (1, 0, 0))

import random
from fractions import Fraction

import pytest

from gradedaut.cones import (RationalCone, cone_from_rays, dual_cone,
                             equal_cones, generators_from_halfspaces,
                             intersect_cones, primitive)
from gradedaut.errors import StructuralError

from oracles import cone_member


def units(dim):
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def random_cone(rng, dim, lo=-3, hi=3):
    nrays = rng.randint(1, 6)
    vecs = [tuple(rng.randint(lo, hi) for _ in range(dim))
            for _ in range(nrays)]
    return cone_from_rays(vecs, dim)


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-5,)) == (-1,)


def test_orthant():
    c = cone_from_rays(units(3), 3)
    assert c.rays == tuple(sorted(units(3)))
    assert set(c.forms) == set(units(3))
    assert c.is_pointed()
    assert c.contains((2, 0, 5))
    assert not c.contains((1, -1, 0))


def test_redundant_ray_dropped():
    c = cone_from_rays([(1, 0), (1, 1), (0, 1), (2, 0)], 2)
    assert c.rays == ((0, 1), (1, 0), (1, 1))
    assert equal_cones(c, cone_from_rays(units(2), 2))


def test_halfplane():
    c = cone_from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    assert c.forms == ((0, 1),)
    assert not c.is_pointed()
    assert c.contains((-7, 0)) and not c.contains((0, -1))


def test_zero_cone_and_full_space():
    zero = cone_from_rays([], 2)
    assert zero.contains((0, 0))
    assert not zero.contains((1, 0))
    assert zero.is_pointed()
    full = cone_from_rays(units(2) + [(-1, 0), (0, -1)], 2)
    assert full.forms == ()
    assert full.contains((-9, 4))
    assert not full.is_pointed()


def test_generators_from_halfspaces_frozen():
    gens = generators_from_halfspaces([(0, 1), (2, -1)], 2)
    assert gens == ((1, 0), (1, 2))
    assert generators_from_halfspaces([], 2) == tuple(
        sorted(units(2) + [(-1, 0), (0, -1)]))
    assert generators_from_halfspaces([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == ()


def test_intersection_frozen():
    a = cone_from_rays([(1, 0), (1, 2)], 2)
    b = cone_from_rays([(2, 1), (0, 1)], 2)
    c = intersect_cones(a, b)
    assert equal_cones(c, cone_from_rays([(2, 1), (1, 2)], 2))


def test_duality_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        again = cone_from_rays(generators_from_halfspaces(c.forms, dim), dim)
        assert equal_cones(c, again)
        assert equal_cones(dual_cone(dual_cone(c)), c)


def test_membership_against_feasibility():
    rng = random.Random(11)
    checked_in = checked_out = 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        c = random_cone(rng, dim)
        for _ in range(4):
            if rng.random() < 0.5:
                x = tuple(rng.randint(-4, 4) for _ in range(dim))
            else:
                x = tuple(sum(rng.randint(0, 2) * r[t] for r in c.rays)
                          for t in range(dim))
            got = c.contains(x)
            assert got == cone_member(c.rays, x)
            checked_in += got
            checked_out += not got
    assert checked_in > 20 and checked_out > 20


def test_intersection_is_pointwise():
    rng = random.Random(13)
    for _ in range(25):
        dim = rng.randint(1, 3)
        a, b = random_cone(rng, dim), random_cone(rng, dim)
        c = intersect_cones(a, b)
        assert equal_cones(intersect_cones(a, a), a)
        for _ in range(6):
            x = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert c.contains(x) == (a.contains(x) and b.contains(x))


def test_line_is_not_pointed():
    c = cone_from_rays([(1, 1), (-1, -1), (1, 0)], 2)
    assert not c.is_pointed()


def test_dimension_mismatch():
    with pytest.raises(StructuralError):
        intersect_cones(cone_from_rays([(1,)], 1), cone_from_rays([(1, 0)], 2))
    with pytest.raises(StructuralError):
        cone_from_rays([(1, 0)], 1)
    with pytest.raises(StructuralError):
        cone_from_rays([(1,)], 1).contains((1, 0))

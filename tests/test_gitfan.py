import random

import pytest

from gradedaut import gitfan, linalg
from gradedaut.algebraaut import aut_grad_alg
from gradedaut.cones import (cone_from_rays, equal_cones,
                             generators_from_halfspaces, intersect_cones)
from gradedaut.errors import GuardError, StructuralError, ValidationError
from gradedaut.gitfan import (_face_family, _simplicial_forms, aut_xhat,
                              git_cone, map_cone, orbit_cones, render_cone)
from gradedaut.grading import DegreeMatrix, GradingGroup, GroupAutomorphism
from gradedaut.polynomials import GradedPolyRing, Ideal

from oracles import cone_member, det_oracle

W_CHAMBER = (1, 9, 16)

# ten weights in Z^3 on the plane x3 = 1
CHAMBER10_ROWS = (
    (1, 0, 0, -1, 0, 1, -1, 1, -1, 2),
    (0, 1, 0, 0, -1, 1, -1, -1, 1, 1),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
)


@pytest.fixture(scope="module")
def quadric8_stab(quadric8_ring, quadric8_ideal):
    return aut_grad_alg(quadric8_ring, quadric8_ideal)


@pytest.fixture(scope="module")
def quadric8_cones(quadric8_Q):
    return orbit_cones(quadric8_Q)


def irredundant_rays(cone):
    """The rays that the other rays do not generate."""
    return tuple(r for r in cone.rays
                 if not cone_member([s for s in cone.rays if s != r], r))


def zq(*weights):
    group = GradingGroup(1, ())
    return DegreeMatrix(tuple(group.element((w,), ()) for w in weights))


def free_q(*weights):
    group = GradingGroup(len(weights[0]), ())
    return DegreeMatrix(tuple(group.element(w, ()) for w in weights))


def reference_chamber(Q, w0, faces=None):
    """Pairwise intersection of the orbit cones containing w0, the whole
    space when none does."""
    k = Q.group.free_rank
    lam = None
    for cone in orbit_cones(Q, faces):
        if cone.contains(w0):
            lam = cone if lam is None else intersect_cones(lam, cone)
    if lam is None:
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        lam = cone_from_rays(units + [tuple(-u for u in v) for v in units], k)
    return lam


def random_configuration(rng):
    """Weights in Z^k with entries in [-2, 2], some zero or opposite, and
    an effective class: zero, a weight, or a nonnegative combination."""
    k = rng.randint(1, 3)
    weights = [tuple(rng.randint(-2, 2) for _ in range(k))
               for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        weights.append((0,) * k)
    if rng.random() < 0.3:
        weights.append(tuple(-x for x in rng.choice(weights)))
    rng.shuffle(weights)
    kind = rng.randrange(3)
    if kind == 0:
        w0 = (0,) * k
    elif kind == 1:
        w0 = rng.choice(weights)
    else:
        coeffs = [rng.randint(0, 2) for _ in weights]
        w0 = tuple(sum(c * q[t] for c, q in zip(coeffs, weights))
                   for t in range(k))
    return free_q(*weights), w0


def test_git_cone_matches_all_orbit_cones():
    rng = random.Random(11)
    for _ in range(120):
        Q, w0 = random_configuration(rng)
        w = Q.group.element(w0, ())
        assert git_cone(Q, w).rays == reference_chamber(Q, w0).rays, (Q, w0)


def test_git_cone_user_faces_match_their_orbit_cones():
    rng = random.Random(12)
    for _ in range(60):
        Q, w0 = random_configuration(rng)
        r = Q.var_count
        faces = [tuple(rng.sample(range(1, r + 1), rng.randint(1, r)))
                 for _ in range(rng.randint(1, 4))]
        w = Q.group.element(w0, ())
        assert (git_cone(Q, w, faces).rays
                == reference_chamber(Q, w0, faces).rays), (Q, w0, faces)


def test_simplicial_family_size(quadric8_Q):
    # every subset of at most k weights is a candidate
    chamber10 = DegreeMatrix.from_rows(GradingGroup(3, ()), CHAMBER10_ROWS)
    assert len(_face_family(chamber10, None, simplicial=True)) == 175
    assert len(_face_family(quadric8_Q, None, simplicial=True)) == 92
    # 40 of the candidates are independent and span a cone holding w0
    free = chamber10.free_parts()
    assert sum(_simplicial_forms([free[i] for i in F], (3, 1, 13)) is not None
               for F in _face_family(chamber10, None, simplicial=True)) == 40
    # orbit_cones keeps every nonempty subset
    assert len(_face_family(chamber10, None)) == 2 ** 10 - 1
    # a zero free part contributes its singleton, the origin
    assert _face_family(zq(0, 1), None, simplicial=True) == [(0,), (1,)]
    assert _simplicial_forms([(0,)], (0,)) == [(1,), (-1,)]
    assert _simplicial_forms([(0,)], (1,)) is None
    assert _simplicial_forms([(0, 0), (1, 0)], (0, 0)) is None


def random_candidate(rng):
    """m <= k <= 4 vectors with entries in [-2, 2], some zero, and a w0
    that is zero, on a ray, on a wall, inside or anywhere."""
    k = rng.randint(1, 4)
    m = rng.randint(1, k)
    vectors = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(m)]
    if rng.random() < 0.15:
        vectors[rng.randrange(m)] = (0,) * k
    kind = rng.randrange(5)
    if kind == 0:
        return vectors, (0,) * k
    if kind == 4:
        return vectors, tuple(rng.randint(-3, 3) for _ in range(k))
    # a ray, a wall (some coefficients zero), or the interior
    coeffs = [rng.randint(1, 2) for _ in vectors]
    if kind == 1:
        coeffs = [c * (i == 0) for i, c in enumerate(coeffs)]
    elif kind == 2:
        coeffs[rng.randrange(m)] = 0
    return vectors, tuple(sum(c * v[t] for c, v in zip(coeffs, vectors))
                          for t in range(k))


def test_simplicial_forms_match_a_rational_solve():
    rng = random.Random(34)
    contained = origins = 0
    for _ in range(600):
        vectors, w0 = random_candidate(rng)
        k, m = len(w0), len(vectors)
        forms = _simplicial_forms(vectors, w0)
        gram = [[sum(a * b for a, b in zip(u, v)) for v in vectors]
                for u in vectors]
        lone_zero = m == 1 and not any(vectors[0])
        if lone_zero:
            expected = not any(w0)
        else:
            expected = det_oracle(gram) != 0 and cone_member(vectors, w0)
        assert (forms is not None) == expected, (vectors, w0)
        if forms is None:
            continue
        contained += m < k
        origins += lone_zero
        cone = cone_from_rays(vectors, k)
        assert all(linalg.primitive(f) == f for f in forms)
        rebuilt = cone_from_rays(generators_from_halfspaces(forms, k), k)
        spanned = cone_from_rays(generators_from_halfspaces(cone.forms, k), k)
        assert equal_cones(rebuilt, spanned), (vectors, w0, forms)
    # the seed reaches lower-dimensional cones and the origin
    assert contained > 100 and origins > 5


def test_git_cone_zero_free_part():
    Q = zq(-1, 0)
    assert git_cone(Q, Q.group.element((0,), ())).rays == ()
    assert git_cone(Q, Q.group.element((-2,), ())).rays == ((-1,),)


def test_git_cone_user_faces_keep_their_cones():
    Q = free_q((1, 0), (0, 1), (1, 1))
    w = Q.group.element((1, 2), ())
    quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
    lam = git_cone(Q, w, faces=[(1, 2, 3)])
    assert equal_cones(lam, quadrant)
    # the lone containing orbit cone comes back as spanned by its face
    assert lam.rays == ((0, 1), (1, 0), (1, 1))
    assert git_cone(Q, w).rays == ((0, 1), (1, 1))


def test_orbit_cones_quadric8(quadric8_Q, quadric8_cones):
    cones = quadric8_cones
    assert len(cones) == 160
    assert all(c.is_pointed() for c in cones)
    assert cones[0].rays == ((1, 0, 1),)
    full = quadric8_Q.weight_cone
    assert any(equal_cones(c, full) for c in cones)
    assert irredundant_rays(full) == ((-2, -1, 1), (0, -1, 1), (0, 1, 1),
                                      (2, 1, 1))
    # geometric dedup: sampled pairs are genuinely different cones
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.sample(range(len(cones)), 2)
        assert not equal_cones(cones[a], cones[b])
    assert orbit_cones(quadric8_Q) == cones


def test_orbit_cones_small_examples():
    single = orbit_cones(zq(2))
    assert len(single) == 1 and single[0].rays == ((1,),)
    opposite = orbit_cones(zq(1, -1))
    assert len(opposite) == 3
    rays = sorted(c.rays for c in opposite)
    assert rays == [((-1,),), ((-1,), (1,)), ((1,),)]
    line = [c for c in opposite if len(c.rays) == 2][0]
    assert not line.is_pointed()


def test_orbit_cones_subset_guard(monkeypatch):
    with pytest.raises(GuardError, match=r"21 weights has 2097151 faces, "
                       r"above the bound 1048575 \(gitfan.FACE_BOUND\)"):
        orbit_cones(zq(*([1] * 21)))
    nine = zq(*([1] * 9))
    assert len(orbit_cones(nine)) == 1
    # the guard reads the constant when it runs
    monkeypatch.setattr(gitfan, "FACE_BOUND", 8)
    with pytest.raises(GuardError, match="511 faces, above the bound 8"):
        orbit_cones(nine)
    # the simplicial family of nine weights over Z has nine faces
    with pytest.raises(GuardError, match="9 faces, above the bound 8"):
        git_cone(nine, nine.group.element((1,), ()))
    assert len(orbit_cones(zq(*([1] * 21)), faces=[(1, 2), (21,)])) == 1


def test_chamber_guard_counts_the_simplicial_family():
    # 21 weights (1, i) over Z^2: all-subsets would be 2^21 - 1 faces,
    # the chamber reads the 21 + 210 of at most two weights
    pencil = free_q(*((1, i) for i in range(1, 22)))
    assert len(_face_family(pencil, None, simplicial=True)) == 231
    lam = git_cone(pencil, pencil.group.element((2, 3), ()))
    assert lam.rays == ((1, 1), (1, 2))
    with pytest.raises(GuardError, match="2097151 faces"):
        orbit_cones(pencil)


def test_orbit_cones_user_faces(quadric8_Q):
    cones = orbit_cones(quadric8_Q, faces=[(1,), (1, 2), (2, 1), (1,)])
    assert len(cones) == 2
    assert cones[0].rays == ((1, 0, 1),)
    with pytest.raises(StructuralError):
        orbit_cones(quadric8_Q, faces=[(0, 1)])
    with pytest.raises(StructuralError):
        orbit_cones(quadric8_Q, faces=[()])
    # int() would truncate 1.5 to the face (1,)
    with pytest.raises(TypeError):
        orbit_cones(quadric8_Q, faces=[(1.5,)])


def test_git_cone_frozen_chamber(quadric8_Q, quadric8_group):
    w = quadric8_group.element(W_CHAMBER, (0,))
    lam = git_cone(quadric8_Q, w)
    assert lam.rays == ((0, 1, 1), (0, 1, 2), (1, 2, 3))
    assert lam.is_pointed()
    assert irredundant_rays(lam) == lam.rays
    assert lam.contains(W_CHAMBER)


def test_git_cone_invariants(quadric8_Q, quadric8_group, quadric8_cones):
    rng = random.Random(5)
    cols = [q.free_part for q in quadric8_Q.columns]
    for _ in range(5):
        w0 = tuple(sum(rng.randint(0, 3) * c[t] for c in cols)
                   for t in range(3))
        w = quadric8_group.element(w0, (0,))
        lam = git_cone(quadric8_Q, w)
        assert lam.contains(w0)
        for cone in quadric8_cones:
            if cone.contains(w0):
                assert all(cone.contains(r) for r in lam.rays)


def test_git_cone_chamber_property(quadric8_Q, quadric8_group):
    w = quadric8_group.element(W_CHAMBER, (0,))
    lam = git_cone(quadric8_Q, w)
    for coeffs in ((1, 1, 1), (2, 1, 1), (1, 3, 2), (5, 1, 4)):
        inner = tuple(sum(c * r[t] for c, r in zip(coeffs, lam.rays))
                      for t in range(3))
        again = git_cone(quadric8_Q, quadric8_group.element(inner, (0,)))
        assert equal_cones(again, lam)


def test_git_cone_rejects_non_effective(quadric8_Q, quadric8_group):
    for w0 in ((0, 0, -1), (3, 0, 0)):
        with pytest.raises(ValidationError, match="w is not an effective class"):
            git_cone(quadric8_Q, quadric8_group.element(w0, (0,)))


def test_git_cone_on_extremal_ray(quadric8_Q, quadric8_group):
    w = quadric8_Q.columns[6]
    assert w.free_part == (2, 1, 1)
    lam = git_cone(quadric8_Q, w)
    assert equal_cones(lam, cone_from_rays([(2, 1, 1)], 3))


def test_git_cone_full_weight_cone():
    Q = zq(1, 2)
    w = Q.group.element((3,), ())
    lam = git_cone(Q, w)
    assert equal_cones(lam, Q.weight_cone)


def test_aut_xhat_retains_identity_only(quadric8_stab, quadric8_group):
    w = quadric8_group.element(W_CHAMBER, (0,))
    filtered = aut_xhat(quadric8_stab, w)
    assert len(filtered.triples) == 1
    ident = GroupAutomorphism.identity(quadric8_group)
    assert filtered.triples[0].weight_aut == ident
    assert filtered.ring is quadric8_stab.ring


def test_aut_xhat_symmetric_class_keeps_all(quadric8_stab, quadric8_group,
                                            quadric8_Q):
    w = quadric8_group.element((0, 0, 8), (0,))
    filtered = aut_xhat(quadric8_stab, w)
    assert len(filtered.triples) == 4
    lam = git_cone(quadric8_Q, w)
    assert lam.rays == ((0, 0, 1),)


def test_aut_xhat_identity_and_closure(quadric8_stab, quadric8_group):
    rng = random.Random(23)
    ident = GroupAutomorphism.identity(quadric8_group)
    cols = [q.free_part for q in quadric8_stab.ring.degrees.columns]
    for _ in range(6):
        w0 = tuple(sum(rng.randint(0, 2) * c[t] for c in cols)
                   for t in range(3))
        w = quadric8_group.element(w0, (0,))
        kept = aut_xhat(quadric8_stab, w).triples
        auts = [t.weight_aut for t in kept]
        assert ident in auts
        for a in auts:
            for b in auts:
                assert a.compose(b) in auts


def test_map_cone(quadric8_group, quadric8_Q):
    lam = git_cone(quadric8_Q, quadric8_group.element(W_CHAMBER, (0,)))
    image = map_cone(((1, 0, 0), (0, 1, 0), (0, 0, 1)), lam)
    assert equal_cones(image, lam)
    neg = map_cone(((-1, 0, 0), (0, -1, 0), (0, 0, -1)), lam)
    assert not equal_cones(neg, lam)


def test_render_cone(quadric8_Q, quadric8_group):
    lam = git_cone(quadric8_Q, quadric8_group.element(W_CHAMBER, (0,)))
    text = render_cone(lam)
    assert text.splitlines() == ["(0, 1, 1)", "(0, 1, 2)", "(1, 2, 3)"]
    assert render_cone(cone_from_rays([], 2)) == "origin (no rays)"


# complete smooth 2-D fans, rays in counterclockwise order, each with
# the number of its weight symmetries fixing the chamber of -K
TORIC_FANS = {
    "P1xP1": (((1, 0), (0, 1), (-1, 0), (0, -1)), 2),
    "dP7": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)), 2),
    "dP6": (((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)), 12),
    "F2": (((1, 0), (0, 1), (-1, 2), (0, -1)), 1),
}


def _star_subdivided(rays, r, seed):
    """The complete smooth fan made from `rays`, in counterclockwise
    order, by star subdivisions of seeded 2-cones until it has r rays:
    each puts u + v between the adjacent rays u and v."""
    rng = random.Random(seed)
    rays = list(rays)
    while len(rays) < r:
        k = rng.randrange(len(rays))
        u, v = rays[k], rays[(k + 1) % len(rays)]
        rays.insert(k + 1, (u[0] + v[0], u[1] + v[1]))
    return tuple(rays)


# star subdivisions of P^2 and of the Hirzebruch surfaces F_a, by
# (surface, r, seed, symmetries); seeds whose monomial bases take well
# under a second: on some fans with 9 or 10 rays they take minutes
STAR_BASES = {"P2": ((1, 0), (0, 1), (-1, -1)),
              **{f"F{a}": ((1, 0), (0, 1), (-1, a), (0, -1))
                 for a in range(4)}}
TORIC_FANS.update({
    f"{base}-r{r}-s{seed}": (_star_subdivided(STAR_BASES[base], r, seed), k)
    for base, r, seed, k in (
        ("P2", 5, 0, 2), ("P2", 7, 0, 2), ("P2", 10, 0, 2), ("F0", 9, 0, 2),
        ("F0", 10, 1, 1), ("F1", 8, 1, 2), ("F1", 10, 0, 1), ("F2", 8, 1, 2),
        ("F2", 9, 0, 1), ("F3", 8, 0, 1))})


def _gale_dual(rays):
    """Q whose rows are a kernel basis of the 2 x r ray matrix: the last
    r - 2 columns of the unimodular transform of its Hermite form."""
    _, V = linalg.hermite(list(zip(*rays)))
    return DegreeMatrix.from_rows(GradingGroup(len(rays) - 2, ()),
                                  [[row[j] for row in V]
                                   for j in range(2, len(rays))])


def _fan_automorphisms(rays):
    """The fan automorphisms as permutations of the rays, image by
    image.  The adjacent rays v_0 and v_1 of a smooth fan are a basis of
    Z^2, and an automorphism g in GL(2, Z) sends them to adjacent rays
    u and w, in either order, so g = [u w] [v_0 v_1]^-1."""
    (a, b), (c, d) = rays[:2]
    det = a * d - b * c  # +-1, so [v_0 v_1]^-1 is det * [[d, -c], [-b, a]]
    r = len(rays)
    out = []
    for j in range(r):
        v = rays[(j + 1) % r]
        for u, w in ((rays[j], v), (v, rays[j])):
            g = (det * (u[0] * d - w[0] * b), det * (w[0] * a - u[0] * c),
                 det * (u[1] * d - w[1] * b), det * (w[1] * a - u[1] * c))
            image = [(g[0] * x + g[1] * y, g[2] * x + g[3] * y)
                     for x, y in rays]
            if set(image) == set(rays):
                out.append(image)
    return out


@pytest.mark.parametrize("name", sorted(TORIC_FANS))
def test_toric_chamber_symmetries_are_fan_automorphisms(name):
    # Cl(X) = Z^r / M, so a fan automorphism g, a GL(2, Z) matrix
    # permuting the rays by sigma, induces q_i -> q_sigma(i) on Cl(X),
    # and these maps are the weight symmetries fixing the chamber of
    # -K = sum q_i (Cox 1995, section 4)
    rays, expected = TORIC_FANS[name]
    Q = _gale_dual(rays)
    cols = Q.columns
    ring = GradedPolyRing(Q)
    minus_k = Q.group.element(
        tuple(map(sum, zip(*(c.free_part for c in cols)))), ())
    kept = aut_xhat(aut_grad_alg(ring, Ideal(ring, ())), minus_k)
    images = {tuple(t.weight_aut.apply(c) for c in cols)
              for t in kept.triples}
    induced = {tuple(cols[rays.index(v)] for v in image)
               for image in _fan_automorphisms(rays)}
    assert len(images) == len(kept.triples) == expected
    assert images == induced

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from symlab.averaging import build_phi, build_psi
from symlab.linear_gap import LinearGapConfig, closed_form_gap_equivariant, random_equivariant_target

from symlab.groups import (
    FiniteGroup,
    build_group,
    build_representation,
    character,
    character_inner,
)


def test_trivial_group():
    g = build_group("cyclic 1")
    assert g.order == 1
    assert g.identity == 0
    assert g.weights[0] == 1.0


def test_symmetric_3_basics():
    g = build_group("symmetric 3")
    assert g.order == 6
    assert np.allclose(g.weights, 1.0 / 6.0)
    assert g.is_exact


def test_symmetric_cap_rejected():
    with pytest.raises(ValueError):
        build_group("symmetric 8")  # 8! = 40320 > 5040


def test_so2_quadrature_table_is_index_addition():
    g = build_group("so2_quadrature 8")
    ids = np.arange(8)
    assert np.array_equal(g.table, (ids[:, None] + ids[None, :]) % 8)
    assert not g.is_exact
    assert g.exactness == "quadrature(8)"


def test_dihedral_order_and_noncommutativity():
    g = build_group("dihedral 4")
    assert g.order == 8
    # r * s != s * r for the square
    r, s = 1, 4
    assert g.compose(r, s) != g.compose(s, r)


def test_product_group():
    g = build_group("cyclic 2 * cyclic 3")
    assert g.order == 6
    assert np.allclose(g.weights.sum(), 1.0)
    # product of cyclics of coprime order is cyclic of order 6: some element generates
    orders = []
    for a in g.elements():
        x, k = a, 1
        while x != g.identity:
            x = g.compose(x, a)
            k += 1
        orders.append(k)
    assert max(orders) == 6


def test_reassociation_random_triples():
    for desc in ["symmetric 3", "dihedral 4", "cyclic 5", "cyclic 2 * symmetric 3"]:
        g = build_group(desc)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b, c = rng.integers(0, g.order, size=3)
            assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_invalid_descriptors():
    for bad in ["cyclic", "frobnicate 3", "cyclic 0", "cyclic 2 *", ""]:
        with pytest.raises(ValueError):
            build_group(bad)


def test_invalid_table_rejected():
    table = np.array([[0, 1], [1, 1]])  # not a group
    with pytest.raises(ValueError):
        FiniteGroup(
            name="broken",
            table=table,
            inverse=np.array([0, 1]),
            identity=0,
            weights=np.array([0.5, 0.5]),
        )


def test_natural_permutation_s3():
    g = build_group("symmetric 3")
    rep = build_representation(g, "natural_permutation")
    assert rep.dim == 3
    chi = character(rep)
    assert chi[g.identity] == 3
    # traces of S_3 permutation matrices: identity 3, transpositions 1, 3-cycles 0
    assert sorted(chi.tolist()) == [0, 0, 1, 1, 1, 3]


def test_character_inner_s3():
    g = build_group("symmetric 3")
    nat = build_representation(g, "natural_permutation")
    triv = build_representation(g, "trivial 1")
    assert character_inner(nat, nat) == pytest.approx(2.0, abs=1e-10)
    assert character_inner(nat, triv) == pytest.approx(1.0, abs=1e-10)
    assert character_inner(triv, triv) == pytest.approx(1.0, abs=1e-12)


def test_rotation_block_c4():
    g = build_group("cyclic 4")
    rep = build_representation(g, "rotation_block 1")
    assert rep.dim == 2
    m1 = rep.matrices[1]
    assert np.allclose(np.linalg.matrix_power(m1, 4), np.eye(2), atol=1e-12)
    assert np.allclose(m1, [[0, -1], [1, 0]], atol=1e-12)
    # character of a 2D rotation is 2 cos(theta)
    angles = 2 * np.pi * np.arange(4) / 4
    assert np.allclose(character(rep), 2 * np.cos(angles), atol=1e-12)


def test_rotation_block_requires_cyclic():
    g = build_group("symmetric 3")
    with pytest.raises(ValueError):
        build_representation(g, "rotation_block 1")


def test_sign_representation():
    g = build_group("symmetric 3")
    rep = build_representation(g, "sign")
    chi = character(rep)
    assert sorted(chi.tolist()) == [-1, -1, -1, 1, 1, 1]
    assert character_inner(rep, rep) == pytest.approx(1.0, abs=1e-12)


def test_sign_requires_symmetric():
    g = build_group("cyclic 4")
    with pytest.raises(ValueError):
        build_representation(g, "sign")


def test_direct_sum():
    g = build_group("symmetric 3")
    rep = build_representation(g, "direct_sum natural_permutation + trivial 1")
    assert rep.dim == 4
    assert character_inner(rep, rep) == pytest.approx(5.0, abs=1e-8)  # (nat+triv, nat+triv) = 2+1+1+1


def test_explicit_reflection_rep():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
    rep = build_representation(g, "explicit", matrices=mats)
    assert rep.is_orthogonal
    assert np.allclose(character(rep), [3.0, 1.0])


def test_explicit_rep_leaves_the_callers_array_writeable():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
    rep = build_representation(g, "explicit", matrices=mats)
    assert mats.flags.writeable
    assert not rep.matrices.flags.writeable


def test_explicit_rep_does_not_follow_later_writes_to_the_callers_array():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
    rep = build_representation(g, "explicit", matrices=mats)
    mats[1] = np.eye(3)
    assert np.array_equal(rep.matrices[1], np.diag([-1.0, 1.0, 1.0]))


def test_explicit_non_homomorphism_rejected():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        build_representation(g, "explicit", matrices=mats)


def test_non_orthogonal_flagged_when_allowed():
    # a valid non-orthogonal rep of C_2: conjugate the reflection by a shear
    g = build_group("cyclic 2")
    shear = np.array([[1.0, 0.7], [0.0, 1.0]])
    refl = np.diag([1.0, -1.0])
    mats = np.stack([np.eye(2), shear @ refl @ np.linalg.inv(shear)])
    with pytest.raises(ValueError):
        build_representation(g, "explicit", matrices=mats)
    rep = build_representation(g, "explicit", matrices=mats, require_orthogonal=False)
    assert not rep.is_orthogonal
    # the group's inverse ids give the inverse matrix exactly despite non-orthogonality
    assert np.allclose(rep.matrices[g.inverse[1]] @ rep.matrices[1], np.eye(2), atol=1e-12)


def test_natural_permutation_dihedral_is_homomorphism():
    g = build_group("dihedral 5")
    rep = build_representation(g, "natural_permutation")
    assert rep.dim == 5
    for a, b in itertools.product(range(g.order), repeat=2):
        assert np.array_equal(rep.matrices[g.compose(a, b)], rep.matrices[a] @ rep.matrices[b])


def test_natural_permutation_product_group():
    g = build_group("cyclic 2 * symmetric 3")
    rep = build_representation(g, "natural_permutation")
    assert rep.dim == 5
    assert character_inner(rep, build_representation(g, "trivial 1")) == pytest.approx(2.0, abs=1e-8)


def test_large_group_sampled_validation():
    g = build_group("symmetric 7")
    assert g.order == 5040
    rep = build_representation(g, "natural_permutation")
    assert character_inner(rep, rep) == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------- composition without a table


def _reference_perms(descriptor):
    """Element-id-ordered permutations of a faithful action, written out by hand."""
    kind, _, arg = descriptor.partition(" ")
    m = int(arg)
    v = np.arange(m)
    if kind == "cyclic":
        return [tuple((v + j) % m) for j in range(m)]
    if kind == "dihedral":
        return [tuple((v + j) % m) for j in range(m)] + [tuple(-(v + j) % m) for j in range(m)]
    assert kind == "symmetric"
    return list(itertools.permutations(range(m)))


def _reference_table(descriptor):
    """Dense table from composing the action's permutations: (a*b)(v) = a(b(v))."""
    factors = []
    for part in descriptor.split("*"):
        perms = _reference_perms(part.strip())
        index = {p: i for i, p in enumerate(perms)}
        factors.append(np.array([[index[tuple(np.array(a)[list(b)])] for b in perms] for a in perms]))
    table = factors[-1]
    for left in reversed(factors[:-1]):
        # product ids are a_left * |right| + a_right, composed factor-wise
        table = (left[:, None, :, None] * len(table) + table[None, :, None, :]).reshape(
            len(left) * len(table), -1)
    return table


@pytest.mark.parametrize("descriptor", ["cyclic 5", "dihedral 4", "symmetric 4", "cyclic 2 * symmetric 3"])
def test_vectorised_compose_matches_reference_table(descriptor):
    g = build_group(descriptor)
    reference = _reference_table(descriptor)
    ids = np.arange(g.order)
    assert np.array_equal(g.compose(ids[:, None], ids[None, :]), reference)
    assert np.array_equal(g.compose(ids, ids), np.diagonal(reference))
    assert np.array_equal(reference[g.inverse, ids], np.full(g.order, g.identity))
    assert "table" not in vars(g)
    assert np.array_equal(g.table, reference)
    assert np.array_equal(g.compose(ids, ids), np.diagonal(g.table))


def test_explicit_table_group_composes_by_indexing_it():
    reference = _reference_table("dihedral 3")
    g = FiniteGroup("d3", table=reference, inverse=[0, 2, 1, 3, 4, 5],
                    identity=0, weights=np.full(6, 1.0 / 6.0))
    assert np.array_equal(g.table, reference)
    assert reference.flags.writeable
    assert g.compose(1, 3) == reference[1, 3]
    assert g.same_composition(build_group("dihedral 3")) is False
    twin = FiniteGroup("twin", table=reference.copy(), inverse=g.inverse, identity=0, weights=g.weights)
    assert g.same_composition(twin)


def test_large_symmetric_group_never_builds_its_table():
    tracemalloc.start()
    try:
        g = build_group("symmetric 7")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    rep = build_representation(g, "natural_permutation")
    build_phi(rep)
    assert "table" not in vars(g)
    # spot-check products against composed permutations
    perms = np.array(list(itertools.permutations(range(7))))
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, g.order, size=(2, 200))
    composed = perms[g.compose(a, b)]
    assert np.array_equal(composed, np.take_along_axis(perms[a], perms[b], axis=1))


def _equivariant_config(rep, n):
    theta = random_equivariant_target(build_psi(rep, rep), np.random.default_rng(14))
    return LinearGapConfig(phi=rep, psi=rep, theta=theta, n=n, trials=10)


def test_equivariant_closed_form_on_product_group_is_unchanged():
    g = build_group("cyclic 2 * symmetric 3")
    nat = build_representation(g, "natural_permutation")
    dense = FiniteGroup("dense", table=_reference_table("cyclic 2 * symmetric 3"),
                        inverse=g.inverse, identity=g.identity, weights=g.weights)
    dense_nat = build_representation(dense, "explicit", matrices=nat.matrices)
    for n in (1, 2, 3, 12):
        assert closed_form_gap_equivariant(_equivariant_config(nat, n)) == \
            closed_form_gap_equivariant(_equivariant_config(dense_nat, n))
    # value from the dense-table implementation, overparameterised regime
    big = build_representation(build_group("dihedral 6 * cyclic 5"), "natural_permutation")
    assert closed_form_gap_equivariant(_equivariant_config(big, 4)) == \
        pytest.approx(11.027289327765768, rel=1e-12)


def _closes_to_whole_group(g):
    """Close {identity} under right multiplication by the generators."""
    reached = np.zeros(g.order, dtype=bool)
    reached[g.identity] = True
    gens = np.array(g.generators, dtype=np.int64)
    size = 0
    while size < reached.sum():
        size = reached.sum()
        reached[g.compose(np.flatnonzero(reached)[:, None], gens)] = True
    return bool(reached.all())


def _d3_table_group(**overrides):
    kwargs = dict(table=_reference_table("dihedral 3"), inverse=[0, 2, 1, 3, 4, 5],
                  identity=0, weights=np.full(6, 1.0 / 6.0))
    kwargs.update(overrides)
    return FiniteGroup("d3", **kwargs)


@pytest.mark.parametrize("descriptor", [
    "cyclic 1", "cyclic 12", "symmetric 1", "symmetric 2", "symmetric 5",
    "dihedral 1", "dihedral 2", "dihedral 6", "so2_quadrature 2",
    "cyclic 2 * symmetric 3", "dihedral 6 * cyclic 5",
])
def test_generators_generate_built_groups(descriptor):
    g = build_group(descriptor)
    assert g.identity not in g.generators
    assert len(set(g.generators)) == len(g.generators)
    assert _closes_to_whole_group(g)
    assert (g.generators == ()) == (g.order == 1)


def test_table_group_takes_greedy_generators():
    g = _d3_table_group()
    # 1 generates the rotations {0, 1, 2}; 3 is the first id they miss
    assert g.generators == (1, 3)
    assert _closes_to_whole_group(g)
    assert len(g.generators) <= np.log2(g.order)


@pytest.mark.parametrize("descriptor", [
    "cyclic 1", "cyclic 12", "so2_quadrature 8", "dihedral 1", "dihedral 6",
    "symmetric 2", "symmetric 6", "cyclic 2 * symmetric 3", "dihedral 6 * cyclic 5",
])
def test_light_associativity_test_holds_on_built_groups(descriptor):
    # a built group composes from its structure and is not checked for
    # associativity when built; Light's test over its generators pins it here
    g = build_group(descriptor)
    T = g.table
    for s in g.generators:
        assert np.array_equal(T[T[:, s]], T[:, T[s]])


def _corrupt_one_matrix(descriptor, bad=None):
    """Natural-permutation matrices with one non-generator id given another element's matrix."""
    g = build_group(descriptor)
    mats = build_representation(g, "natural_permutation").matrices.copy()
    if bad is None:
        bad = next(a for a in g.elements() if a != g.identity and a not in g.generators)
    assert bad != g.identity and bad not in g.generators
    mats[bad] = mats[g.compose(bad, bad)]  # still orthogonal, no longer a homomorphism
    return g, mats


def _untouched_by_sampled_pairs(g, seed, pairs):
    """The smallest non-generator id that no product a*b of ``pairs`` random pairs reads or yields."""
    a, b = np.random.default_rng(seed).integers(0, g.order, size=(2, pairs))
    touched = set(a) | set(b) | set(g.compose(a, b)) | set(g.generators) | {g.identity}
    return next(x for x in g.elements() if x not in touched)


@pytest.mark.parametrize("descriptor", ["symmetric 4", "dihedral 6 * cyclic 5", "symmetric 7"])
def test_one_corrupted_matrix_off_the_generators_is_rejected(descriptor):
    bad = None
    if descriptor == "symmetric 7":
        # a check of 1000 random pairs drawn with default_rng(2) never reads this id
        bad = _untouched_by_sampled_pairs(build_group(descriptor), 2, 1000)
    g, mats = _corrupt_one_matrix(descriptor, bad)
    with pytest.raises(ValueError, match="not a homomorphism"):
        build_representation(g, "explicit", matrices=mats)


def test_table_group_weights_perturbed_off_the_generators_are_rejected():
    assert _d3_table_group().generators == (1, 3)
    weights = np.full(6, 1.0 / 6.0)
    weights[[2, 4]] += [0.01, -0.01]  # still non-negative and summing to 1
    with pytest.raises(ValueError, match="not invariant under left translation"):
        _d3_table_group(weights=weights)


def test_non_associative_loop_table_is_rejected():
    # a Latin square with two-sided identity 0 in which every element is its
    # own inverse; a group of order 5 has no element of order 2, so it is not one
    loop = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    ids = np.arange(5)
    # every row and every column holds each id once
    assert all((np.sort(loop, axis=k) == np.expand_dims(ids, 1 - k)).all() for k in (0, 1))
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup("loop", table=loop, inverse=ids, identity=0, weights=np.full(5, 0.2))


def test_huge_atom_is_refused_before_it_is_built():
    start = time.perf_counter()
    # symmetric m used to compute m! first, and cyclic m an m-long inverse table
    for descriptor in ("symmetric 1000000", "cyclic 10000000", "so2_quadrature 5041"):
        with pytest.raises(ValueError, match="past the 5040 cap"):
            build_group(descriptor)
    assert time.perf_counter() - start < 1.0

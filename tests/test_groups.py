import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from symlab import sampling
from symlab.averaging import build_phi, build_psi
from symlab.linear_gap import LinearGapConfig, closed_form_gap_equivariant, random_equivariant_target

from symlab.groups import (
    MAX_REP_ENTRIES,
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
    assert g.generators == ()
    assert not hasattr(g, "weights")  # the Haar measure of a finite group is uniform


def test_symmetric_3_basics():
    g = build_group("symmetric 3")
    assert g.order == 6
    ids = np.arange(6)
    assert np.all(g.compose(ids, g.inverse) == g.identity)


def test_symmetric_cap_rejected():
    with pytest.raises(ValueError):
        build_group("symmetric 8")  # 8! = 40320 > 5040


def test_so2_quadrature_table_is_index_addition():
    g = build_group("so2_quadrature 8")
    ids = np.arange(8)
    assert np.array_equal(g.compose(ids[:, None], ids), (ids[:, None] + ids[None, :]) % 8)


def test_dihedral_order_and_noncommutativity():
    g = build_group("dihedral 4")
    assert g.order == 8
    # r * s != s * r for the square
    r, s = 1, 4
    assert g.compose(r, s) != g.compose(s, r)


def test_product_group():
    g = build_group("cyclic 2 * cyclic 3")
    assert g.order == 6
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


def test_reps_on_separately_built_groups_compare_by_structure():
    from symlab.layers import LayerSpec

    a = build_representation(build_group("symmetric 3"), "natural_permutation")
    b = build_representation(build_group("symmetric 3"), "natural_permutation")
    assert a.group is not b.group
    assert character_inner(a, b) == pytest.approx(2.0, abs=1e-10)
    LayerSpec(reps=(a, b), weights=(np.zeros((3, 3)),), activation="identity")
    # same order, other composition
    d3 = build_representation(build_group("dihedral 3"), "natural_permutation")
    with pytest.raises(ValueError, match="different groups"):
        character_inner(a, d3)
    with pytest.raises(ValueError, match="same group"):
        LayerSpec(reps=(a, d3), weights=(np.zeros((3, 3)),), activation="identity")


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


def test_a_representation_build_just_under_the_cap_peaks_under_twice_its_stored_size():
    g = build_group("cyclic 2")
    tracemalloc.start()
    try:
        rep = build_representation(g, "trivial 1448")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * 1449 ** 2 > MAX_REP_ENTRIES >= rep.matrices.size  # the largest trivial rep of C2
    # the checks run in blocks: one element's 16 MB temporary, not |G| d^2 ones (4.6x before)
    assert peak < 2 * rep.matrices.nbytes
    assert np.array_equal(rep.matrices[1], np.eye(1448))


def test_a_nan_matrix_is_rejected():
    # a NaN deviation used to compare as within tolerance
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    mats[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="not a homomorphism"):
        build_representation(g, "explicit", matrices=mats)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("element", [0, 1])
def test_a_non_finite_matrix_is_refused_before_any_product(entry, element):
    # an inf used to reach the block products, where inf - inf warns under -W error
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    mats[element, 0, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not a homomorphism: an entry is not finite"):
            build_representation(g, "explicit", matrices=mats)


def test_a_huge_finite_entry_is_refused_before_any_product():
    # finite, so the finiteness scan passed it, and its products overflowed
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    mats[1, 0, 1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="not orthogonal: an entry of size 1.000e\\+200 exceeds 1"):
            build_representation(g, "explicit", matrices=mats)


def test_explicit_non_homomorphism_rejected():
    g = build_group("cyclic 2")
    mats = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        build_representation(g, "explicit", matrices=mats)


def test_non_orthogonal_rep_is_rejected():
    # a valid non-orthogonal rep of C_2: conjugate the reflection by a shear
    g = build_group("cyclic 2")
    shear = np.array([[1.0, 0.7], [0.0, 1.0]])
    refl = np.diag([1.0, -1.0])
    mats = np.stack([np.eye(2), shear @ refl @ np.linalg.inv(shear)])
    with pytest.raises(ValueError, match="not orthogonal"):
        build_representation(g, "explicit", matrices=mats)


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
    # spot-check products against composed permutations
    perms = np.array(list(itertools.permutations(range(7))))
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, g.order, size=(2, 200))
    composed = perms[g.compose(a, b)]
    assert np.array_equal(composed, np.take_along_axis(perms[a], perms[b], axis=1))


def test_representation_checks_read_the_same_at_any_block_budget(monkeypatch):
    # the checks' blocks are a memory unit: one element per block accepts S7, and refuses
    # a planted non-homomorphism of S5 with the same message, as the default budget does
    s7, s5 = build_group("symmetric 7"), build_group("symmetric 5")
    planted = np.array(build_representation(s5, "natural_permutation").matrices)
    planted[[1, 2]] = planted[[2, 1]]
    outcomes = []
    for block_entries in (sampling.BLOCK_ENTRIES, 1):
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", block_entries)
        rep = build_representation(s7, "natural_permutation")
        with pytest.raises(ValueError) as refused:
            build_representation(s5, "explicit", matrices=planted.copy())
        outcomes.append((rep.matrices, str(refused.value)))
    (first, message), (again, message_again) = outcomes
    assert np.array_equal(first, again)
    assert message == message_again and message.startswith("matrices are not a homomorphism")


def test_s7_natural_build_peaks_under_its_block_budget():
    # a check's block holds two matrices per element, its products and its gathered
    # targets: sizing the blocks by one matrix per element peaked at 4.38 MiB
    g = build_group("symmetric 7")
    tracemalloc.start()
    try:
        build_representation(g, "natural_permutation")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.9 * 2 ** 20


def _equivariant_config(rep, n):
    tensor = build_psi(rep, rep)
    theta = random_equivariant_target(tensor, np.random.default_rng(14))
    return LinearGapConfig(tensor=tensor, theta=theta, n=n, trials=10)


def test_equivariant_closed_form_on_product_group_is_unchanged():
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


@pytest.mark.parametrize("descriptor", [
    "cyclic 1", "cyclic 12", "so2_quadrature 8", "dihedral 1", "dihedral 6",
    "symmetric 2", "symmetric 6", "cyclic 2 * symmetric 3", "dihedral 6 * cyclic 5",
])
def test_light_associativity_test_holds_on_built_groups(descriptor):
    # a built group composes from its structure and is not checked for
    # associativity when built; Light's test over its generators pins it here
    g = build_group(descriptor)
    ids = np.arange(g.order)
    T = g.compose(ids[:, None], ids)
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


def test_huge_atom_is_refused_before_it_is_built():
    start = time.perf_counter()
    # symmetric m used to compute m! first, and cyclic m an m-long inverse table
    for descriptor in ("symmetric 1000000", "cyclic 10000000", "so2_quadrature 5041"):
        with pytest.raises(ValueError, match="past the 5040 cap"):
            build_group(descriptor)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("build", [
    # the composer of ("symmetric", 9) used to enumerate all 9! permutations first
    lambda: FiniteGroup("s9", structure=("symmetric", 9)),
    lambda: FiniteGroup("s12", structure=("symmetric", 12)),
    # build_group leaves the cap to the constructor, which checks it before anything else
    lambda: build_group("symmetric 12"),
    lambda: build_group("cyclic 5040 * cyclic 2"),
    # 5040! has over 16000 digits, which str() used to refuse in place of the cap's message
    lambda: build_group("symmetric 5040"),
], ids=["s9", "s12", "symmetric 12", "cyclic 5040 * cyclic 2", "symmetric 5040"])
def test_over_cap_group_is_refused_before_it_is_built(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="past the 5040 cap"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_representation_at_the_cap_is_built():
    g = build_group("cyclic 2")
    rep = build_representation(g, "trivial 1448")  # 2 * 1448^2 entries, just under the cap
    assert g.order * rep.dim ** 2 <= MAX_REP_ENTRIES < g.order * 1449 ** 2
    assert np.array_equal(rep.matrices[1], np.eye(1448))

"""Finite symmetry groups and their orthogonal matrix representations.

Group elements are integer ids 0..order-1.  The normalised Haar measure of
a finite group is unique and uniform, so every Haar average elsewhere in
the package is the plain mean over the ids, and no group stores a weight
vector.  A group is its ``structure``: it composes ids arithmetically from
the structure (index arithmetic for cyclic and dihedral groups, lex ranks
of composed permutations for symmetric groups, factor-wise for products),
takes its inverses from the same structure, and id 0 is its identity.  No
dense composition table is ever held.  Continuous SO(2) is admitted
through an equispaced angular quadrature, which is itself an exact cyclic
group of rotations; rotation blocks of frequency below half the node
count integrate exactly.

Every "for each g in G" check (the homomorphism property of a
representation, and the intertwining and invariance checks elsewhere in
the package) runs over ``FiniteGroup.generators`` only: a
property closed under composition that holds for each generator holds for
the whole group.  Built groups take their generators from ``structure``
(1 for cyclic groups, a rotation and a reflection for dihedral ones, a
transposition and an m-cycle for symmetric ones, each factor's for
products).  A group's composition comes from its structure, not from
input, so its associativity is pinned by the tests rather than checked on
every build.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import blocks

__all__ = [
    "MAX_GROUP_ORDER",
    "MAX_REP_ENTRIES",
    "HOMOMORPHISM_TOL",
    "FiniteGroup",
    "Representation",
    "build_group",
    "build_representation",
    "character",
    "character_inner",
]

MAX_GROUP_ORDER = 5040
MAX_REP_ENTRIES = 1 << 22  # order * dim^2 float64 entries of one representation, 32 MB
HOMOMORPHISM_TOL = 1e-10


@dataclass(frozen=True, eq=False, init=False)
class FiniteGroup:
    """A finite group over element ids 0..order-1.

    ``compose(a, b)`` is the id of a*b, elementwise over broadcast id
    arrays; ``inverse[a]`` is the id of a^-1, and ``identity`` is id 0.
    Its Haar measure is uniform, 1/|G| on every id, so it is not stored.
    ``structure`` records how the group was built, e.g.
    ("cyclic", 4) or ("product", ("cyclic", 2), ("symmetric", 3)); the
    order, composition, inverses and generators all come from it, and it
    lets representation constructors recover the concrete action behind
    the ids.
    """

    identity = 0  # of every structure, and so of every product of them

    name: str
    inverse: np.ndarray
    order: int
    structure: tuple

    def __init__(self, name: str, *, structure: tuple) -> None:
        order = _capped_order(name, structure)  # before anything order-sized is built
        inverse = np.asarray(_structure_inverse(structure), dtype=np.int64)
        inverse.setflags(write=False)
        for key, value in (
            ("name", name),
            ("order", order),
            ("structure", structure),
            ("_compose", _composer(structure)),
            ("inverse", inverse),
        ):
            object.__setattr__(self, key, value)
        _validate_group(self)

    @functools.cached_property
    def generators(self) -> tuple:
        """Non-identity ids generating the group; a property closed under composition
        holds for every element once it holds for each."""
        return _structure_generators(self.structure)

    def elements(self) -> range:
        return range(self.order)

    def compose(self, a, b):
        """Id of a*b, for ids or broadcastable id arrays."""
        return self._compose(a, b)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _capped_order(name: str, structure: tuple) -> int:
    order = _structure_order(structure)
    if order > MAX_GROUP_ORDER:
        size = order if order < 10 ** 15 else "more than 10^15"  # str() refuses 4300+ digits
        raise ValueError(f"{name} has {size} elements, past the {MAX_GROUP_ORDER} cap")
    return order


def _validate_group(group: FiniteGroup) -> None:
    m = group.order
    compose, e = group.compose, group.identity
    ids = np.arange(m)
    if not (np.array_equal(compose(e, ids), ids) and np.array_equal(compose(ids, e), ids)):
        raise ValueError(f"{group.name}: id {group.identity} is not a two-sided identity")
    if not (np.all(compose(group.inverse, ids) == e) and np.all(compose(ids, group.inverse) == e)):
        raise ValueError(f"{group.name}: inverses are inconsistent with the composition")


def _lex_permutations(m: int) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """All permutations of 0..m-1 in lexicographic order, and their ranker.

    The ranker maps an (..., m) array of permutations to their row indices.
    Read as base-m numerals, lex order is numeric order, so a sorted search
    over the numerals of the rows finds each rank.
    """
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64).reshape(-1, m)
    place = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    numerals = perms @ place
    return perms, lambda p: np.searchsorted(numerals, p @ place)


def _composer(structure: tuple) -> Callable:
    """Vectorised (a, b) -> id of a*b for the group built from ``structure``."""
    kind = structure[0]
    if kind in ("cyclic", "so2_quadrature"):
        m = structure[1]
        return lambda a, b: (a + b) % m
    if kind == "dihedral":
        m = structure[1]

        def dihedral(a, b):
            # ids 0..m-1 are rotations r^j, ids m..2m-1 are reflections s*r^j;
            # a reflection on the right reverses the left factor's rotation
            a, b = np.asarray(a), np.asarray(b)
            reflect_b = b >= m
            turn = np.where(reflect_b, -(a % m), a % m) + b % m
            return m * ((a >= m) != reflect_b) + turn % m

        return dihedral
    if kind == "symmetric":
        perms, rank = _lex_permutations(structure[1])

        def symmetric(a, b):
            a, b = np.broadcast_arrays(a, b)
            # (sigma*tau)(v) = sigma(tau(v))
            return rank(np.take_along_axis(perms[a], perms[b], axis=-1))

        return symmetric
    if kind == "product":
        left, right = _composer(structure[1]), _composer(structure[2])
        ob = _structure_order(structure[2])
        return lambda a, b: left(a // ob, b // ob) * ob + right(a % ob, b % ob)
    raise ValueError(f"no composition for group structure {structure!r}")


def _structure_generators(structure: tuple) -> tuple:
    """Generators of the group built from ``structure``, as ids of that group."""
    kind, arg = structure[0], structure[1]
    if kind == "product":
        ob = _structure_order(structure[2])
        return tuple(s * ob for s in _structure_generators(arg)) + _structure_generators(structure[2])
    if kind == "dihedral":
        ids = (1 % arg, arg)  # the rotation r and the reflection s
    elif kind == "symmetric":
        # lex ranks of the transposition (0 1) and the cycle v -> v+1 mod m
        ids = (math.factorial(arg - 1), sum(math.factorial(j) for j in range(1, arg)))
    else:  # cyclic and so2_quadrature
        ids = (1,)
    order = _structure_order(structure)
    return tuple(dict.fromkeys(s % order for s in ids if s % order))


def _structure_inverse(structure: tuple) -> np.ndarray:
    """Id of g^-1 for each id g of the group built from ``structure``."""
    kind, m = structure[0], structure[1]
    if kind == "product":
        left, right = _structure_inverse(m), _structure_inverse(structure[2])
        return (left[:, None] * len(right) + right[None, :]).reshape(-1)
    if kind in ("cyclic", "so2_quadrature"):
        return (-np.arange(m)) % m
    if kind == "dihedral":
        j = np.arange(m)  # a reflection is its own inverse
        return np.concatenate([(-j) % m, m + j])
    if kind == "symmetric":
        perms, rank = _lex_permutations(m)
        return rank(np.argsort(perms, axis=1))
    raise ValueError(f"no inverses for group structure {structure!r}")


def _parse_int(token: str, what: str, least: int = 1) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {token!r}") from None
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _atom_structure(text: str) -> tuple:
    tokens = text.split()
    if len(tokens) != 2:
        raise ValueError(
            f"invalid group descriptor {text!r}; expected 'cyclic m', 'symmetric m', "
            "'dihedral m' or 'so2_quadrature M'"
        )
    kind, arg = tokens
    if kind not in ("cyclic", "symmetric", "dihedral", "so2_quadrature"):
        raise ValueError(f"unknown group kind {kind!r}")
    m = _parse_int(arg, f"{kind} size")
    if m > MAX_GROUP_ORDER:  # refused before m! is computed
        raise ValueError(f"{kind} {m} has at least {m} elements, past the {MAX_GROUP_ORDER} cap")
    if kind == "so2_quadrature" and m < 2:
        raise ValueError(f"so2_quadrature needs at least 2 nodes, got {m}")
    return kind, m


def build_group(descriptor: str) -> FiniteGroup:
    """Build a group from a descriptor string.

    Grammar: "cyclic m" | "symmetric m" | "dihedral m" | "so2_quadrature M",
    optionally joined with '*' for direct products, e.g.
    "cyclic 2 * symmetric 3".  Products associate to the right.
    """
    parts = [p.strip() for p in descriptor.split("*")]
    if any(not p for p in parts):
        raise ValueError(f"invalid group descriptor {descriptor!r}")
    atoms = [_atom_structure(p) for p in parts]
    structure = atoms[-1]
    for atom in reversed(atoms[:-1]):
        structure = ("product", atom, structure)
    name = " * ".join(f"{kind} {m}" for kind, m in atoms)
    return FiniteGroup(name, structure=structure)


@dataclass(frozen=True, eq=False)
class Representation:
    """Per-element dim x dim real orthogonal matrices realizing a group action.

    ``matrices[g]`` is the matrix of element id g.  Construction enforces
    the homomorphism property and orthogonality.  The identity's matrix,
    once checked to be I within HOMOMORPHISM_TOL, is stored as exactly I,
    so B @ rho(e).T is B bit for bit and an averaged Gram can always share
    the identity's term with the base Gram.

    The representation takes ``matrices``, a C-contiguous float64 array,
    over: it writes the identity's matrix and makes the array read-only.
    ``build_representation`` hands it only arrays it has just allocated.
    """

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    name: str = "explicit"

    def __post_init__(self) -> None:
        _validate_representation(self)
        self.matrices.setflags(write=False)

    def __repr__(self) -> str:
        return f"Representation({self.name!r}, group={self.group.name!r}, dim={self.dim})"


def _validate_representation(rep: Representation) -> None:
    """Check the identity, each generator's homomorphism property and orthogonality.

    A non-finite entry, or one above 1 in absolute value, is refused first.
    Every check runs over blocks of elements from sampling.blocks, each
    element counted as two matrices: a block's products and its gathered
    targets are live at once, and a one-element block gathers none.
    """
    group, mats = rep.group, rep.matrices
    m, d = group.order, rep.dim
    if d < 1:
        raise ValueError(f"representation dim must be >= 1, got {d}")
    if mats.shape != (m, d, d):
        raise ValueError(f"matrices have shape {mats.shape}, expected {(m, d, d)} for {group.name}")
    element_blocks = blocks(m, 2 * d * d)
    # before any product: inf - inf or a huge entry in one would warn where it
    # should refuse; an orthogonal matrix has no entry above 1 in absolute value
    for block in element_blocks:
        peak = np.max(np.abs(mats[block]))
        if not np.isfinite(peak):
            raise ValueError("matrices are not a homomorphism: an entry is not finite")
        if peak > 1.0 + HOMOMORPHISM_TOL:
            raise ValueError(f"representation is not orthogonal: an entry of size {peak:.3e} exceeds 1")
    identity = mats[group.identity]
    diagonal = identity.reshape(-1)[::d + 1]  # views of the stored array, which becomes exactly I
    diagonal -= 1.0
    if not np.max(np.abs(identity)) <= HOMOMORPHISM_TOL:  # NaN fails too, here and below
        raise ValueError("identity element does not map to the identity matrix")
    identity[...] = 0.0
    diagonal[...] = 1.0

    # with rho(e) = I, rho(s*g) = rho(s) rho(g) for each generator s gives it for all of G
    dev = orth_dev = 0.0
    step = element_blocks[0].stop
    buffer = np.empty((step, d, d))
    for block in element_blocks:
        ids = np.arange(block.start, block.stop)
        prod = np.matmul(mats[block], mats[block].transpose(0, 2, 1), out=buffer[:len(ids)])
        prod.reshape(len(ids), -1)[:, ::d + 1] -= 1.0
        orth_dev = np.maximum(orth_dev, np.max(np.abs(prod, out=prod)))
        for s in group.generators:
            np.matmul(mats[s], mats[block], out=prod)
            targets = group.compose(s, ids)
            # one element's matrix by a plain index, a view: a gathered copy would double the temporary
            prod -= mats[targets] if step > 1 else mats[targets[0]]
            dev = np.maximum(dev, np.max(np.abs(prod, out=prod)))
    if not dev <= HOMOMORPHISM_TOL:
        raise ValueError(f"matrices are not a homomorphism: max deviation {dev:.3e}")
    if not orth_dev <= HOMOMORPHISM_TOL:
        raise ValueError(f"representation is not orthogonal: max |psi psi^T - I| = {orth_dev:.3e}")


def _structure_order(structure: tuple) -> int:
    kind = structure[0]
    if kind in ("cyclic", "so2_quadrature"):
        return structure[1]
    if kind == "symmetric":
        return math.factorial(structure[1])
    if kind == "dihedral":
        return 2 * structure[1]
    if kind == "product":
        return _structure_order(structure[1]) * _structure_order(structure[2])
    raise ValueError(f"no known order for structure {structure!r}")


def _zero_matrices(group: FiniteGroup, dim: int, descriptor: str) -> np.ndarray:
    """An all-zero (order, dim, dim) array, refused past MAX_REP_ENTRIES before it is allocated."""
    entries = group.order * dim * dim
    if entries > MAX_REP_ENTRIES:
        raise ValueError(
            f"{descriptor!r} on {group.name} needs {group.order} x {dim}^2 = {entries} matrix "
            f"entries, past the {MAX_REP_ENTRIES} cap"
        )
    return np.zeros((group.order, dim, dim))


def _natural_dim(structure: tuple) -> int:
    kind = structure[0]
    if kind == "product":
        return _natural_dim(structure[1]) + _natural_dim(structure[2])
    if kind in ("cyclic", "symmetric", "dihedral"):
        return structure[1]
    raise ValueError(f"no natural permutation action for group structure {structure!r}")


def _natural_permutations(structure: tuple) -> list[np.ndarray]:
    """Per-element coordinate permutations of the natural action of a group structure.

    Element g acts on coordinates by v -> perm[v]; permutations are listed
    in element-id order of the group built from the same structure.
    """
    kind = structure[0]
    if kind == "product":
        perms_b = _natural_permutations(structure[2])
        return [np.concatenate([pa, len(pa) + pb])
                for pa in _natural_permutations(structure[1]) for pb in perms_b]
    m = structure[1]
    v = np.arange(m)
    if kind == "symmetric":
        return list(_lex_permutations(m)[0])
    rotations = [(v + j) % m for j in range(m)]
    if kind == "cyclic":
        return rotations
    return rotations + [(-(v + j)) % m for j in range(m)]  # dihedral


def _rotation_block_matrices(group: FiniteGroup, freqs: list[int], descriptor: str) -> np.ndarray:
    kind = group.structure[0]
    if kind not in ("cyclic", "so2_quadrature"):
        raise ValueError(f"rotation_block requires a cyclic or so2_quadrature group, got {group.name}")
    m = group.structure[1]
    mats = _zero_matrices(group, 2 * len(freqs), descriptor)
    angles = 2.0 * np.pi * np.arange(m) / m
    for b, f in enumerate(freqs):
        c, s = np.cos(f * angles), np.sin(f * angles)
        i = 2 * b
        mats[:, i, i] = c
        mats[:, i, i + 1] = -s
        mats[:, i + 1, i] = s
        mats[:, i + 1, i + 1] = c
    return mats


def _sign_matrices(group: FiniteGroup) -> np.ndarray:
    if group.structure[0] != "symmetric":
        raise ValueError(f"sign representation requires a symmetric group, got {group.name}")
    m = group.structure[1]
    perms = _lex_permutations(m)[0]
    # the sign is the parity of the number of inversions, pairs i < j with p[i] > p[j]
    later = np.triu(np.ones((m, m), dtype=bool), 1)
    inversions = ((perms[:, :, None] > perms[:, None, :]) & later).sum(axis=(1, 2))
    return np.where(inversions % 2, -1.0, 1.0).reshape(-1, 1, 1)


def build_representation(
    group: FiniteGroup,
    kind: str,
    matrices: np.ndarray | None = None,
) -> Representation:
    """Build an orthogonal representation of ``group`` from a descriptor string.

    Descriptors: "natural_permutation", "trivial d", "rotation_block f1 f2 ...",
    "sign", "direct_sum <a> + <b> [+ ...]", or "explicit" with the
    ``matrices`` argument, an (order, d, d) array.  A built representation
    stores at most MAX_REP_ENTRIES matrix entries; a larger one is refused
    before it is allocated.
    """
    text = kind.strip()
    tokens = text.split()
    if not tokens:
        raise ValueError("empty representation descriptor")
    head = tokens[0]

    if head == "direct_sum":
        parts = [p.strip() for p in text[len("direct_sum"):].split("+")]
        if len(parts) < 2 or any(not p for p in parts):
            raise ValueError(f"direct_sum needs at least two '+'-separated descriptors: {kind!r}")
        reps = [build_representation(group, p) for p in parts]
        dim = sum(r.dim for r in reps)
        mats = _zero_matrices(group, dim, text)
        offset = 0
        for r in reps:
            mats[:, offset:offset + r.dim, offset:offset + r.dim] = r.matrices
            offset += r.dim
    elif head == "natural_permutation":
        if len(tokens) != 1:
            raise ValueError(f"natural_permutation takes no arguments, got {kind!r}")
        dim = _natural_dim(group.structure)
        mats = _zero_matrices(group, dim, text)
        cols = np.arange(dim)
        for g, p in enumerate(_natural_permutations(group.structure)):
            mats[g, p, cols] = 1.0
    elif head == "trivial":
        if len(tokens) > 2:
            raise ValueError(f"trivial takes at most one argument, got {kind!r}")
        dim = _parse_int(tokens[1], "trivial dim") if len(tokens) > 1 else 1
        mats = _zero_matrices(group, dim, text)
        mats[:, np.arange(dim), np.arange(dim)] = 1.0
    elif head == "rotation_block":
        if len(tokens) < 2:
            raise ValueError("rotation_block needs at least one frequency")
        freqs = [_parse_int(t, f"rotation_block frequency in {kind!r}", least=0) for t in tokens[1:]]
        mats = _rotation_block_matrices(group, freqs, text)
        dim = mats.shape[1]
    elif head == "sign":
        if len(tokens) != 1:
            raise ValueError(f"sign takes no arguments, got {kind!r}")
        mats = _sign_matrices(group)
        dim = 1
    elif head == "explicit":
        if matrices is None:
            raise ValueError("explicit representation needs the matrices argument")
        # a copy, so the caller's own array stays writeable and unchanged
        mats = np.array(matrices, dtype=np.float64, order="C")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"explicit matrices must have shape (order, d, d), got {mats.shape}")
        dim = mats.shape[1]
    else:
        raise ValueError(f"unknown representation kind {head!r}")

    return Representation(group=group, dim=dim, matrices=mats, name=text)


def character(rep: Representation) -> np.ndarray:
    """chi(g) = trace of the matrix of g, as a vector over element ids."""
    return np.einsum("gii->g", rep.matrices)


def character_inner(rep1: Representation, rep2: Representation) -> float:
    """Inner product of the characters of two representations, their
    product's mean over the group.

    Counts the dimension of the space of equivariant linear maps between
    them; a non-negative near-integer for exact finite groups.
    """
    if rep1.group.structure != rep2.group.structure:
        raise ValueError("representations live on different groups")
    return float(np.mean(character(rep1) * character(rep2)))

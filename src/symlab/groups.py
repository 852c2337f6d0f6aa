"""Finite symmetry groups and their orthogonal matrix representations.

Group elements are integer ids 0..order-1, so every Haar average elsewhere
in the package is an exact finite sum.  A built group composes ids
arithmetically from the ``structure`` it was built from (index arithmetic
for cyclic and dihedral groups, lex ranks of composed permutations for
symmetric groups, factor-wise for products); no dense composition table is
ever held.  Continuous SO(2) is admitted through an equispaced angular
quadrature, which is itself an exact cyclic group of rotations; rotation
blocks of frequency below half the node count integrate exactly.

Every "for each g in G" check (left-invariant weights, the homomorphism
property of a representation, and the intertwining and invariance checks
elsewhere in the package) runs over ``FiniteGroup.generators`` only: a
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

__all__ = [
    "MAX_GROUP_ORDER",
    "HOMOMORPHISM_TOL",
    "FiniteGroup",
    "Representation",
    "build_group",
    "build_representation",
    "character",
    "character_inner",
]

MAX_GROUP_ORDER = 5040
HOMOMORPHISM_TOL = 1e-10


@dataclass(frozen=True, eq=False, init=False)
class FiniteGroup:
    """A finite group over element ids 0..order-1.

    ``compose(a, b)`` is the id of a*b, elementwise over broadcast id
    arrays; ``inverse[a]`` is the id of a^-1.  ``weights`` are the Haar
    averaging weights: uniform 1/|G| for exact finite groups, quadrature
    weights (also uniform) for discretized continuous groups.
    ``exactness`` is "exact" or "quadrature(M)".  ``structure`` records how
    the group was built, e.g. ("cyclic", 4) or
    ("product", ("cyclic", 2), ("symmetric", 3)); it defines the
    composition, and lets representation constructors recover the concrete
    action behind the ids.
    """

    name: str
    inverse: np.ndarray
    identity: int
    weights: np.ndarray
    order: int
    exactness: str
    structure: tuple

    def __init__(
        self,
        name: str,
        *,
        inverse: np.ndarray,
        identity: int,
        weights: np.ndarray,
        exactness: str = "exact",
        structure: tuple,
    ) -> None:
        for key, value in (
            ("name", name),
            ("inverse", _read_only(inverse, np.int64)),
            ("identity", identity),
            ("weights", _read_only(weights, np.float64)),
            ("order", _structure_order(structure)),
            ("exactness", exactness),
            ("structure", structure),
            ("_compose", _composer(structure)),
        ):
            object.__setattr__(self, key, value)
        _validate_group(self)

    @functools.cached_property
    def generators(self) -> tuple:
        """Non-identity ids generating the group; a property closed under composition
        holds for every element once it holds for each."""
        return _structure_generators(self.structure)

    @property
    def is_exact(self) -> bool:
        return self.exactness == "exact"

    def elements(self) -> range:
        return range(self.order)

    def compose(self, a, b):
        """Id of a*b, for ids or broadcastable id arrays."""
        return self._compose(a, b)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _read_only(values, dtype) -> np.ndarray:
    # a copy, so the caller's own array stays writeable
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _validate_group(group: FiniteGroup) -> None:
    m = group.order
    if m > MAX_GROUP_ORDER:
        raise ValueError(f"{group.name}: order {m} exceeds the cap {MAX_GROUP_ORDER}")
    if not 0 <= group.identity < m:
        raise ValueError(f"{group.name}: identity id {group.identity} out of range")
    compose, e = group.compose, group.identity
    ids = np.arange(m)
    if not (np.array_equal(compose(e, ids), ids) and np.array_equal(compose(ids, e), ids)):
        raise ValueError(f"{group.name}: id {group.identity} is not a two-sided identity")
    if group.inverse.shape != (m,):
        raise ValueError(f"{group.name}: inverse table has wrong shape {group.inverse.shape}")
    if not (np.all(compose(group.inverse, ids) == e) and np.all(compose(ids, group.inverse) == e)):
        raise ValueError(f"{group.name}: inverse table is inconsistent with the composition table")

    w = group.weights
    if w.shape != (m,):
        raise ValueError(f"{group.name}: weights have wrong shape {w.shape}")
    if w.min() < 0:
        raise ValueError(f"{group.name}: weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"{group.name}: weights sum to {total!r}, not 1")
    for s in group.generators:
        if np.max(np.abs(w[compose(s, ids)] - w)) > 1e-12:
            raise ValueError(f"{group.name}: weights are not invariant under left translation")


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


def _uniform(order: int) -> np.ndarray:
    return np.full(order, 1.0 / order)


def _build_cyclic(m: int) -> FiniteGroup:
    return FiniteGroup(
        name=f"cyclic {m}",
        inverse=(-np.arange(m)) % m,
        identity=0,
        weights=_uniform(m),
        structure=("cyclic", m),
    )


def _build_symmetric(m: int) -> FiniteGroup:
    order = math.factorial(m)
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"symmetric {m} has {m}! = {order} elements, past the {MAX_GROUP_ORDER} cap")
    perms, rank = _lex_permutations(m)
    return FiniteGroup(
        name=f"symmetric {m}",
        inverse=rank(np.argsort(perms, axis=1)),
        identity=0,
        weights=_uniform(order),
        structure=("symmetric", m),
    )


def _build_dihedral(m: int) -> FiniteGroup:
    order = 2 * m
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"dihedral {m} has {order} elements, past the {MAX_GROUP_ORDER} cap")
    j = np.arange(m)
    return FiniteGroup(
        name=f"dihedral {m}",
        inverse=np.concatenate([(-j) % m, m + j]),
        identity=0,
        weights=_uniform(order),
        structure=("dihedral", m),
    )


def _build_so2_quadrature(nodes: int) -> FiniteGroup:
    if nodes < 2:
        raise ValueError(f"so2_quadrature needs at least 2 nodes, got {nodes}")
    return FiniteGroup(
        name=f"so2_quadrature {nodes}",
        inverse=(-np.arange(nodes)) % nodes,
        identity=0,
        weights=_uniform(nodes),
        exactness=f"quadrature({nodes})",
        structure=("so2_quadrature", nodes),
    )


def _product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    order = a.order * b.order
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"product of {a.name} and {b.name} has {order} elements, past the cap")
    ob = b.order
    inverse = (a.inverse[:, None] * ob + b.inverse[None, :]).reshape(order)
    exactness = "exact" if (a.is_exact and b.is_exact) else "quadrature(product)"
    return FiniteGroup(
        name=f"{a.name} * {b.name}",
        inverse=inverse,
        identity=a.identity * ob + b.identity,
        weights=np.kron(a.weights, b.weights),
        exactness=exactness,
        structure=("product", a.structure, b.structure),
    )


def _parse_positive_int(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {token!r}") from None
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def _build_atom(text: str) -> FiniteGroup:
    tokens = text.split()
    if len(tokens) != 2:
        raise ValueError(
            f"invalid group descriptor {text!r}; expected 'cyclic m', 'symmetric m', "
            "'dihedral m' or 'so2_quadrature M'"
        )
    kind, arg = tokens
    builders = {
        "cyclic": _build_cyclic, "symmetric": _build_symmetric,
        "dihedral": _build_dihedral, "so2_quadrature": _build_so2_quadrature,
    }
    if kind not in builders:
        raise ValueError(f"unknown group kind {kind!r}")
    m = _parse_positive_int(arg, f"{kind} size")
    if m > MAX_GROUP_ORDER:  # refused before m! or an m-long array is computed
        raise ValueError(f"{kind} {m} has at least {m} elements, past the {MAX_GROUP_ORDER} cap")
    return builders[kind](m)


def build_group(descriptor: str) -> FiniteGroup:
    """Build a group from a descriptor string.

    Grammar: "cyclic m" | "symmetric m" | "dihedral m" | "so2_quadrature M",
    optionally joined with '*' for direct products, e.g.
    "cyclic 2 * symmetric 3".  Products associate to the right.
    """
    parts = [p.strip() for p in descriptor.split("*")]
    if any(not p for p in parts):
        raise ValueError(f"invalid group descriptor {descriptor!r}")
    group = _build_atom(parts[-1])
    for part in reversed(parts[:-1]):
        group = _product(_build_atom(part), group)
    return group


@dataclass(frozen=True, eq=False)
class Representation:
    """Per-element dim x dim real matrices realizing a group action.

    ``matrices[g]`` is the matrix of element id g.  ``is_orthogonal`` acts
    as a requirement on construction: if True (default) a failed
    orthogonality check raises; if False the check result is recorded
    instead, so non-orthogonal explicit representations can be carried
    with a flag.  The homomorphism property is always enforced.  The
    identity's matrix, once checked to be I within HOMOMORPHISM_TOL, is
    stored as exactly I, so B @ rho(e).T is B bit for bit and an averaged
    Gram can always share the identity's term with the base Gram.
    """

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    name: str = "explicit"
    is_orthogonal: bool = True

    def __post_init__(self) -> None:
        # a copy, so the caller's own array stays writeable and unchanged
        object.__setattr__(self, "matrices", np.array(self.matrices, dtype=np.float64, order="C"))
        _validate_representation(self)
        self.matrices.setflags(write=False)

    def __repr__(self) -> str:
        return f"Representation({self.name!r}, group={self.group.name!r}, dim={self.dim})"


def _validate_representation(rep: Representation) -> None:
    group, mats = rep.group, rep.matrices
    m = group.order
    if rep.dim < 1:
        raise ValueError(f"representation dim must be >= 1, got {rep.dim}")
    if mats.shape != (m, rep.dim, rep.dim):
        raise ValueError(
            f"matrices have shape {mats.shape}, expected {(m, rep.dim, rep.dim)} for {group.name}"
        )
    eye = np.eye(rep.dim)
    if np.max(np.abs(mats[group.identity] - eye)) > HOMOMORPHISM_TOL:
        raise ValueError("identity element does not map to the identity matrix")
    mats[group.identity] = eye

    # with rho(e) = I, rho(s*g) = rho(s) rho(g) for each generator s gives it for all of G
    ids = np.arange(m)
    dev = max((float(np.max(np.abs(mats[s] @ mats - mats[group.compose(s, ids)])))
               for s in group.generators), default=0.0)
    if dev > HOMOMORPHISM_TOL:
        raise ValueError(f"matrices are not a homomorphism: max deviation {dev:.3e}")

    gram = np.matmul(mats, mats.transpose(0, 2, 1))
    orth_dev = float(np.max(np.abs(gram - eye)))
    actually_orthogonal = orth_dev <= HOMOMORPHISM_TOL
    if rep.is_orthogonal and not actually_orthogonal:
        raise ValueError(
            f"representation is not orthogonal: max |psi psi^T - I| = {orth_dev:.3e}; "
            "pass require_orthogonal=False to carry it flagged"
        )
    object.__setattr__(rep, "is_orthogonal", actually_orthogonal)


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


def _natural_permutations(structure: tuple) -> tuple[int, list[np.ndarray]]:
    """Return (dim, per-element coordinate permutation) for a group structure.

    Element g acts on coordinates by v -> perm[v]; permutations are listed
    in element-id order of the group built from the same structure.
    """
    kind = structure[0]
    if kind == "cyclic":
        m = structure[1]
        return m, [np.arange(m) if m == 1 else (np.arange(m) + j) % m for j in range(m)]
    if kind == "symmetric":
        m = structure[1]
        return m, list(_lex_permutations(m)[0])
    if kind == "dihedral":
        m = structure[1]
        v = np.arange(m)
        rotations = [(v + j) % m for j in range(m)]
        reflections = [(-(v + j)) % m for j in range(m)]
        return m, rotations + reflections
    if kind == "product":
        da, perms_a = _natural_permutations(structure[1])
        db, perms_b = _natural_permutations(structure[2])
        ob = _structure_order(structure[2])
        combined = []
        for pa in perms_a:
            for pb in perms_b:
                combined.append(np.concatenate([pa, da + pb]))
        assert len(combined) == len(perms_a) * ob
        return da + db, combined
    raise ValueError(f"no natural permutation action for group structure {structure!r}")


def _permutation_matrices(dim: int, perms: list[np.ndarray]) -> np.ndarray:
    mats = np.zeros((len(perms), dim, dim))
    cols = np.arange(dim)
    for g, p in enumerate(perms):
        mats[g, p, cols] = 1.0
    return mats


def _rotation_block_matrices(group: FiniteGroup, freqs: list[int]) -> np.ndarray:
    kind = group.structure[0]
    if kind not in ("cyclic", "so2_quadrature"):
        raise ValueError(f"rotation_block requires a cyclic or so2_quadrature group, got {group.name}")
    m = group.structure[1]
    dim = 2 * len(freqs)
    mats = np.zeros((m, dim, dim))
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
    require_orthogonal: bool = True,
) -> Representation:
    """Build a representation of ``group`` from a descriptor string.

    Descriptors: "natural_permutation", "trivial d", "rotation_block f1 f2 ...",
    "sign", "direct_sum <a> + <b> [+ ...]", or "explicit" with the
    ``matrices`` argument, an (order, d, d) array.  Orthogonality is
    enforced unless ``require_orthogonal=False``, in which case a
    non-orthogonal explicit representation is carried with
    ``is_orthogonal=False``.
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
        reps = [build_representation(group, p, require_orthogonal=require_orthogonal) for p in parts]
        dim = sum(r.dim for r in reps)
        mats = np.zeros((group.order, dim, dim))
        offset = 0
        for r in reps:
            mats[:, offset:offset + r.dim, offset:offset + r.dim] = r.matrices
            offset += r.dim
    elif head == "natural_permutation":
        if len(tokens) != 1:
            raise ValueError(f"natural_permutation takes no arguments, got {kind!r}")
        dim, perms = _natural_permutations(group.structure)
        mats = _permutation_matrices(dim, perms)
    elif head == "trivial":
        dim = _parse_positive_int(tokens[1], "trivial dim") if len(tokens) > 1 else 1
        mats = np.broadcast_to(np.eye(dim), (group.order, dim, dim)).copy()
    elif head == "rotation_block":
        if len(tokens) < 2:
            raise ValueError("rotation_block needs at least one frequency")
        freqs = [int(t) for t in tokens[1:]]
        if any(f < 0 for f in freqs):
            raise ValueError(f"rotation_block frequencies must be >= 0, got {freqs}")
        mats = _rotation_block_matrices(group, freqs)
        dim = mats.shape[1]
    elif head == "sign":
        if len(tokens) != 1:
            raise ValueError(f"sign takes no arguments, got {kind!r}")
        mats = _sign_matrices(group)
        dim = 1
    elif head == "explicit":
        if matrices is None:
            raise ValueError("explicit representation needs the matrices argument")
        mats = np.asarray(matrices, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"explicit matrices must have shape (order, d, d), got {mats.shape}")
        dim = mats.shape[1]
    else:
        raise ValueError(f"unknown representation kind {head!r}")

    return Representation(
        group=group,
        dim=dim,
        matrices=mats,
        name=text,
        is_orthogonal=require_orthogonal,
    )


def character(rep: Representation) -> np.ndarray:
    """chi(g) = trace of the matrix of g, as a vector over element ids."""
    return np.einsum("gii->g", rep.matrices)


def character_inner(rep1: Representation, rep2: Representation) -> float:
    """Haar-weighted inner product of the characters of two representations.

    Counts the dimension of the space of equivariant linear maps between
    them; a non-negative near-integer for exact finite groups.
    """
    if rep1.group is not rep2.group and not (
        rep1.group.structure == rep2.group.structure
        and np.array_equal(rep1.group.weights, rep2.group.weights)
    ):
        raise ValueError("representations live on different groups")
    return float(np.sum(rep1.group.weights * character(rep1) * character(rep2)))

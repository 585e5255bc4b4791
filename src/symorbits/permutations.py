"""Permutations of variable indices, finite permutation groups, and their
action on monomials and polynomials.

The action follows the convention that a permutation sends the variable
x_i to x_{sigma(i)}.  A group is its generators plus its order: n for C_n
(n > 2), read off a Schreier-Sims chain built from the generators
(``_order``) for a generated group, and None for S_n, C_1, C_2 and a
generated group of order n!, which marks them full symmetric; n! is
computed only when read, so no group is ever enumerated.
Every orbit (of indices, monomials, term supports, points, polynomials) is
the closure of a start set under the generators.  The images of a
polynomial are walked in one place, ``_image_codes``, as sorted int tuples
over a list of rows (monomials).  ``orbit`` walks G.f there;
``_orbit_size`` counts it by orbit-stabilizer, walking under S_N only the
product of the symmetric groups on the cells of a colour refinement of f's
variables, which holds f's stabilizer.  A walk is bounded by
``DEFAULT_GROUP_BOUND`` distinct images or points.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable, Iterable, Sequence

from .polynomials import Monomial, Polynomial, count_of_type
from .reports import check_deadline

DEFAULT_GROUP_BOUND = 50_000


def _closure(starts: Iterable, step: Callable[..., Iterable], bound: int | None = None,
             deadline: float | None = None) -> set:
    """Everything reachable from ``starts`` by repeated ``step``; raises
    ValueError once more than ``bound`` items per start are reached.
    ``deadline`` is checked once per item stepped."""
    reach = set(starts)
    todo = list(reach)
    limit = None if bound is None else bound * len(reach)
    while todo:
        check_deadline(deadline)
        for y in step(todo.pop()):
            if y not in reach:
                if limit is not None and len(reach) >= limit:
                    raise ValueError(f"enumeration exceeds bound {bound}")
                reach.add(y)
                todo.append(y)
    return reach


def _tuple_orbit(starts, generators: Sequence[Permutation], deadline: float | None) -> set:
    """The closure of the tuples ``starts`` under the generators, each
    moving the entry at position i to position sigma(i); refused past
    ``DEFAULT_GROUP_BOUND`` tuples per start; ``deadline`` is checked once
    per tuple."""
    return _closure(starts, lambda v: (g.act_monomial(v) for g in generators),
                    DEFAULT_GROUP_BOUND, deadline)


class Permutation:
    """A bijection of {1..N}, stored as a 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images} are not a bijection of 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse 1-based cycle notation, e.g. ``(1 2)(3 4)``; ``()`` is the identity."""
        images = list(range(n))
        body = text.strip()
        if not re.fullmatch(r"(\(\s*[\d\s,]*\))+", body):
            raise ValueError(f"malformed cycle notation {text!r}")
        seen: set[int] = set()
        for cycle_text in re.findall(r"\(([^)]*)\)", body):
            entries = [int(t) for t in re.split(r"[\s,]+", cycle_text.strip()) if t]
            if not entries:
                continue
            if any(not 1 <= e <= n for e in entries):
                raise ValueError(f"cycle entry out of range 1..{n} in {text!r}")
            if len(set(entries)) != len(entries) or seen & set(entries):
                raise ValueError(f"repeated entry in cycle notation {text!r}")
            seen.update(entries)
            for a, b in zip(entries, entries[1:] + entries[:1]):
                images[a - 1] = b - 1
        return cls(images)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """Swap the 1-based indices i and j."""
        images = list(range(n))
        images[i - 1], images[j - 1] = j - 1, i - 1
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of the 1-based index i."""
        return self.images[i - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        return Permutation(sorted(range(self.degree), key=self.images.__getitem__))

    def act_monomial(self, m: Monomial) -> Monomial:
        """Move the exponent at position i to position sigma(i)."""
        out = [0] * len(m)
        for i, e in enumerate(m):
            out[self.images[i]] = e
        return tuple(out)

    def act(self, f: Polynomial) -> Polynomial:
        """Apply the variable substitution x_i -> x_{sigma(i)} to f."""
        if f.nvars != self.degree:
            raise ValueError(f"permutation degree {self.degree} != nvars {f.nvars}")
        return f._make({self.act_monomial(m): c for m, c in f.terms.items()})

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based indices, each starting at its minimum."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            if len(cycle) > 1:
                out.append(tuple(i + 1 for i in cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles()) or "()"


class PermGroup:
    """A finite permutation group: its generators and its order.  ``order``
    None is the only mark of S_N, so every constructor passes None for a
    group of order N!; that order is computed when first read."""

    def __init__(
        self, degree: int, generators: Sequence[Permutation], order: int | None, descriptor: str
    ):
        self.degree = degree
        self.generators = tuple(generators)
        self.descriptor = descriptor
        self.is_full_symmetric = order is None
        if order is not None:
            self.order = order

    @functools.cached_property
    def order(self) -> int:
        return math.factorial(self.degree)

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n < 1:
            raise ValueError("degree must be >= 1")
        gens = []
        if n >= 2:
            gens.append(Permutation.transposition(n, 1, 2))
        if n >= 3:
            gens.append(Permutation(tuple(range(1, n)) + (0,)))
        return cls(n, gens or [Permutation.identity(n)], None, f"S{n}")

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        if n < 1:
            raise ValueError("degree must be >= 1")
        # C1 and C2 are S1 and S2
        return cls(n, [Permutation(tuple(range(1, n)) + (0,))], None if n <= 2 else n, f"C{n}")

    @classmethod
    def generated(cls, n: int, generators: Iterable[Permutation | str], *,
                  deadline: float | None = None) -> "PermGroup":
        """The group the generators (permutations or cycle notation)
        generate, its order from a Schreier-Sims chain (``_order``), marked
        S_N when that order is N!; ``deadline`` is checked once per sifted
        generator."""
        gens = [
            g if isinstance(g, Permutation) else Permutation.from_cycles(g, n)
            for g in generators
        ]
        if any(g.degree != n for g in gens):
            raise ValueError("generator degree mismatch")
        order = _order(n, [g.images for g in gens], deadline)
        if order == math.factorial(n):
            order = None
        return cls(n, gens, order, "gens:" + ",".join(repr(g) for g in gens))

    def __repr__(self) -> str:
        return f"PermGroup({self.descriptor}, order={self.order})"

    def transitive_on_variables(self) -> bool:
        """True iff the index action {1..N} has a single orbit."""
        reach = _closure([0], lambda i: (g.images[i] for g in self.generators))
        return len(reach) == self.degree

    def transitive_on_type(self, partition: Sequence[int], *,
                           deadline: float | None = None) -> bool:
        """True iff all monomials of the given type form a single orbit:
        S_N reaches every placement of the parts, and any other group
        iff the orbit of one monomial (``_tuple_orbit``, bounded as it is)
        has all ``count_of_type`` of them.  False when the type has more
        parts than there are variables."""
        count = count_of_type(partition, self.degree)
        if count == 0 or self.is_full_symmetric:
            return count > 0
        parts = sorted((e for e in partition if e > 0), reverse=True)
        start = tuple(parts) + (0,) * (self.degree - len(parts))
        return len(_tuple_orbit([start], self.generators, deadline)) == count


def _order(degree: int, generators: Sequence[tuple[int, ...]], deadline: float | None) -> int:
    """|G| for the group of the image tuples ``generators``, by deterministic
    Schreier-Sims (Sims 1970; Seress, Permutation Group Algorithms, 2003):
    a base b_0, b_1, ... and per level l the generators of a group G_l that
    fixes b_0..b_{l-1}, the orbit of b_l under them with a transversal
    element u (u[b_l] = point, stored with its inverse) per point, and the
    (point, generator) pairs not yet read.  A pair (beta, s) whose image
    gamma is new extends the orbit with u_beta * s; otherwise its Schreier
    generator u_beta * s * u_gamma^-1 is sifted through the levels below,
    and a nontrivial residue becomes a generator of every level from l + 1
    to the one where it stopped, a new level when it passed them all.  The
    deepest level with unread pairs is read first, and each pair is read
    once.  When none is left, the chain is a base and strong generating
    set, and |G| is the product of the orbit lengths.  ``deadline`` is
    checked once per sifted generator."""
    identity = tuple(range(degree))
    base, gens, orbits, unread = [], [], [], []

    def sift(h: tuple[int, ...], level: int) -> int:
        """Sift h from ``level``; make a nontrivial residue a generator of
        every level from there to where it stopped, and return that level,
        or -1 for none."""
        check_deadline(deadline)
        stop = level
        while stop < len(base) and (entry := orbits[stop].get(h[base[stop]])):
            h = tuple(map(entry[1].__getitem__, h))
            stop += 1
        if h == identity:
            return -1
        if stop == len(base):
            point = next(i for i in identity if h[i] != i)
            base.append(point)
            gens.append([])
            orbits.append({point: (identity, identity)})
            unread.append([])
        for lvl in range(level, stop + 1):
            gens[lvl].append(h)
            unread[lvl].extend((beta, h) for beta in orbits[lvl])
        return stop

    for g in generators:
        sift(g, 0)
    level = len(base) - 1
    while level >= 0:
        if not unread[level]:
            level -= 1
            continue
        beta, s = unread[level].pop()
        orbit_l = orbits[level]
        u, gamma = orbit_l[beta][0], s[beta]
        if gamma in orbit_l:
            inverse = orbit_l[gamma][1]
            level = max(level, sift(tuple(inverse[s[x]] for x in u), level + 1))
        else:
            us = tuple(map(s.__getitem__, u))
            orbit_l[gamma] = (us, tuple(sorted(identity, key=us.__getitem__)))
            unread[level].extend((gamma, t) for t in gens[level])
    return math.prod(len(o) for o in orbits)


def _row_perms(generators: Sequence[Permutation], rows: Sequence[Monomial]) -> list[list[int]]:
    """The generators as permutations of the positions of ``rows``, which
    they must map onto themselves."""
    pos = {m: i for i, m in enumerate(rows)}
    return [[pos[g.act_monomial(m)] for m in rows] for g in generators]


def _image_codes(f: Polynomial, generators: Sequence[Permutation],
                 deadline: float | None) -> tuple[list[Monomial], list, set]:
    """The orbit of f under the group the generators generate, coded over
    its rows, the closure of f's monomials: the rows, f's distinct
    coefficients in term order, and the set of distinct images, each the
    sorted tuple of codes k * len(rows) + i of its terms, i the term's row
    and k its coefficient's index.  Refused with ValueError past
    ``DEFAULT_GROUP_BOUND`` images, or past as many rows per term of f,
    since each row is a term of some image; ``deadline`` is checked once
    per row and once per image."""
    rows = list(_tuple_orbit(f.terms, generators, deadline))
    n = len(rows)
    pos = {m: i for i, m in enumerate(rows)}
    values = list(dict.fromkeys(f.terms.values()))
    start = tuple(sorted(values.index(c) * n + pos[m] for m, c in f.terms.items()))
    steps = [[k * n + r for k in range(len(values)) for r in perm].__getitem__
             for perm in _row_perms(generators, rows)]
    # an image keeps f's coefficients, so the action keeps its codes sorted
    # when no coefficient repeats
    canonical = tuple if len(values) == len(f.terms) else lambda codes: tuple(sorted(codes))
    images = _closure([start], lambda key: [canonical(map(step, key)) for step in steps],
                      DEFAULT_GROUP_BOUND, deadline)
    return rows, values, images


def _colour_cells(f: Polynomial) -> list[list[int]]:
    """The cells of the colour refinement of f's variables (McKay 1981),
    each the sorted list of its 0-based indices.  A variable's new colour
    is its old colour plus, for each term holding it, the coefficient, its
    exponent and the sorted (colour, exponent) pairs of the term's
    variables; colours are renumbered by sorting the distinct signatures,
    until their number stops growing.  No colour mentions a variable's
    name, so every sigma with sigma.f = f preserves them."""
    holding: list[list] = [[] for _ in range(f.nvars)]
    for m, c in f.terms.items():
        support = [(i, e) for i, e in enumerate(m) if e]
        for i, e in support:
            holding[i].append((c, e, support))
    colour, count = [0] * f.nvars, 1
    while True:
        signatures = [
            (colour[v], tuple(sorted(
                (c, e, tuple(sorted((colour[i], x) for i, x in support)))
                for c, e, support in holding[v])))
            for v in range(f.nvars)
        ]
        palette = {s: k for k, s in enumerate(sorted(set(signatures)))}
        colour = [palette[s] for s in signatures]
        if len(palette) == count:
            break
        count = len(palette)
    cells: dict[int, list[int]] = {}
    for v, k in enumerate(colour):
        cells.setdefault(k, []).append(v)
    return list(cells.values())


def _orbit_size(f: Polynomial, group: PermGroup, *, deadline: float | None) -> int:
    """|G.f| by orbit-stabilizer, as |G| * |K.f| / |K|, walking only K.f
    (``_image_codes``).  For the full symmetric group K is H, the product
    of the symmetric groups on the cells of ``_colour_cells``: the
    stabilizer of f preserves the colours, so it lies in H, and
    |G.f| / |H.f| = |G| / |H|, the multinomial of the cell sizes, taken
    as a product of binomials so that no factorial of N is computed.  H is
    generated by a transposition of two adjacent members and the cycle
    through each cell.  For any other group K is G.  Refused as
    ``_image_codes`` refuses; ``deadline`` is checked once per row and once
    per image of K.f."""
    if not group.is_full_symmetric:
        return len(_image_codes(f, group.generators, deadline)[2])
    generators, index, free = [], 1, f.nvars
    for cell in _colour_cells(f):
        index *= math.comb(free, len(cell))
        free -= len(cell)
        if len(cell) >= 2:
            generators.append(Permutation.transposition(f.nvars, cell[0] + 1, cell[1] + 1))
        if len(cell) >= 3:
            images = list(range(f.nvars))
            for a, b in zip(cell, cell[1:] + cell[:1]):
                images[a] = b
            generators.append(Permutation(images))
    return index * len(_image_codes(f, generators, deadline)[2])


def orbit(f: Polynomial, group: PermGroup, *,
          deadline: float | None = None) -> tuple[Polynomial, ...]:
    """The distinct images sigma.f, canonically ordered: the closure of f
    under the generators, walked on integer codes (``_image_codes``) over
    the closure of f's monomials, each image built as a ``Polynomial`` once
    at the end.  Refused with ValueError past ``DEFAULT_GROUP_BOUND``
    distinct images, or past as many monomials per term of f, since each
    monomial reached is a term of some image; ``deadline`` is checked once
    per monomial and once per image."""
    if f.nvars != group.degree:
        raise ValueError(f"permutation degree {group.degree} != nvars {f.nvars}")
    rows, values, images = _image_codes(f, group.generators, deadline)
    terms = [(m, c) for c in values for m in rows]  # the term each code stands for
    polys = (f._make(dict(map(terms.__getitem__, codes))) for codes in images)
    return tuple(sorted(polys, key=Polynomial.sort_key))

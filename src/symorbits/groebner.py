"""Groebner bases by a signature-based loop, with reduced bases, normal
forms, radical membership via one adjoined variable, and the
irrelevant-radical test.

The loop follows Faugère's F5 (*ISSAC* 2002) in the rewrite form surveyed
by Eder and Faugère (*J. Symb. Comp.* 2017).  The interreduced input f_i
gets the signature e_i, and signatures are compared in the Schreyer order:
t*e_i by t*lm(f_i) in the basis's monomial order, ties broken by i (the
larger i is the larger signature).  The signatures of S-pairs are processed
in increasing order:

- syzygy criterion: a signature is skipped when a known syzygy signature
  divides it.  The known ones are the Koszul signature
  max(lm(b)*sig(a), lm(a)*sig(b)) of every two elements (a pair with
  coprime leading monomials has exactly that signature, so this subsumes
  the product criterion) and every signature whose reduction gave 0;
- for a signature T the polynomial reduced is w*b, where b is the element
  with sig(b) | T that minimises lm(w*b) (the latest one on a tie);
- only divisors of smaller signature may reduce it, so the remainder has
  signature T.  Its first step is the S-polynomial of b and the first such
  divisor of lm(w*b);
- singular criterion: when no divisor of smaller signature divides
  lm(w*b), every reduction of w*b is a multiple of b of the same
  signature, and T is skipped.

Every nonzero remainder joins the basis.  For a regular sequence the Koszul
syzygies generate all syzygies; under a position-over-term order that
makes every zero reduction visible in advance, but under the Schreyer order
some leading terms of the syzygy module are not multiples of Koszul ones,
so a few signatures still reduce to zero there.  The Schreyer order is
used all the same: on orbit ideals with more generators than variables a
degree-then-position order reduced more signatures and kept more elements.

A signature t*e_i is one int, ``(t*lm(f_i) << shift) - i`` with 2^shift
above the number of inputs: a smaller int is a larger signature,
multiplying by a monomial u adds ``u << shift``, and sig(a) | sig(b)
exactly when the indices agree and the images t*lm(f_i) divide.  Known
syzygy signatures and the elements usable as rewriters are kept in one list
per index.

Every run is bounded by an optional wall-clock deadline, checked at every
popped signature, between the element reductions of interreduction and at
every heap pop inside one reduction (over QQ one pop can take a tenth of a
second once coefficients run to thousands of bits), and by a fixed guard of
``S_PAIR_BUDGET`` signatures reduced (each reduction adds at most one
element); exceeding either raises :class:`BudgetExceededError`, which is
distinct from any membership verdict.

Inside the kernel a monomial is one int (Monagan and Pearce, *Polynomial
division using dynamic arrays, heaps, and packed exponent vectors*, CASC
2007).  Each exponent has a field of ``width`` bits whose top bit is a
guard, always 0 in a valid monomial; for N variables the low N fields hold
the exponents D (lex: x1 most significant; grevlex: xN most significant),
and above them sits minus an order key K (lex: D itself; grevlex: the total
degree), so the packed monomial is ``D - (K << width*N)``.  Then
multiplication is addition, a divides b iff ``(b - a) & guards == 0`` (a
negative field borrows into its own guard bit), and a smaller int is a
larger monomial in both orders; the constant monomial is 0, the largest
int.  The width comes from the input: the largest total degree of the
generators (or of the polynomial being reduced) fits twice over, in at
least 7 value bits.  A product whose exponent outgrows its field sets a
guard bit, and every new term and signature image is checked; the
computation then restarts from its input at double the width, so no
overflow passes silently and the result never depends on the width.  Tuples appear only at the boundary:
packing the generators and the polynomial to reduce, and unpacking
the basis and the remainder.

Divisors are kept as one list of ``(lm, D, tail)`` entries (leading
monomial, leading coefficient, other terms), ascending by leading monomial
(so descending as ints) and updated by insertion, so no step re-sorts the
whole basis.  The kernel is fraction-free (Bareiss, *Math. Comp.* 1968,
applied to polynomial reduction).  Over QQ an entry is a primitive integer
polynomial with D > 0; reducing a term c*m by it multiplies the polynomial
being reduced by D / gcd(c, D) only when D does not divide c, so every
division is exact, and each new or interreduced element is divided by its
content.  Over GF(p) an entry is monic and residues are reduced mod p
inline.  Fractions appear only at the boundary: packing clears
denominators, the basis is unpacked monic, and a normal form is divided by
its input's denominator lcm times the factor its reduction accumulated, so
every result equals that of monic reduction over QQ.

For homogeneous generators the radical is (x1, ..., xN) exactly when
K[x]/I is finite-dimensional, which holds exactly when every variable has
a pure power among the leading monomials of a Groebner basis
(finiteness theorem; Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 5 §3).  :func:`radical_equals_irrelevant` reads its
verdict off one basis in the generators' own ring.
"""

from __future__ import annotations

import bisect
import heapq
import math
from fractions import Fraction
from time import monotonic
from typing import Sequence

from .fields import Field
from .polynomials import GREVLEX, LEX, Monomial, MonomialOrder, Polynomial
from .reports import BudgetExceededError, CertificateError, check_deadline

# the most signatures one basis computation reduces (skipped ones do not count)
S_PAIR_BUDGET = 1_000_000


class _Overflow(Exception):
    """An exponent outgrew its packed field: redo the work at double width."""


class _Packing:
    """Packed ints for the monomials of one order in ``nvars`` variables."""

    __slots__ = ("order", "lex", "nvars", "width", "top", "low", "guards", "limit", "mod", "shifts")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        if order not in (LEX, GREVLEX):
            raise ValueError(f"unsupported monomial order {order}")
        self.order = order
        self.lex = order == LEX
        self.nvars = nvars
        self.width = width
        self.top = width * nvars
        self.low = (1 << self.top) - 1
        self.guards = sum(1 << (width * i + width - 1) for i in range(nvars))
        self.limit = (1 << (width - 1)) - 1  # largest exponent; also the value-bit mask
        self.mod = (1 << width) - 1  # 2^width is 1 mod this, so a field's weight is 1
        fields = range(nvars - 1, -1, -1) if self.lex else range(nvars)
        self.shifts = tuple(width * i for i in fields)  # field of x1, ..., xN

    @classmethod
    def for_degree(cls, order: MonomialOrder, nvars: int, degree: int) -> "_Packing":
        return cls(order, nvars, max(7, (2 * degree).bit_length()) + 1)

    def wider(self) -> "_Packing":
        return _Packing(self.order, self.nvars, 2 * self.width)

    def pack(self, m: Monomial) -> int:
        if max(m) > self.limit:
            raise _Overflow
        d = 0
        for e, s in zip(m, self.shifts):
            d |= e << s
        return d - ((d if self.lex else sum(m)) << self.top)

    def unpack(self, p: int) -> Monomial:
        d, limit = p & self.low, self.limit
        return tuple(d >> s & limit for s in self.shifts)

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum: a guard survives (a | guards) - b exactly in
        the fields where a >= b, and no borrow crosses a field.  In grevlex
        its degree, the sum of its fields, is its value mod ``mod`` while
        deg a + deg b, which bounds it, is below ``mod``."""
        small = (a >> self.top) + (b >> self.top) > -self.mod  # grevlex: -deg a - deg b
        a &= self.low
        b &= self.low
        ge = ((a | self.guards) - b) & self.guards
        take_a = ge - (ge >> (self.width - 1))  # value bits of those fields
        d = a & take_a | b & ~take_a
        key = d if self.lex else d % self.mod if small else sum(self.unpack(d))
        return d - (key << self.top)

    def integer_terms(self, f: Polynomial) -> tuple[dict[int, int], int]:
        """f's packed terms times the lcm of its denominators (1 over
        GF(p), where the terms are residues), and that lcm."""
        if f.field.p:
            return {self.pack(m): c for m, c in f.terms.items()}, 1
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        return {self.pack(m): c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den

    def entries(self, polys: Sequence[Polynomial]) -> list:
        """Entries of nonzero polynomials, ascending by leading monomial."""
        return sorted((_entry(self.integer_terms(g)[0], g.field.p) for g in polys), key=_rank)

    def polynomial(self, field: Field, entry) -> Polynomial:
        """The monic polynomial of an entry."""
        lm, d, tail = entry
        if field.p:
            terms = {self.unpack(m): c for m, c in tail}
        else:
            terms = {self.unpack(m): Fraction(c, d) for m, c in tail}
        terms[self.unpack(lm)] = field.one
        return Polynomial.zero(field, self.nvars)._make(terms)  # already valid


def _rank(entry) -> int:
    """Sort key of an entry, ascending in its leading monomial."""
    return -entry[0]


def _entry(terms: dict[int, int], p: int | None) -> tuple[int, int, list]:
    """The entry of a nonzero packed term dict, whose leading term it pops:
    monic over GF(p); over QQ divided by its content, with D > 0."""
    lm = min(terms)
    d = terms.pop(lm)
    if p:
        inv = pow(d, p - 2, p)
        return lm, 1, [(m, c * inv % p) for m, c in terms.items()]
    g = math.gcd(d, *terms.values()) * (1 if d > 0 else -1)
    return lm, d // g, [(m, c // g) for m, c in terms.items()]


def _reduce_terms(
    terms: dict[int, int],
    basis: list[tuple[int, int, list]],
    guards: int,
    field: Field,
    deadline: float | None = None,
    scale: list[int] | None = None,
    below: tuple[int, int, dict[int, int]] | None = None,
) -> dict[int, int]:
    """Remainder of the packed term dict (integers over QQ, residues over
    GF(p)) modulo the (lm, D, tail) divisors, each term divided by the
    first divisor in list order.  Over QQ a term c*m whose divisor's D does
    not divide c first multiplies everything by D / gcd(c, D); the product
    of these factors goes to ``scale[0]`` when ``scale`` is given.

    With ``below = (sig, shift, sig_of)`` a divisor with leading monomial
    lm may divide m only when the signature of (m/lm) times it, the int
    ``(m << shift) + sig_of[lm]``, is smaller than ``sig`` (a larger int):
    the signature-safe reduction of the signature loop."""
    p = field.p
    if below is not None:
        bound, shift, sig_of = below
    work = dict(terms)
    remainder: dict[int, int] = {}
    total = 1
    heap = list(work)
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        m = pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        if deadline is not None and monotonic() > deadline:
            raise BudgetExceededError("wall-clock budget exceeded")
        for lm, d, tail in basis:
            q = m - lm
            if not q & guards:
                if below is not None and (m << shift) + sig_of[lm] <= bound:
                    continue
                if d != 1:
                    g = math.gcd(c, d)
                    if g != d:
                        s = d // g
                        total *= s
                        work = {k: v * s for k, v in work.items()}
                        remainder = {k: v * s for k, v in remainder.items()}
                    c //= g
                for tm, tc in tail:
                    nm = tm + q
                    if nm & guards:
                        raise _Overflow
                    acc = work.get(nm, 0) - c * tc
                    if p:
                        acc %= p
                    if acc:
                        if nm not in work:
                            push(heap, nm)
                        work[nm] = acc
                    else:
                        work.pop(nm, None)
                break
        else:
            remainder[m] = c
    if scale is not None:
        scale[0] = total
    return remainder


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no term of one divisible
    by the leading term of another, deterministic ascending order."""

    def __init__(
        self,
        order: MonomialOrder,
        field: Field,
        basis: Sequence[Polynomial],
        source_generators: Sequence[Polynomial],
    ):
        self.order = order
        self.field = field
        self.basis = tuple(basis)
        self.source_generators = tuple(source_generators)
        self.nvars = basis[0].nvars if basis else (
            source_generators[0].nvars if source_generators else 0
        )
        self._packed = None  # (packing, entries), made on first use

    def _pack(self, packing: _Packing):
        # one attribute, so that a reader never pairs a packing with entries
        # packed at another width
        self._packed = (packing, packing.entries(self.basis))

    def _widening(self, work):
        """work(packing, entries) at the basis's packing, made on first use
        and repacked at double width while some exponent outgrows its field."""
        if self._packed is None:
            degree = max((g.total_degree() for g in self.basis), default=0)
            self._pack(_Packing.for_degree(self.order, self.nvars, degree))
        while True:
            packing, data = self._packed
            try:
                return work(packing, data)
            except _Overflow:
                self._pack(packing.wider())

    def __iter__(self):
        return iter(self.basis)

    def __len__(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"GroebnerBasis({self.order}, {self.field}, {len(self.basis)} elements)"

    @property
    def is_unit_ideal(self) -> bool:
        return any(g.is_constant and not g.is_zero for g in self.basis)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.field != self.field or (self.basis and f.nvars != self.nvars):
            raise ValueError("polynomial incompatible with basis")
        if not self.basis:
            return f._make(dict(f.terms))

        def reduce(packing, data):
            terms, den = packing.integer_terms(f)
            scale = [1]
            reduced = _reduce_terms(terms, data, packing.guards, self.field, scale=scale)
            if self.field.p:
                return {packing.unpack(m): c for m, c in reduced.items()}
            den *= scale[0]
            return {packing.unpack(m): Fraction(c, den) for m, c in reduced.items()}

        return f._make(self._widening(reduce))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def verify(self) -> None:
        """Raise :class:`CertificateError` unless every S-polynomial of two
        basis elements and every source generator reduces to 0 modulo the
        basis: then the basis is a Groebner basis of an ideal that contains
        the source ideal.  That each element lies in the source ideal holds
        by construction and is not re-checked here."""

        def check_spairs(packing, data):
            guards = packing.guards
            for j, (lm, _, _) in enumerate(data):
                for other in data[:j]:
                    s = _spoly_terms(other, data[j], packing.lcm(other[0], lm), guards, self.field)
                    if _reduce_terms(s, data, guards, self.field):
                        raise CertificateError(
                            f"the S-polynomial of the elements led by {packing.unpack(other[0])}"
                            f" and {packing.unpack(lm)} does not reduce to 0"
                        )

        self._widening(check_spairs)
        for g in self.source_generators:
            if not self.contains(g):
                raise CertificateError(f"source generator {g!r} does not reduce to 0")


def buchberger(
    generators: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    *,
    deadline: float | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    ``deadline`` is an absolute ``time.monotonic()`` instant, checked at
    every popped signature, between the element reductions of
    interreduction and at every heap pop inside one reduction.  Running
    past it, or past the fixed guard of ``S_PAIR_BUDGET`` reduced
    signatures, raises :class:`BudgetExceededError`.
    """
    gens = [g for g in generators if not g.is_zero]
    if not generators:
        raise ValueError("generator list must be nonempty")
    field = generators[0].field
    nvars = generators[0].nvars
    for g in generators:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators must share field and variable count")
    if not gens:
        return GroebnerBasis(order, field, [], generators)

    packing = _Packing.for_degree(order, nvars, max(g.total_degree() for g in gens))
    while True:
        try:
            data = _groebner(packing.entries(gens), packing, field, deadline)
            break
        except _Overflow:
            packing = packing.wider()
    gb = GroebnerBasis(order, field, [packing.polynomial(field, e) for e in data], generators)
    gb._packed = (packing, data)
    return gb


def _groebner(data: list, packing: _Packing, field: Field, deadline: float | None):
    """Reduced basis entries of the ideal of the sorted entries; the
    constant entry alone for the unit ideal."""
    guards = packing.guards
    budget = S_PAIR_BUDGET
    _interreduce(data, guards, field, deadline)
    # signature t*e_i is the int (t*lm(f_i) << shift) - i: a smaller int is a
    # larger signature, and multiplying by a monomial u adds u << shift
    shift = len(data).bit_length()
    mask = (1 << shift) - 1
    lcm_of = packing.lcm
    elems: list = []  # (signature, lm), in the order added
    sig_of: dict[int, int] = {}  # lm -> signature of the element minus lm << shift
    by_index: list[list] = [[] for _ in data]  # per index: (image, lm, entry)
    syzygies: list[list] = [[] for _ in data]  # per index: images of syzygy signatures
    queue: list[int] = []  # negated signatures, so the smallest pops first
    push, pop = heapq.heappush, heapq.heappop

    def syzygy_divides(image: int, index: int) -> bool:
        for s in syzygies[index]:
            if not (image - s) & guards:
                return True
        return False

    def add(sig: int, entry) -> None:
        """Record an element; queue its S-pairs and note its Koszul syzygies."""
        lm = entry[0]
        index = -sig & mask
        by_index[index].append(((sig + index) >> shift, lm, entry))
        lm_sig = lm << shift
        sig_of[lm] = sig - lm_sig
        for other_sig, olm in elems:
            # Koszul: max(lm(b) sig(a), lm(a) sig(b)) unless the two coincide
            a, b = sig + (olm << shift), other_sig + lm_sig
            if a != b:
                s = a if a < b else b
                k = -s & mask
                s = (s + k) >> shift
                if s & guards:
                    raise _Overflow
                syzygies[k].append(s)
            lcm = lcm_of(lm, olm)
            if lcm == lm + olm:  # coprime: the pair's signature is the Koszul one
                continue
            # the larger of the two signatures; equal ones make a singular
            # pair, never reduced.  Its image is checked when it is popped
            a, b = sig + ((lcm - lm) << shift), other_sig + ((lcm - olm) << shift)
            if a != b:
                push(queue, -(a if a < b else b))
        elems.append((sig, lm))

    for i, entry in enumerate(data):
        add((entry[0] << shift) - i, entry)
    reductions = 0
    last = None
    while queue:
        sig = -pop(queue)
        if sig == last:
            continue
        last = sig
        check_deadline(deadline)
        index = -sig & mask
        image = (sig + index) >> shift
        if image & guards:
            raise _Overflow
        if syzygy_divides(image, index):
            continue
        # the rewriter: the element b with sig(b) | sig minimising lm(w*b),
        # the latest on a tie
        best = None
        for b_image, b_lm, b in by_index[index]:
            if not (image - b_image) & guards and (best is None or b_lm - b_image >= best):
                best, w, rewriter = b_lm - b_image, image - b_image, b
        top = rewriter[0] + w
        if top & guards:
            raise _Overflow
        # singular criterion: unless an element of smaller signature divides
        # lm(w*b), w*b reduces to a multiple of b of this very signature
        top_sig = top << shift
        for reducer in data:
            lm = reducer[0]
            if not (top - lm) & guards and top_sig + sig_of[lm] > sig:
                break
        else:
            continue
        reductions += 1
        if reductions > budget:
            raise BudgetExceededError(f"S-pair budget of {budget} exceeded")
        terms = _spoly_terms(rewriter, reducer, top, guards, field)
        remainder = _reduce_terms(terms, data, guards, field, deadline, below=(sig, shift, sig_of))
        if not remainder:
            syzygies[index].append(image)
            continue
        if min(remainder) == 0:  # a constant: the unit ideal
            return [(0, 1, [])]
        entry = _entry(remainder, field.p)
        bisect.insort(data, entry, key=_rank)
        add(sig, entry)

    return _reduce_basis(data, guards, field, deadline)


def _spoly_terms(gi, gj, lcm: int, guards: int, field: Field) -> dict[int, int]:
    """S-polynomial (D_j/g)(lcm/lm_i) g_i - (D_i/g)(lcm/lm_j) g_j of two
    entries, g = gcd(D_i, D_j), for any common multiple ``lcm`` of their
    leading monomials, as a packed term dict; the leading terms cancel, so
    only the tails are multiplied out."""
    p = field.p
    g = math.gcd(gi[1], gj[1])
    out: dict[int, int] = {}
    for (lm, _, tail), factor in ((gi, gj[1] // g), (gj, -(gi[1] // g))):
        u = lcm - lm
        for m, c in tail:
            nm = m + u
            if nm & guards:
                raise _Overflow
            acc = out.get(nm, 0) + factor * c
            if p:
                acc %= p
            if acc:
                out[nm] = acc
            else:
                out.pop(nm, None)
    return out


def _interreduce(data: list, guards: int, field: Field, deadline: float | None):
    """Reduce each entry of the sorted list modulo the others, in place,
    until no leading monomial changes; entries that reduce to zero drop out.

    Whether an element is reduced depends only on the other leading
    monomials, so a pass that changes none of them is the last.  A reduced
    element never gets a larger leading monomial, so it goes back in at or
    before its old position and the pass goes on with the next entry.
    """
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(data):
            check_deadline(deadline)
            lm, d, tail = data.pop(i)  # the others are the list without it
            terms = dict(tail)
            terms[lm] = d
            remainder = _reduce_terms(terms, data, guards, field, deadline)
            if not remainder:
                continue
            entry = _entry(remainder, field.p)
            if entry[0] == lm:
                data.insert(i, entry)
            else:
                changed = True
                bisect.insort(data, entry, key=_rank)
            i += 1
    return data


def _reduce_basis(data: list, guards: int, field: Field, deadline: float | None):
    """The reduced basis, as sorted entries, of a Groebner basis given as
    sorted entries."""
    # minimalize: drop elements whose leading monomial a smaller one divides
    minimal: list = []
    for entry in data:
        if all((entry[0] - e[0]) & guards for e in minimal):
            minimal.append(entry)
    return _interreduce(minimal, guards, field, deadline)


def radical_member(
    f: Polynomial,
    generators: Sequence[Polynomial],
    *,
    deadline: float | None = None,
) -> bool:
    """True iff some power of f lies in the generated ideal.

    Adjoins one fresh variable t (appended last) and tests whether 1 lies
    in (generators, 1 - t*f); membership of 1 is order-independent, so the
    extended computation runs in grevlex.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    nvars = generators[0].nvars
    if f.nvars != nvars:
        raise ValueError("variable count mismatch")
    ext = [g.extend(nvars + 1) for g in generators]
    t = Polynomial.variable(f.field, nvars + 1, nvars + 1)
    ext.append(Polynomial.constant(f.field, nvars + 1, 1) - t * f.extend(nvars + 1))
    gb = buchberger(ext, GREVLEX, deadline=deadline)
    return gb.is_unit_ideal


def radical_equals_irrelevant(
    generators: Sequence[Polynomial],
    *,
    deadline: float | None = None,
) -> bool:
    """True iff the radical of the generated ideal is (x1, ..., xN).

    Requires homogeneous generators of positive degree, for which the
    radical lies in the irrelevant ideal automatically; equality then holds
    iff K[x]/I is finite-dimensional, that is iff every variable has a pure
    power among the leading monomials of one grevlex Groebner basis.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    for g in generators:
        if g.is_zero or not g.is_homogeneous() or g.total_degree() < 1:
            raise ValueError("generators must be homogeneous of positive degree")
    gb = buchberger(generators, GREVLEX, deadline=deadline)
    powers = set()
    for g in gb.basis:
        support = [i for i, e in enumerate(g.leading_monomial(GREVLEX)) if e]
        if len(support) == 1:
            powers.add(support[0])
    return len(powers) == gb.nvars

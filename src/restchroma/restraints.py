"""Restraints: per-vertex forbidden colour sets, a tuple of frozensets.

Covers the named constructions (constant, alternating), a restraint's
fit to its graph (check_fit, which every function that takes a graph and
a restraint calls first), properness, the equivalence relation (graph
automorphism composed with a bijective colour renaming), canonical class
representatives, and exhaustive enumeration of k-restraints up to
equivalence.

Classes are colour incidence masks (one vertex bitmask per colour) from
generation on, listed as canons by enumerate_k_restraints only; a
RestraintClass or Restraint is built from one only on demand, and a class
id is rendered from its canon (render_id, which RestraintClass.class_id
calls), decoded (id_masks) and checked (RestraintClass.from_id) only here.
Canonicalisation goes through _orbit_blocks, the set of sorted mask
tuples of a restraint's automorphic images, whose minimum is the canon,
and so does enumeration on a group of order above 2: it marks a new
class's whole orbit as seen, so each class is found once.  On a graph with
a trivial group the enumeration skips them: each colour class is then one
class, and its sorted masks its canon.  On a group {id, t} of order 2 it
keeps a colour class iff its sorted masks are at most those of its image
under t, one image per visit, with no orbit and no seen set.  The group is
never listed for the orbits: the stabilizer chain's levels are multiplied,
from the first, into blocks of at most ORBIT_BLOCK elements, and an orbit
is expanded one block at a time, the block of the last levels first, its
sorted images deduplicated between blocks.  Images are computed a whole
block at a time: each vertex has a column of its image bits, one per
element but the identity, and a mask's row is its lowest bit's column ORed
onto the row of the rest.

The enumeration walks one sorted form per colour class
(_normal_form_masks), one colour slot of a vertex at a time over immutable
mask tuples: a slot joins one old colour or fills the vertex's remaining
slots with fresh ones.  The walk keeps each form's masks sorted, so it hands
over each colour class as its sorted mask tuple and nothing sorts a form
again.  Equal masks in a form are always contiguous, and a vertex joins
only a prefix of each run of them, so each colour class is visited once and
the walk's work is proportional to its visits.  FORMS_BUDGET is checked
against normal_form_count, which counts the first-use normal forms without
that rule: the walk makes the same choices, so that count bounds its visits
from above.  The walk takes an optional per-vertex filter on what a slot
may join, which enumerate_k_restraints passes on: so the theorem search
lists only the proper classes.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, prod
from operator import or_
from typing import Iterable, NamedTuple

from .graphs import CapError, Graph, ParseError, level_products, quote_input

FORMS_BUDGET = 3_000_000
# most elements a block of the stabilizer chain lists for the class orbits
# (_orbit_blocks).  Of 16, 24, 32, 48, 64 and 128, 24 and 32 enumerated the
# bench's symmetric graphs fastest, over 12 relabellings in process (medians
# of three sweeps: 6.6 and 6.5 ms a pass, against 7.1 at 16, 6.8 at 48, 6.7
# at 64 and 7.8 at 128, and 7.2 for blocks grouped from the last level at
# 64).  48 and 64 were 12% faster than 32 on K7 at k = 2 (0.75 against
# 0.85 s); at 32, K3,7 at k = 1 and K2,5 and K3,4 at k = 2 were within 8%
# of their fastest
ORBIT_BLOCK = 32
# most masks of a class whose id render_id renders by concatenation
_SHORT_ID = 64


class Restraint(tuple):
    """The tuple of forbidden colour sets, one frozenset per vertex."""

    __slots__ = ()

    def __new__(cls, sets: Iterable[Iterable[int]]):
        norm = []
        for s in sets:
            s = tuple(s)
            if not all(type(c) is int and c > 0 for c in s):
                raise ValueError("colours must be positive integers")
            norm.append(frozenset(s))
        return super().__new__(cls, norm)

    def __repr__(self) -> str:
        return f"Restraint({render_restraint(self)!r})"

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self)

    def m_value(self) -> int:
        """Largest forbidden colour anywhere; 0 when every set is empty."""
        top = 0
        for s in self:
            if s:
                top = max(top, max(s))
        return top


def empty_restraint(g: Graph) -> Restraint:
    return Restraint([()] * g.n)


def constant_restraint(g: Graph, k: int) -> Restraint:
    """Forbid {1..k} at every vertex."""
    if k < 1:
        raise ValueError("k must be at least 1")
    block = tuple(range(1, k + 1))
    return Restraint([block] * g.n)


def alternating_restraint(g: Graph, k: int) -> Restraint:
    """Forbid {1..k} on one side of a bipartition and {k+1..2k} on the other.

    Requires a connected bipartite graph.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    parts = g.bipartition()
    if parts is None:
        raise ValueError("graph is not bipartite")
    v1, v2 = parts
    low = tuple(range(1, k + 1))
    high = tuple(range(k + 1, 2 * k + 1))
    sets: list[tuple[int, ...]] = [()] * g.n
    for v in v1:
        sets[v] = low
    for v in v2:
        sets[v] = high
    return Restraint(sets)


def check_fit(g: Graph, r: Restraint) -> None:
    """Raise ValueError unless r has one set per vertex of g."""
    if len(r) != g.n:
        raise ValueError(f"restraint has {len(r)} sets for a graph on {g.n} vertices")


def is_proper(g: Graph, r: Restraint) -> bool:
    """True iff adjacent vertices have disjoint forbidden sets."""
    check_fit(g, r)
    return all(not (r[u] & r[v]) for u, v in g.edges)


# -- literal / JSON syntax -----------------------------------------------------


def render_restraint(sets: Iterable[Iterable[int]]) -> str:
    """Literal form '[{1},{2},{1,3}]' with colours ascending, of a Restraint
    or any sequence of colour sets."""
    parts = ["{" + ",".join(str(c) for c in sorted(s)) + "}" for s in sets]
    return "[" + ",".join(parts) + "]"


def parse_restraint(text: str) -> Restraint:
    """Parse the literal syntax '[{1},{2},{1,3}]' or JSON '[[1],[2],[1,3]]'.

    The literal is JSON with braces in place of the inner brackets, so
    both forms go through one json.loads once braces become brackets.
    """
    s = text.strip()
    if not s.startswith("["):
        raise ParseError(f"restraint must look like [{{1}},{{2}}] or [[1],[2]], got {quote_input(text)}")
    try:
        data = json.loads(s.replace("{", "[").replace("}", "]"))
        if not all(isinstance(item, list) for item in data):
            raise ValueError("expected a list of colour sets")
        return Restraint(data)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad restraint {quote_input(text)}: {exc}") from exc


# -- equivalence classes ------------------------------------------------------------


class RestraintClass(NamedTuple):
    """Canonical representative of a restraint-equivalence class on n vertices.

    canon is the minimum, over the automorphism group, of the sorted tuple
    of colour incidence bitmasks (bit v set when the colour is forbidden at
    vertex v).  Two restraints are equivalent exactly when their canons
    coincide, because a colour bijection preserves the incidence multiset
    and an automorphism permutes the vertex bits.  The representative
    forbids colour j + 1 wherever canon[j] has its bit.
    """

    canon: tuple[int, ...]
    n: int

    @property
    def representative(self) -> Restraint:
        sets: list[list[int]] = [[] for _ in range(self.n)]
        for colour, mask in enumerate(self.canon, 1):
            for v in _mask_vertices(mask):
                sets[v].append(colour)
        return Restraint(sets)

    def class_id(self) -> str:
        """render_restraint(self.representative), rendered by render_id."""
        return render_id(self.canon, self.n)

    @classmethod
    def from_id(cls, cid: str, n: int) -> RestraintClass:
        """The class on n vertices whose id is cid, built from the id's sorted
        masks (id_masks) with no orbit computed.  Raises ValueError unless
        that class's id is cid, so an id in other colour labels, with another
        number of vertex sets, or that is not an id at all is refused; the
        largest mask is checked against n first, since render_id indexes the
        vertices of every mask."""
        canon = tuple(sorted(id_masks(cid)))
        decoded = cls(canon, n)
        if canon and canon[-1] >> n or decoded.class_id() != cid:
            raise ValueError("a decoded id is not the class id of its masks")
        return decoded


def render_id(canon: tuple[int, ...], n: int) -> str:
    """The id of the class on n vertices whose canon is canon:
    render_restraint(RestraintClass(canon, n).representative), built as
    the masks are scanned, with no RestraintClass built.  Each vertex gets
    the cached label of every mask that holds it (_labels), in mask order
    and so ascending, comma-separated, and the vertices' strings are joined
    once; a class on 0 vertices reads "[]".  A vertex holds at most one
    label per mask.  So with at most _SHORT_ID masks, as every class of a
    k-restraint with k * n <= _SHORT_ID has, each vertex's string grows by
    concatenation, which copies fewer than _SHORT_ID labels a time.  With
    more, each vertex collects its labels in a list, joined once, so the
    time stays linear in the labels written: concatenation alone took 4.5 s
    for 100,000 labels on one vertex, and a list per vertex is 16-73%
    slower on small classes."""
    if not n:
        return "[]"
    labelled = zip(_labels(len(canon)), canon)
    if len(canon) <= _SHORT_ID:
        sets = [""] * n
        for label, mask in labelled:
            for v in _mask_vertices(mask):
                s = sets[v]
                sets[v] = f"{s},{label}" if s else label
    else:
        lists = [[] for _ in range(n)]
        for label, mask in labelled:
            for v in _mask_vertices(mask):
                lists[v].append(label)
        sets = map(",".join, lists)
    return "[{" + "},{".join(sets) + "}]"


def id_masks(cid: str) -> list[int]:
    """The colour masks of a class id (the inverse of render_id; "[]" has
    none), in no set order.  The id is not checked: that is
    RestraintClass.from_id."""
    return incidence_masks(s.split(",") if s else () for s in cid[2:-2].split("},{"))


@lru_cache(maxsize=1 << 16)
def _mask_vertices(mask: int) -> tuple[int, ...]:
    """The vertices whose bits mask has, lowest first.  Every class of a
    graph draws its masks from the same few, so each is expanded once; the
    bound keeps a long process on many large graphs from growing it without
    limit."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vertices)


@lru_cache(maxsize=None)
def _labels(count: int) -> tuple[str, ...]:
    """The colour labels "1".."count" of class ids, one entry per count."""
    return tuple(map(str, range(1, count + 1)))


def _orbit_blocks(g: Graph):
    """Return orbit(masks), the set of sorted mask tuples of a restraint's
    images under g's automorphisms (sorting is what renames the colours),
    from its masks as a sorted tuple, which the orbit holds.  On a group of
    order above 2 the enumeration calls orbit once per class found, on the
    first sorted form of it that the walk visits: one form per colour
    class, and at most normal_form_count of them.

    The group is read from g.stabilizer_chain() and never listed whole.  Its
    levels with more than the identity are multiplied into blocks from the
    first one forward, T_0, T_1, ...: a block is the level_products of as
    many consecutive levels as keep it within ORBIT_BLOCK elements (a level
    larger than that is a block alone).  Every automorphism is then one
    element of each block composed in chain order, and the block of the
    last levels acts first.  So orbit takes the seed's images under the last
    block, their images under the block before it, and so on.  The levels
    left over when the blocks fill up are thus the last ones, and their
    block acts on the seed alone, where a small block acting last would
    sort every form the others gave again for few new images: K3,4's
    levels of 3, 2, 4, 3 and 2 elements give blocks of 6 and then 24
    elements.  The set of sorted images is taken after each block, so a
    form that many elements give is expanded once by the next block, and
    within a block equal unsorted images are merged before sorting.  A
    group of order at most ORBIT_BLOCK is one block, each image of the seed
    under one listed element; a trivial group has none, and the orbit is
    the seed alone.

    Each block keeps one row per mask, its images under each of the block's
    elements but the identity: the identity's image of a form is the form,
    so a block's sorted images are the forms it was given and the sorted
    rows' images.  A mask's row is the row of its lowest bit, that vertex's
    column, ORed entrywise onto the row of its other bits.  Rows are built
    on first use (_Rows) and memoised for the life of the returned
    function, so each mask is expanded once per block.
    """
    levels = [level for level in g.stabilizer_chain() if len(level) > 1]
    blocks = []
    while levels:
        end, size = 1, len(levels[0])
        while end < len(levels) and size * len(levels[end]) <= ORBIT_BLOCK:
            size *= len(levels[end])
            end += 1
        blocks.insert(0, level_products(levels[:end], g.n))
        del levels[:end]
    bits = [1 << v for v in range(g.n)]
    # a single-bit mask's row is its vertex's column; block[0] is the
    # identity, as every level lists it first
    tables = [_Rows({bits[v]: [bits[p[v]] for p in block[1:]] for v in range(g.n)}) for block in blocks]

    def orbit(masks):
        forms = {masks}
        for rows in tables:
            images = set()
            for form in forms:
                images.update(zip(*map(rows.__getitem__, form)))
            forms.update(map(tuple, map(sorted, images)))
        return forms

    return orbit


class _Rows(dict):
    """One block's rows, mask -> its images under the block's elements but
    the identity, holding the single-bit masks' rows from the start; a
    missing row is built from two rows, so a form's rows are fetched by a
    C-level map over rows.__getitem__."""

    __slots__ = ()

    def __missing__(self, mask: int) -> list[int]:
        low = mask & -mask
        row = self[mask] = list(map(or_, self[mask ^ low], self[low]))
        return row


class _Image(dict):
    """mask -> its image under one automorphism, holding the single-bit
    masks' images from the start; a missing image is built from two, as
    _Rows builds rows."""

    __slots__ = ()

    def __missing__(self, mask: int) -> int:
        low = mask & -mask
        image = self[mask] = self[mask ^ low] | self[low]
        return image


def canonicalize(g: Graph, r: Restraint) -> RestraintClass:
    """Canonical class of a restraint under automorphism x colour bijection.

    Its orbit holds at most |Aut| forms, so a group whose order (the product
    of the stabilizer chain's level sizes) passes FORMS_BUDGET raises
    CapError before any orbit is expanded."""
    check_fit(g, r)
    order = prod(map(len, g.stabilizer_chain()))
    if order > FORMS_BUDGET:
        raise CapError(f"normal-form budget exceeded (group of order {order} > {FORMS_BUDGET}, n={g.n})")
    return RestraintClass(min(_orbit_blocks(g)(tuple(sorted(incidence_masks(r))))), g.n)


def incidence_masks(sets: Iterable[Iterable]) -> list[int]:
    """One vertex bitmask per colour of a Restraint or any sequence of colour
    sets (bit v set when the colour is in set v), in no set order."""
    masks: dict = {}
    for v, s in enumerate(sets):
        for c in s:
            masks[c] = masks.get(c, 0) | 1 << v
    return list(masks.values())


def _normal_form_masks(n: int, k: int, visit, avoid=None) -> None:
    """Call visit(masks) once for each colour class of k-restraints on n
    vertices, with masks the class's incidence masks as a sorted tuple; with
    per-vertex masks avoid, only for the colour classes that pass its
    filter.

    Scanning vertices 0..n-1, vertex v fills its k colour slots one at a
    time: a slot either joins one colour used before v (ORs bit v into its
    mask), later in the old order than the slot before it joined, or fills
    all of v's remaining slots with fresh colours (masks 1 << v).  Joins are
    tried before fresh colours.  The tuple stays sorted: the masks that v
    has not joined keep their order, v's fresh colours come next, and the
    masks that v joined come last, in their old order.  Before v every mask
    is below 1 << v, and a joined mask now holds bit v, the highest bit so
    far, above 1 << v.  Equal masks are therefore contiguous, and they are
    interchangeable, so of each run of equal masks vertex v joins only a
    prefix: a slot joins a mask only when it is the first mask the slot may
    join or differs from the mask before it.  Every colour class (multiset
    of masks) is then visited exactly once.  Each child is one new tuple,
    and every choice a slot makes leads to at least one visit, so nothing is
    built and then thrown away: the walk's work is proportional to its
    visits, up to the n * k slots and the length of a form.  These are the
    choices of the first-use normal forms, with the joined masks moved, so
    normal_form_count, which counts those forms without the prefix rule,
    bounds the visits from above.

    The filter: a slot of v may join a mask only when not mask & avoid[v].
    A mask that v may join holds only vertices before v, all placed, so the
    test reads the finished class's colour on the edges from v back.
    Avoiding v's neighbours visits the proper classes.  That property is
    prefix-closed: a class has it exactly when each of its restrictions to
    vertices 0..v has it, which is what the test at v adds.  So a choice
    the filter refuses leads only to improper classes, every proper class
    passes each test on its way and is still visited once, and the walk
    visits nothing else.  Fresh colours pass every filter, so every choice
    still leads to a visit and the work stays proportional to the visits.
    The filter selects a slot's joinable masks once, before its loop, and a
    run of equal masks passes or fails whole, so the prefix rule is
    unchanged.
    """
    if not n:
        visit(())
        return
    last = n - 1

    def rec(v: int, masks: tuple[int, ...], start: int, free: int) -> None:
        # fill one of vertex v's free slots; the k - free masks that v has
        # joined sit at the end of masks, and start is where the mask after
        # the one v's previous slot joined now sits, or 0 at its first slot.
        # The last vertex visits its children itself: a call per visit saved
        # is about a quarter of the walk's time at (11, 1).
        bit = 1 << v
        end = len(masks) - k + free
        prev = 0  # no mask is 0, so the first mask the slot may join passes
        if avoid is None:
            joins = range(start, end)
        else:
            joins = _joinable(masks, start, end, avoid[v])
        for j in joins:
            mask = masks[j]
            if mask != prev:
                prev = mask
                child = masks[:j] + masks[j + 1:] + (mask | bit,)
                if free > 1:
                    rec(v, child, j, free - 1)
                elif v == last:
                    visit(child)
                else:
                    rec(v + 1, child, 0, k)
        child = masks[:end] + (bit,) * free + masks[end:]
        if v == last:
            visit(child)
        else:
            rec(v + 1, child, 0, k)

    rec(0, (), 0, k)
    del rec  # rec holds itself and visit, which only the cyclic collector would free


def _joinable(masks: tuple[int, ...], start: int, end: int, avoid: int) -> list[int]:
    """The indices in range(start, end) of the masks that pass the walk's
    filter, not mask & avoid.  A function of its own: the same
    comprehension in _normal_form_masks's rec would make masks a closure
    cell of every rec call, which slowed the unfiltered walk by 7-10%."""
    return [j for j in range(start, end) if not masks[j] & avoid]


def normal_form_count(n: int, k: int) -> int:
    """Number of first-use normal forms of k-restraints on n vertices, every
    choice of joined colours counted, so an upper bound on the colour classes
    _normal_form_masks(n, k) visits, which makes the same choices and keeps
    only one of each run of equal ones.  ways[c] counts the vertex prefixes
    that use c colours; a vertex taking t >= k - c fresh colours joins k - t
    of the c used ones.

    Raises CapError at the first term whose running total at a vertex passes
    FORMS_BUDGET: every prefix completes to at least one form (each later
    vertex can take k fresh colours), so that total bounds the forms from
    below.  The message names the vertex but no count, so it stays short.
    A count is memoised with the budget it was checked against; a refusal
    is not, so each call over the budget stops as early again.  k < 1
    raises ValueError, so every caller that checks the budget refuses it
    too."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _form_count(n, k, FORMS_BUDGET)


@lru_cache(maxsize=None)
def _form_count(n: int, k: int, budget: int) -> int:
    """normal_form_count(n, k) under FORMS_BUDGET = budget."""
    ways = {0: 1}
    for done in range(1, n + 1):
        nxt = {}
        forms = 0
        for c, w in ways.items():
            for t in range(max(0, k - c), k + 1):
                term = w * comb(c, k - t)
                nxt[c + t] = nxt.get(c + t, 0) + term
                forms += term
                if forms > budget:
                    raise CapError(f"normal-form budget exceeded (more than {budget} forms"
                                   f" for n={n}, k={k}; stopped counting at vertex {done} of {n})")
        ways = nxt
    return sum(ways.values())


def enumerate_k_restraints(g: Graph, k: int, avoid=None) -> list[tuple[int, ...]]:
    """The sorted canons of the equivalence classes of k-restraints on g, one
    per class (RestraintClass(canon, g.n) is its class), or with per-vertex
    masks avoid only of those that pass the walk's filter
    (_normal_form_masks); the property filtered for must be kept by every
    automorphism of g, as properness is.

    Walks one sorted form per colour class (_normal_form_masks, slot by
    slot, whose runs of equal masks stay contiguous and are joined only
    along a prefix), so no form is sorted here.  When g's automorphism
    group is trivial (every level of its stabilizer chain is the identity
    alone), each colour class is one restraint class and the visited tuple
    is its canon, so no orbit is computed.

    When the chain has one level of two elements and every other level is
    the identity alone, the group is {id, t}, and each visit is decided by
    itself: masks M is kept iff M <= sorted(tM), with tM's masks looked up
    one int each (_Image).  This is exact.  The class of M is the set of
    colour classes {M, sorted(tM)}, and t preserves the filtered property,
    so the walk visits each of them exactly once.  Since t is an
    involution, sorted(tM) has image M, so both visits compare the same
    two tuples and exactly one of them passes: the smaller, which is the
    orbit minimum and so the canon.  When M = sorted(tM), the class's one
    visit passes through the equality.  No orbit is built and no seen set
    kept.

    On a group of order above 2 the first candidate of a class marks the
    class's whole orbit as seen, so every later candidate of it (whose
    visited tuple lies in that orbit) is skipped; the canon is the orbit
    minimum.

    More than FORMS_BUDGET normal forms, counted by normal_form_count as an
    upper bound on the unfiltered walk, raise CapError before the
    stabilizer chain is built; the count stops at the first vertex whose
    prefixes pass the budget.  That is the one budget: the orbits never
    list the group, and each is a set of the colour classes the walk
    visits, at most that count.
    """
    normal_form_count(g.n, k)  # raises ValueError for k < 1
    canons: list[tuple[int, ...]] = []
    levels = [level for level in g.stabilizer_chain() if len(level) > 1]
    if not levels:
        visit = canons.append
    elif len(levels) == 1 == len(levels[0]) - 1:
        t = levels[0][1]
        image = _Image({1 << v: 1 << t[v] for v in range(g.n)})

        def visit(masks: tuple[int, ...]) -> None:
            if masks <= tuple(sorted(map(image.__getitem__, masks))):
                canons.append(masks)
    else:
        orbit = _orbit_blocks(g)
        seen: set[tuple[int, ...]] = set()

        def visit(masks: tuple[int, ...]) -> None:
            if masks not in seen:
                images = orbit(masks)
                seen.update(images)
                canons.append(min(images))

    _normal_form_masks(g.n, k, visit, avoid)
    canons.sort()
    return canons

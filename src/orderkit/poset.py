"""Finite posets and lattices over small labeled carriers.

Elements are indexed 0..n-1.  The order relation and every subset are
integer bit masks (bit j of ``up[i]`` says i <= j; bit i of a subset mask
says element i belongs to it), so closures, bound scans and subset
enumeration are plain integer arithmetic.  A mask is the one subset value of
the library: ``mask_of_labels`` builds one from labels and ``labels_of``
reads its labels back.  Values are immutable after construction and safe to
share between concurrent tasks.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import compress, islice

from .errors import CycleError, NotALatticeError, SizeLimitError, UnknownLabelError
from . import limits


# the set-bit indices of every byte, and of every byte shifted up by 8, as
# bytes, which add no objects for the garbage collector to track
_BYTE_BITS = tuple(bytes(i for i in range(8) if m >> i & 1) for m in range(256))
_HIGH_BYTE_BITS = tuple(bytes(8 + i for i in row) for row in _BYTE_BITS)
# the binary digits "0" and "1" as the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def iter_bits(mask):
    """Indices of the set bits of the non-negative ``mask``, ascending, as a
    sequence: bytes below 2^16 and a list above, so not a comparable key.
    A mask below 256 is a row of the byte table and one below 2^16 a row of
    each table joined; a wider one selects, in C, the positions of its
    binary digits that are 1."""
    if mask < 256:
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    digits = format(mask, "b")[::-1].encode().translate(_DIGIT_VALUES)
    return list(compress(range(len(digits)), digits))


class cached_view:
    """A view computed from an immutable instance on its first read and
    stored in the instance's ``__dict__``, where later reads find it
    before the class.  ``functools.cached_property`` takes a lock on every
    first read on Python 3.10 and 3.11; this takes none.  The values are
    immutable, so two threads that race compute equal values, and either
    may stay."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def set_order(mask):
    """Sort key of a subset: its size, then its indices."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


def _wide_set_order_key(width, mask):
    # the size, then the complement of the mask's bits reversed over width
    reversed_bits = int(format(mask, f"0{width}b")[::-1], 2)
    return mask.bit_count() << width | ((1 << width) - 1) ^ reversed_bits


# the key of every mask below 256 over width 8, which orders them as it
# orders them over any smaller width
_NARROW_SET_ORDER_KEYS = tuple(_wide_set_order_key(8, m) for m in range(256))


def set_order_key(n):
    """An integer sort key of the subsets of n elements that orders them
    exactly as ``set_order``: the size, then the complemented mask with its
    n bits reversed.  Of two sets of one size, set_order puts A first when
    the least element of their difference lies in A; reversed, that element
    is the highest differing bit, set in A, so complemented it is clear in
    A and A's key is the smaller.  Masks below 256 read a table."""
    if n <= 8:
        return _NARROW_SET_ORDER_KEYS.__getitem__
    return partial(_wide_set_order_key, n)


def degree_signature(strict_down, strict_up, covers_down, covers_up):
    """An element's first color in canonical labelling, from the masks of the
    elements strictly below and above it and of those it covers and is
    covered by: their sizes, in that order."""
    return (strict_down.bit_count(), strict_up.bit_count(),
            covers_down.bit_count(), covers_up.bit_count())


def twin_sort(colors, down, strict_up):
    """The indices in the order of their ``colors``, ties by index, and
    whether every class of equal colors is a set of pairwise twins:
    elements with equal strict up rows and down rows that differ in the two
    elements alone (a singleton is one).  One stable sort, then one row
    comparison per element against the first of its run, stopping at the
    first that fails."""
    order = sorted(range(len(colors)), key=colors.__getitem__)
    a = color = None
    for e in order:
        c = colors[e]
        if c != color:
            a, color = e, c
        elif strict_up[a] != strict_up[e] or down[a] ^ down[e] != 1 << a | 1 << e:
            return order, False
    return order, True


def refined_ranks(signatures, down, strict_up):
    """Iso-invariant element colors of the order with ``down`` rows and
    ``strict_up`` rows, starting from each element's ``degree_signature``
    in ``signatures``, and whether every color class is a set of pairwise
    twins.

    Each round refines a color by the sorted colors of the elements below
    and above.  Refinement only splits classes and orders each split by the
    old color first, so a color never passes a larger one, and a discrete
    coloring is final.  Twins have the same colors below and above, so a
    partition into classes of twins is stable.  Each round's colors go
    through ``twin_sort``: its order gives their dense ranks, and when its
    scan finds every class a set of twins they are returned at once, at
    round 0 with the signatures' order.  Else the rounds run until one
    splits no class.  A singleton class's round color is its old color
    alone, which no other color starts with."""
    colors, classes, below = signatures, 0, None
    while True:
        order, twins = twin_sort(colors, down, strict_up)
        ranks, count, color = [0] * len(colors), -1, None
        for e in order:
            if colors[e] != color:
                count, color = count + 1, colors[e]
            ranks[e] = count
        count += 1
        if twins or count == classes:
            return tuple(ranks), twins
        classes = count
        sizes = [0] * classes
        for r in ranks:
            sizes[r] += 1
        if below is None:
            below = [iter_bits(col & ~(1 << i)) for i, col in enumerate(down)]
            above = [iter_bits(row) for row in strict_up]
        color = ranks.__getitem__
        colors = [
            (r, tuple(sorted(map(color, b))), tuple(sorted(map(color, a))))
            if sizes[r] > 1 else (r,)
            for r, b, a in zip(ranks, below, above)
        ]


def _twin_order(ranks):
    """The canonical order of a poset whose refined rank classes are all
    sets of twins, the rank order with ties by index, and the cycles whose
    rotations generate its automorphisms: each class's first two members
    and, from three members on, the whole class.  Refused first when
    n(n-1) cells for the order, what the search counts when every rank is
    distinct, and n per cycle pass ``limits.CANON_LIMIT``."""
    n = len(ranks)
    classes = [[] for _ in ranks]
    for e, r in enumerate(ranks):
        classes[r].append(e)
    cycles = [c[:2] for c in classes if len(c) > 1]
    cycles += [c for c in classes if len(c) > 2]
    limits.check_limit(n * (n - 1) + n * len(cycles), "canonical labelling", limits.CANON_LIMIT)
    return tuple([e for c in classes for e in c]), cycles


class FinitePoset:
    """An immutable finite partial order with distinct element labels.

    ``up[i]`` is the mask of ``{j | i <= j}`` and ``down[j]`` the mask of
    ``{i | i <= j}``.  The public constructor validates reflexivity,
    antisymmetry and transitivity; the library's own builders, whose rows
    are orders by construction, use ``_trusted`` instead.
    """

    def __init__(self, labels, up, name=""):
        labels = tuple(labels)
        up = tuple(up)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if len(up) != len(labels):
            raise ValueError("one relation row per element required")
        self._set(labels, up, name)
        self._validate()

    def _set(self, labels, up, name):
        self.name = name
        self.labels = labels
        self.n = len(labels)
        self.up = up

    @classmethod
    def _trusted(cls, labels, up, name="", **cached):
        """A poset over rows that are a partial order with distinct labels
        by construction, not validated; ``cached`` seeds cached views
        already known, such as ``down`` and ``cover_rows``.  Tests pass
        every builder's output through the validating constructor."""
        self = cls.__new__(cls)
        self._set(tuple(labels), tuple(up), name)
        self.__dict__.update(cached)
        return self

    def _validate(self):
        """Range and reflexivity row by row, then transitivity and
        antisymmetry by one test per row: a reflexive relation is transitive
        exactly when each row is the OR of the rows of its members, and a
        transitive one is then antisymmetric exactly when its rows are
        pairwise distinct (i <= j <= i makes the rows of i and j equal).
        Only when that fails does the per-pair scan run, to raise the first
        offending pair."""
        n, up = self.n, self.up
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise ValueError(f"relation row {i} mentions out-of-range elements")
            if not up[i] >> i & 1:
                raise ValueError(f"relation not reflexive at {self.labels[i]}")
        for row in up:
            union = 0
            for j in iter_bits(row):
                union |= up[j]
            if union != row:
                break
        else:
            if len(set(up)) == n:
                return
        for i in range(n):
            for j in iter_bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise CycleError((self.labels[i], self.labels[j]))
                if up[j] & ~up[i]:
                    k = iter_bits(up[j] & ~up[i])[0]
                    raise ValueError(
                        "relation not transitive: "
                        f"{self.labels[i]} <= {self.labels[j]} <= {self.labels[k]}"
                    )
        raise AssertionError("the row test and the pair scan disagree")

    # -- basic views ---------------------------------------------------

    @cached_view
    def down(self):
        """Column masks: ``down[j]`` = mask of {i | i <= j}."""
        n, up = self.n, self.up
        cols = [0] * n
        for i in range(n):
            bit = 1 << i
            for j in iter_bits(up[i]):
                cols[j] |= bit
        return tuple(cols)

    @cached_view
    def full_mask(self):
        return (1 << self.n) - 1

    @cached_view
    def _label_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label):
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def labels_of(self, mask):
        """Labels of the masked elements, in index order."""
        return tuple(self.labels[i] for i in iter_bits(mask))

    def mask_of_labels(self, labels):
        """Mask of the labeled elements; UnknownLabelError for a label
        not in the carrier."""
        return mask_of(self.index_of(l) for l in labels)

    def check_mask(self, mask):
        """Raise ValueError when ``mask`` has bits outside the carrier."""
        if mask & ~self.full_mask:
            raise ValueError("subset mask out of range")

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
            and self.name == other.name
        )

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        shown = self.name or ",".join(self.labels)
        return f"FinitePoset({shown!r}, n={self.n})"

    # -- closures, bounds, directedness --------------------------------

    def up_closure_mask(self, mask):
        acc = 0
        for i in iter_bits(mask):
            acc |= self.up[i]
        return acc

    def down_closure_mask(self, mask):
        acc = 0
        for i in iter_bits(mask):
            acc |= self.down[i]
        return acc

    def is_directed_mask(self, mask):
        """Nonempty, and every pair has an upper bound inside the subset.
        On a finite carrier that holds exactly when the subset has a
        greatest element, which one pass over its members finds."""
        return mask != 0 and self.greatest_of_mask(mask) is not None

    def least_of_mask(self, mask):
        """Index of the least element of ``mask``, or None."""
        for m in iter_bits(mask):
            if not mask & ~self.up[m]:
                return m
        return None

    def greatest_of_mask(self, mask):
        for m in iter_bits(mask):
            if not mask & ~self.down[m]:
                return m
        return None

    def sup_mask(self, mask):
        """Least upper bound of the masked subset, or None (sup of the empty
        set is the bottom element when the poset has one)."""
        ub = self.full_mask
        for i in iter_bits(mask):
            ub &= self.up[i]
        return self.least_of_mask(ub)

    # -- subset enumeration ---------------------------------------------

    def directed_sets(self):
        """(mask, sup) of every directed subset, in ascending mask order,
        built once per poset; only the oracles and ``way_below_sets`` read
        it.  On a finite carrier a set is directed exactly when it has a
        greatest element d, which is then its supremum: the directed sets
        are d together with any subset of the elements strictly below d,
        2^(|down d| - 1) of them, so a carrier with too many is refused,
        on every read, before any is listed."""
        count = sum(1 << (col.bit_count() - 1) for col in self.down)
        limits.check_limit(count, "directed-subset table", limits.DIRECTED_LIMIT)
        return self._directed_table

    @cached_view
    def _directed_table(self):
        below = [self.down[d] & ~(1 << d) for d in range(self.n)]
        out = []
        for d in range(self.n):
            top, sub = 1 << d, below[d]
            while True:
                out.append((sub | top, d))
                if not sub:
                    break
                sub = (sub - 1) & below[d]
        out.sort()
        return tuple(out)

    def iter_directed_masks(self):
        """Masks of all directed subsets, in ascending mask order."""
        for mask, _ in self.directed_sets():
            yield mask

    @cached_view
    def _reverse_linear_extension(self):
        # strictly larger elements first; |up set| ascending is a valid order
        return tuple(sorted(range(self.n), key=lambda i: (self.up[i].bit_count(), i)))

    def iter_upper_masks(self):
        """All upper (up-closed) subsets, by doubling along a linear
        extension processed from maximal elements down: from the empty set,
        each element e adds e to every set listed so far that holds the
        elements strictly above e, all processed before e, and yields
        those new sets.  Each is upper, and each upper set is listed once,
        built from its members in that order."""
        strict_up = self._strict_up
        masks = [0]
        yield 0
        for e in self._reverse_linear_extension:
            above, bit = strict_up[e], 1 << e
            new = [m | bit for m in masks if not above & ~m]
            masks += new
            yield from new

    def upper_masks(self):
        """Every upper subset in ``set_order``, walked once per poset;
        refused once more than ``limits.OPENS_LIMIT`` are counted, while
        the table is built and on every later read."""
        table = self._upper_table
        limits.check_limit(len(table), "upper-set enumeration", limits.OPENS_LIMIT)
        return table

    @cached_view
    def _upper_table(self):
        out = list(islice(self.iter_upper_masks(), limits.OPENS_LIMIT + 1))
        limits.check_limit(len(out), "upper-set enumeration", limits.OPENS_LIMIT)
        out.sort(key=set_order_key(self.n))
        return tuple(out)

    # -- structure ------------------------------------------------------

    def hasse(self):
        """Cover pairs (i, j): i < j with nothing strictly between."""
        return [(i, j) for i, row in enumerate(self.cover_rows) for j in iter_bits(row)]

    @cached_view
    def _strict_up(self):
        return tuple(row & ~(1 << i) for i, row in enumerate(self.up))

    @cached_view
    def cover_rows(self):
        """``cover_rows[i]`` masks the elements covering i: those strictly
        above i and not strictly above anything strictly above i."""
        strict_up = self._strict_up
        rows = []
        for row in strict_up:
            above = 0
            for j in iter_bits(row):
                above |= strict_up[j]
            rows.append(row & ~above)
        return tuple(rows)

    def dual(self):
        """Same carrier with the order reversed; an involution."""
        return FinitePoset._trusted(self.labels, self.down, self.name, down=self.up)

    def as_lattice(self) -> "FiniteLattice":
        """The poset as a lattice: a pair has a join when the AND of its up
        rows is an up row, and a meet when the AND of its down rows is a
        down row.  The first pair (i, j >= i) lacking one, the join tested
        first, raises NotALatticeError; no table is built."""
        n, up, down = self.n, self.up, self.down
        if n == 0:
            raise NotALatticeError((), "join")
        lattice = FiniteLattice(self)
        ups, downs = lattice._up_index, lattice._down_index
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] & up[j] not in ups:
                    raise NotALatticeError((self.labels[i], self.labels[j]), "join")
                if down[i] & down[j] not in downs:
                    raise NotALatticeError((self.labels[i], self.labels[j]), "meet")
        return lattice

    # -- canonical forms and isomorphism ---------------------------------

    @cached_view
    def _degree_signatures(self):
        """Each element's ``degree_signature``: the first colors of
        ``refined_ranks``."""
        strict_up, covers_up = self._strict_up, self.cover_rows
        strict_down = [col & ~(1 << i) for i, col in enumerate(self.down)]
        covers_down = [0] * self.n
        for i, row in enumerate(covers_up):
            for j in iter_bits(row):
                covers_down[j] |= 1 << i
        return tuple(map(degree_signature, strict_down, strict_up, covers_down, covers_up))

    @cached_view
    def _refinement(self):
        """``refined_ranks`` of this poset: its refined ranks, and whether
        every rank class is a set of twins."""
        return refined_ranks(self._degree_signatures, self.down, self._strict_up)

    @cached_view
    def _canonical_order(self):
        """Old indices in canonical position order; see ``_canonical_search``.
        When every rank class is a set of twins it is the order of
        ``_twin_order``, read without building the automorphisms."""
        ranks, twins = self._refinement
        if twins:
            return _twin_order(ranks)[0]
        return self._canonical_search[0]

    @cached_view
    def _canonical_search(self):
        """The canonical order, old indices in canonical position order, and
        the automorphisms the search met on the way.

        The order is, of the rank-respecting orderings, the first, in
        candidate order, whose relation table is lexicographically least
        (cells read in growing-submatrix order).

        An exact branch and bound over the positions, kept on an explicit
        stack so that no carrier size reaches the interpreter's recursion
        limit.  Position k takes an unplaced element of the k-th smallest
        rank, candidates in index order, and its chunk is the row of table
        cells that element adds.  A node computes the chunk of every
        candidate and expands only those that reach the least one: any
        other child is larger at this depth, whatever follows.  A node whose
        least chunk is larger than the best table's at its depth is cut; one
        whose chunk is smaller is "ahead", and so is everything below it,
        until a leaf of it replaces the best table and every open node is
        level with the best again.

        A leaf that ties the best table gives an automorphism,
        ``best[i] -> order[i]``, stored as the tuple g with
        g[best[i]] == order[i], and the search returns to the node where the
        two orderings part: the rest of that subtree is the image of the best
        leaf's, so each of its tables comes after an equal one.  A node skips
        a candidate in the orbit of an expanded sibling under the stored
        automorphisms that fix its prefix, for the same reason.  Neither cut
        removes the first least leaf, so the order is the one the plain
        search would return (McKay and Piperno, "Practical graph
        isomorphism, II", 2014).  The stored automorphisms are returned
        beside the order.

        A chunk computed at depth k counts the 2k table cells it compares,
        one read from a rank class's table (below) counts one, and an orbit
        test below a prefix of k counts k per stored automorphism, the
        steps that find those fixing the prefix; the search is refused once
        more than ``limits.CANON_LIMIT`` are counted.  A chunk is packed
        into an int: the placed elements below the candidate, then those
        above it, each weighted 2^(n-1-p) by its position p.  Chunks of one depth so compare as their 0/1 tuples
        would, and one costs a step per placed element related to the
        candidate.  Members of one rank class are incomparable, since
        comparable elements differ in their counts of elements strictly
        below, so a candidate's chunk at depth k + 1 is its chunk at depth
        k while position k + 1 stays in the class of k: the node that
        enters a class computes its members' chunks, keeps them in a table
        when the next position is in the same class, and the nodes below it
        in that class read the table, one cell per chunk.

        Twins, two elements with equal strict up rows and equal strict down
        rows, so rows that differ in those two alone, are incomparable and
        swapped by an automorphism.
        When every rank class is a set of pairwise twins (a singleton is
        one), which the refinement reports beside the ranks, the group,
        whose members keep each rank, is the product of the symmetric groups
        on the classes.  Any two rank-respecting orderings then differ by an
        automorphism and have equal tables, so every chunk ties at every
        node and the first leaf, the rank order with ties by index, is the
        order.  ``_twin_order`` returns it without a search, beside the
        cycles it counts against the bound, one generator each: the swap of
        each class's first two members and, from three members on, the
        cycle through all of them; distinct ranks are the case with no
        generator.
        """
        n = self.n
        ranks, twins = self._refinement
        if twins:
            order, cycles = _twin_order(ranks)
            autos = []
            for cycle in cycles:
                g = list(range(n))
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    g[a] = b
                autos.append(tuple(g))
            return order, tuple(autos)
        by_rank = {}
        for i in range(n):
            by_rank.setdefault(ranks[i], []).append(i)
        up, down = self.up, self.down
        classes = [by_rank[r] for r in sorted(ranks)]
        # the weight 2^(n-1-p) of each element placed at position p; stale
        # entries of unplaced elements are masked off
        weight = [0] * n

        def chunk(e, used):
            below = above = 0
            for x in iter_bits(down[e] & used):
                below |= weight[x]
            for x in iter_bits(up[e] & used):
                above |= weight[x]
            return below << n | above

        cells, limit = 0, limits.CANON_LIMIT

        def node(k, used, ahead, table):
            # the frame of a node at depth k: its least-chunk candidates, the
            # next one to try, that chunk, whether the prefix is ahead, the
            # mask of candidates expanded and, when position k + 1 is in the
            # same class, the class's chunk table, read from ``table`` when
            # one is carried, else built; None when the node is cut
            nonlocal cells
            carried = table is not None
            same = k + 1 < n and classes[k + 1] is classes[k]
            if not carried and same:
                table = {}
            least, kids = None, []
            for e in classes[k]:
                if used >> e & 1:
                    continue
                if carried:
                    cells += 1
                    c = table[e]
                else:
                    cells += 2 * k
                    c = chunk(e, used)
                    if table is not None:
                        table[e] = c
                if cells > limit:
                    raise SizeLimitError("canonical labelling", cells, limit)
                if least is None or c < least:
                    least, kids = c, [e]
                elif c == least:
                    kids.append(e)
            if not ahead:
                if least > best_chunks[k]:
                    return None
                ahead = least < best_chunks[k]
            return [kids, 0, least, ahead, 0, table if same else None]

        def in_orbit(e, done, prefix):
            # e is in the orbit of the masked siblings under the stored
            # automorphisms that fix the prefix pointwise
            nonlocal cells
            cells += len(autos) * len(prefix)
            if cells > limit:
                raise SizeLimitError("canonical labelling", cells, limit)
            gens = [g for g in autos if all(g[p] == p for p in prefix)]
            orbit = frontier = done
            while frontier and not orbit >> e & 1:
                image = mask_of(g[x] for x in iter_bits(frontier) for g in gens)
                frontier = image & ~orbit
                orbit |= frontier
            return orbit >> e & 1

        best_chunks = best_order = None
        autos = []
        order, chunks, used = [], [], 0
        # with no best table yet, the first descent is ahead
        stack = [node(0, 0, True, None)]
        while stack:
            frame = stack[-1]
            kids, i, least, ahead, done, table = frame
            k = len(order)
            while i < len(kids) and done and autos and in_orbit(kids[i], done, order):
                i += 1
            if i == len(kids):
                stack.pop()
                if order:
                    used ^= 1 << order.pop()
                    chunks.pop()
                continue
            e = kids[i]
            frame[1] = i + 1
            frame[4] = done | 1 << e
            if k + 1 == n:
                leaf = order + [e]
                if ahead:
                    best_chunks, best_order = chunks + [least], leaf
                    for f in stack:
                        f[3] = False
                    continue
                auto = [0] * n
                for b, x in zip(best_order, leaf):
                    auto[b] = x
                autos.append(tuple(auto))
                d = next(p for p in range(n) if best_order[p] != leaf[p])
                for x in order[d:]:
                    used ^= 1 << x
                del order[d:], chunks[d:], stack[d + 1:]
                continue
            order.append(e)
            chunks.append(least)
            used |= 1 << e
            weight[e] = 1 << (n - 1 - k)
            child = node(k + 1, used, ahead, table)
            if child is None:
                used ^= 1 << order.pop()
                chunks.pop()
            else:
                stack.append(child)
        return tuple(best_order), tuple(autos)

    def canonical_key(self):
        """Hashable structure invariant: equal keys iff isomorphic posets."""
        order = self._canonical_order
        bit = [0] * self.n
        for new, old in enumerate(order):
            bit[old] = 1 << new
        rows = []
        for old in order:
            row = 0
            for j in iter_bits(self.up[old]):
                row |= bit[j]
            rows.append(row)
        return tuple(rows)

    def canonical_form(self) -> "FinitePoset":
        """Relabeled copy in canonical element order; idempotent, and equal
        relation tables exactly for isomorphic posets."""
        order = self._canonical_order
        return FinitePoset._trusted(
            (self.labels[old] for old in order), self.canonical_key(), self.name
        )

    def is_isomorphic(self, other: "FinitePoset") -> bool:
        if self.n != other.n:
            return False
        if sorted(self._refinement[0]) != sorted(other._refinement[0]):
            return False
        return self.canonical_key() == other.canonical_key()


class FiniteLattice:
    """A finite lattice, read through its poset's order rows.

    A finite lattice is complete, so the upper bounds of a subset S are the
    principal filter of its join: the join of S is the element whose up row
    is the AND of the up rows of S, and the meet is the dual.  No join or
    meet table is built.  Equal bases make equal lattices; the cached views
    are written to the instance dictionary, and nothing else is assigned.
    ``cached`` seeds views already known, such as ``join_irreducibles``.
    """

    def __init__(self, base: FinitePoset, **cached):
        object.__setattr__(self, "base", base)
        self.__dict__.update(cached)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base

    def __hash__(self):
        return hash((self.base,))

    def __repr__(self):
        return f"FiniteLattice(base={self.base!r})"

    @property
    def n(self):
        return self.base.n

    @property
    def labels(self):
        return self.base.labels

    @property
    def name(self):
        return self.base.name

    @cached_view
    def _up_index(self):
        return {row: i for i, row in enumerate(self.base.up)}

    @cached_view
    def _down_index(self):
        return {col: i for i, col in enumerate(self.base.down)}

    @cached_view
    def join_irreducibles(self):
        """Mask of the join-irreducibles: the elements with exactly one
        lower cover, that is, in exactly one cover row."""
        once = twice = 0
        for row in self.base.cover_rows:
            twice |= once & row
            once |= row
        return once & ~twice

    @cached_view
    def birkhoff_distributive(self):
        """Birkhoff's test of distributivity, which reads no join or meet
        table.  Let J be the join-irreducibles.  In a finite lattice
        x -> J(x) = J ∩ ↓x is injective and preserves meets, and the
        lattice is distributive exactly when the image is closed under
        union, which makes the map a lattice embedding into the subsets of
        J.  J(y) is the union of the J(j) for j in J(y), so unions with
        those images suffice."""
        irreducible = self.join_irreducibles
        images = [col & irreducible for col in self.base.down]
        closed = set(images)
        generators = [images[j] for j in iter_bits(irreducible)]
        return all(a | g in closed for a in images for g in generators)

    @cached_view
    def upper_meets(self):
        """The meet of every upper set, aligned with ``base.upper_masks()``."""
        return tuple(self.meet_mask(u) for u in self.base.upper_masks())

    @cached_view
    def down_complement_meets(self):
        """The meet of P minus (down y), for every element y of P."""
        full = self.base.full_mask
        return tuple(self.meet_mask(full ^ d) for d in self.base.down)

    def join_mask(self, mask):
        """Join of the masked subset; bottom for the empty mask."""
        up, ub = self.base.up, self.base.full_mask
        for i in iter_bits(mask):
            ub &= up[i]
        return self._up_index[ub]

    def meet_mask(self, mask):
        down, lb = self.base.down, self.base.full_mask
        for i in iter_bits(mask):
            lb &= down[i]
        return self._down_index[lb]

    @property
    def bottom(self):
        return self.join_mask(0)

    @property
    def top(self):
        return self.meet_mask(0)


class Witness(namedtuple("Witness", "elements subsets lhs rhs note",
                          defaults=((), (), None, None, ""))):
    """Offending elements/subsets of a failed check, with both sides'
    values; all entries are element labels, never indices."""

    __slots__ = ()

    def as_dict(self):
        return {
            "elements": list(self.elements),
            "subsets": [list(s) for s in self.subsets],
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class Verdict(namedtuple("Verdict", "holds witness profile", defaults=(None, ()))):
    """Outcome of a check: pass, or fail with a minimal witness."""

    __slots__ = ()

    def profile_dict(self):
        return dict(self.profile)


def _closure_rows(n, rows):
    """Reflexive-transitive closure of adjacency bit rows, in place, by
    Warshall's algorithm: once every row that reaches k has taken in row k,
    paths through 0..k are closed."""
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        row_k = rows[k]
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= row_k
    return rows


def build_poset(labels, pairs, *, name="") -> FinitePoset:
    """Build a poset from related pairs, closed reflexively and transitively;
    the pairs may be covers or may already contain derived pairs.  A closure
    that relates two elements both ways raises CycleError.

    The closure is reflexive, transitive and in range by construction, so
    it is an order exactly when its rows are pairwise distinct; only when
    two are equal does ``_validate`` run, to raise the first cycle pair.
    """
    labels = tuple(labels)
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != n:
        raise ValueError("labels must be pairwise distinct")
    rows = [0] * n
    for a, b in pairs:
        if a not in index:
            raise UnknownLabelError(a)
        if b not in index:
            raise UnknownLabelError(b)
        rows[index[a]] |= 1 << index[b]
    P = FinitePoset._trusted(labels, _closure_rows(n, rows), name)
    if len(set(P.up)) != n:
        P._validate()
    return P

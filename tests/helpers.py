"""Checks that only the tests use."""


def is_canonical(P):
    """P's elements are already in its canonical order."""
    return P._canonical_order == tuple(range(P.n))


def complement_isomorphism(opens, closeds):
    """Explicit order anti-isomorphism between two set lattices of one
    poset, such as σ(P) and Γ(P): the index map sending each member of
    ``opens`` to its complement.  Raises if the map is not a bijection
    reversing the order, returns it otherwise."""
    P = opens.base_poset
    index = {m: i for i, m in enumerate(closeds.opens)}
    # a missing complement maps to -1, which no bijection onto the indices has
    mapping = [index.get(P.full_mask ^ m, -1) for m in opens.opens]
    if sorted(mapping) != list(range(len(closeds.opens))):
        raise AssertionError("complementation is not a bijection between the families")
    a, b = opens.lattice.base, closeds.lattice.base
    for i in range(a.n):
        for j in range(a.n):
            if a.leq(i, j) != b.leq(mapping[j], mapping[i]):
                raise AssertionError("complementation does not reverse inclusion")
    return tuple(mapping)

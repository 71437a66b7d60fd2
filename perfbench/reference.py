"""Reference answers, computed without orderkit.

Everything here works on plain relation rows (``up[i]`` is the bit mask of
the elements above ``i``) and decides by brute force, so a benchmark answer
is never checked against the code it measures.  The published counts are
OEIS constants; the brute-force counters below reproduce them for small n
(see the tests) and are too slow to run at n = 7.
"""

from __future__ import annotations

from itertools import permutations

# Unlabeled posets (A000112), lattices (A006966) and distributive lattices
# (A006982) on n = 0..7 elements.
POSETS = (1, 1, 2, 5, 16, 63, 318, 2045)
LATTICES = (1, 1, 1, 1, 2, 5, 15, 53)
DISTRIBUTIVE = (1, 1, 1, 1, 2, 3, 5, 8)

# Universe of each verification suite, from the suite table of the paper.
SUITE_UNIVERSE = {
    "lemma31": "lattices",
    "thm32": "lattices",
    "thm34": "posets",
    "thm21": "posets",
    "thm23": "posets",
    "thm25": "posets",
    "chains": "lattices",
    "characterizations": "lattices",
}

ALWAYS_TRUE = ("continuous", "quasicontinuous", "meet_continuous")
LATTICE_ONLY = ("join_continuous", "frame", "hypercontinuous", "prime_continuous",
                "distributive")


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def close(n, rows):
    """Reflexive-transitive closure of adjacency rows; None on a cycle."""
    rows = [r | 1 << i for i, r in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in bits(acc):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i], changed = acc, True
    for i in range(n):
        for j in bits(rows[i]):
            if i != j and rows[j] >> i & 1:
                return None
    return rows


def parse(text):
    """(labels, up rows) of a poset file: ``elements:`` and ``cover`` lines."""
    labels, covers = None, []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts or parts[0] == "poset":
            continue
        if parts[0] == "elements:":
            labels = parts[1:]
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append((parts[1], parts[2]))
        else:
            raise ValueError(f"unexpected poset line {raw!r}")
    if labels is None:
        raise ValueError("poset file has no elements line")
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for a, b in covers:
        rows[index[a]] |= 1 << index[b]
    up = close(len(labels), rows)
    if up is None:
        raise ValueError("cover lines form a cycle")
    return labels, up


def covers(up):
    """Pairs (i, j) with i < j and nothing strictly between."""
    out = []
    for i, row in enumerate(up):
        strict = row & ~(1 << i)
        for j in bits(strict):
            if not any(up[k] >> j & 1 for k in bits(strict) if k != j):
                out.append((i, j))
    return out


def emit(labels, up):
    """Poset file with one cover line per Hasse edge."""
    lines = ["elements: " + " ".join(labels)]
    lines.extend(f"cover {labels[i]} {labels[j]}" for i, j in covers(up))
    return "\n".join(lines) + "\n"


# -- named instances ----------------------------------------------------------


def chain(k):
    return [sum(1 << j for j in range(i, k)) for i in range(k)]


def antichain(k):
    return [1 << i for i in range(k)]


def boolean(k):
    size = 1 << k
    return [sum(1 << j for j in range(size) if i & j == i) for i in range(size)]


def m3():
    return [0b11111, 0b10010, 0b10100, 0b11000, 0b10000]


def n5():
    # 0 < a < c < 1, 0 < b < 1
    return [0b11111, 0b11010, 0b10100, 0b11000, 0b10000]


def named(name):
    if name == "M3":
        return m3()
    if name == "N5":
        return n5()
    kind, k = name.rstrip(")").split("(")
    return {"chain": chain, "antichain": antichain, "boolean": boolean}[kind](int(k))


# -- decisions ----------------------------------------------------------------


def down_rows(up):
    n = len(up)
    return [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]


def count_upper_sets(up):
    """Upper sets, by testing all 2^n subsets."""
    n = len(up)
    return sum(
        1 for s in range(1 << n) if all(up[i] & ~s == 0 for i in bits(s))
    )


def _least(up, mask):
    for m in bits(mask):
        if mask & ~up[m] == 0:
            return m
    return None


def lattice_tables(up):
    """(join, meet) tables when every pair has a sup and an inf, else None."""
    n = len(up)
    if n == 0:
        return None
    down = down_rows(up)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = _least(up, up[i] & up[j])
            m = _least(down, down[i] & down[j])
            if s is None or m is None:
                return None
            join[i][j], meet[i][j] = s, m
    return join, meet


def is_lattice(up):
    return lattice_tables(up) is not None


def is_distributive(up):
    """x meet (y join z) = (x meet y) join (x meet z) for every triple."""
    join, meet = lattice_tables(up)
    n = len(up)
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def canonical(up):
    """Least relation table over all relabelings: equal iff isomorphic."""
    n = len(up)
    best = None
    for perm in permutations(range(n)):
        key = tuple(
            sum(1 << perm[j] for j in bits(up[i])) for i in sorted(range(n), key=perm.__getitem__)
        )
        if best is None or key < best:
            best = key
    return best


def isomorphic(a, b):
    return len(a) == len(b) and canonical(a) == canonical(b)


def poset_classes(n):
    """One relation table per isomorphism class of n-element posets.  Every
    poset has a linear extension, so strict relations inside the upper
    triangle of 0..n-1 cover all classes."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = set()
    for pick in range(1 << len(slots)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(slots):
            if pick >> b & 1:
                rows[i] |= 1 << j
        if close(n, rows) == rows:
            classes.add(canonical(rows))
    return sorted(classes)


# -- answer checks --------------------------------------------------------------


def expected_check(up):
    """The property map ``check --json`` must report for this poset."""
    out = dict.fromkeys(ALWAYS_TRUE, True)
    if is_lattice(up):
        d = is_distributive(up)
        out.update(join_continuous=d, frame=d, prime_continuous=d, distributive=d,
                   hypercontinuous=True)
    else:
        out.update(dict.fromkeys(LATTICE_ONLY, "skipped"))
    return out


def universe(max_n):
    """Instances in each suite universe up to ``max_n`` elements."""
    return {"posets": sum(POSETS[1:max_n + 1]), "lattices": sum(LATTICES[1:max_n + 1])}


def checks_in_verify(max_n):
    sizes = universe(max_n)
    return sum(sizes[kind] for kind in SUITE_UNIVERSE.values())


def check_verify_report(report, max_n):
    """Problems with a ``verify --suite full --json`` report, as strings.
    Outside its hypothesis, lemma31 must list exactly M3 and N5, the
    non-distributive lattices up to five elements, so ``max_n`` is 5."""
    problems = []
    sizes = universe(max_n)
    suites = {s["suite"]: s for s in report["suites"]}
    if sorted(suites) != sorted(SUITE_UNIVERSE):
        problems.append(f"suites {sorted(suites)}")
        return problems
    for name, kind in SUITE_UNIVERSE.items():
        s = suites[name]
        if s["instances"] != sizes[kind]:
            problems.append(f"{name}: {s['instances']} instances, want {sizes[kind]}")
        if not s["pass"] or s["failures"]:
            problems.append(f"{name}: failed")
        if name != "lemma31" and s["expected_failures"]:
            problems.append(f"{name}: unexpected equation failures")
    listed = [parse(rec["poset"])[1] for rec in suites["lemma31"]["expected_failures"]]
    want = [m3(), n5()]
    if len(listed) != 2 or not all(any(isomorphic(u, w) for u in listed) for w in want):
        problems.append("lemma31 must list exactly M3 and N5 outside its hypothesis")
    return problems


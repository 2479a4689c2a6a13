"""Correctness checks made apart from the program.

Every check recomputes a property from the raw side and edge lists with
code of its own: bitmask covers, degree bounds, pairwise intersection,
the projective-plane axioms, subset-scan cover numbers, a product
enumeration of addable edges and a parser for .rhg artifacts.  None of
them calls into the package.  A hypergraph here is anything with
`sides`, `edges` and `edge_labels` in the package's layout: sides are
label lists, edges are (side, pos) tuples.
"""

import re
from collections import Counter, namedtuple
from itertools import combinations, product

Rhg = namedtuple("Rhg", "sides edges edge_labels")

_VID = re.compile(r"(\d+)\.(\d+)")


def vid(token):
    """(side, pos) from the 'side.pos' form used in files and reports."""
    m = _VID.fullmatch(token)
    if m is None:
        raise ValueError(f"bad vertex ref {token!r}")
    return int(m[1]), int(m[2])


def parse_rhg(text):
    """Sides, edges and edge labels of an .rhg file."""
    sides, edges, labels = [], [], []
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][:2] != ["rhg", "1"]:
        raise ValueError("missing 'rhg 1' header")
    for toks in lines[1:]:
        if toks[0] == "s":
            sides.append(tuple(toks[2:]))
        elif toks[0] == "e":
            rest = toks[1:]
            label = None
            if rest[0].startswith('"'):
                label = rest[0].strip('"')
                rest = rest[1:]
            edges.append(tuple(sorted(vid(t) for t in rest)))
            labels.append(label)
        else:
            raise ValueError(f"unknown line {' '.join(toks)!r}")
    if len(sides) != int(lines[0][2]):
        raise ValueError("side count differs from the header")
    return Rhg(tuple(sides), tuple(edges), tuple(labels))


def _bits(h):
    """Bit of every vertex, numbered side by side."""
    out = {}
    for s, side in enumerate(h.sides):
        for p in range(len(side)):
            out[(s, p)] = 1 << len(out)
    return out


def edge_masks(h):
    bits = _bits(h)
    return [sum(bits[v] for v in e) for e in h.edges]


def is_cover(h, vertices):
    bits = _bits(h)
    m = 0
    for v in vertices:
        m |= bits[v]
    return all(e & m for e in edge_masks(h))


def witness_ok(h, tau, witness):
    """The witness has tau distinct vertices and meets every edge."""
    return len(set(witness)) == len(witness) == tau and is_cover(h, witness)


def degrees(h):
    """Degree of every vertex, zero-degree vertices included."""
    deg = Counter({(s, p): 0 for s, side in enumerate(h.sides) for p in range(len(side))})
    for e in h.edges:
        deg.update(e)
    return deg


def degree_bound(h):
    """tau >= ceil(m / max degree): each cover vertex meets at most the
    maximum degree of edges."""
    return -(-len(h.edges) // max(degrees(h).values()))


def intersecting(h, among=None):
    """Every edge meets every other.  With `among`, only the pairs with
    at least one edge index in `among` are tested."""
    masks = edge_masks(h)
    if among is None:
        return all(mi & mj for i, mi in enumerate(masks) for mj in masks[i + 1:])
    return all(masks[i] & mj for i in among for mj in masks)


def plane_ok(plane, q):
    """PG(2,q) axioms: q^2+q+1 points and lines, q+1 points per line, and
    every two lines meet in exactly one point.

    The last is tested through the points: if the q+1 lines through
    every point p cover all n points, then, since (q+1)q = n-1, they
    share only p, so two points lie on exactly one line.  A line L then
    meets q(q+1) distinct other lines at its points, which with L are
    all n lines, each meeting L once."""
    n = q * q + q + 1
    lines = plane.line_points
    if len(plane.points) != n or len(lines) != n:
        return False
    if any(len(set(pts)) != q + 1 or not all(0 <= p < n for p in pts) for pts in lines):
        return False
    through = [[] for _ in range(n)]
    masks = []
    for li, pts in enumerate(lines):
        masks.append(sum(1 << p for p in pts))
        for p in pts:
            through[p].append(li)
    full = (1 << n) - 1
    for pencil in through:
        union = 0
        for li in pencil:
            union |= masks[li]
        if len(pencil) != q + 1 or union != full:
            return False
    return True


def truncation_ok(t, q):
    """q+1 sides of q vertices, q^2 edges with one vertex per side, every
    vertex in q edges, pairwise intersecting."""
    r = q + 1
    return (
        [len(s) for s in t.sides] == [q] * r
        and len(t.edges) == q * q
        and all(sorted(s for s, _ in e) == list(range(r)) for e in t.edges)
        and set(degrees(t).values()) == {q}
        and intersecting(t)
    )


def subset_scan_tau(h, limit):
    """Smallest number of vertices meeting every edge, by scanning all
    vertex subsets in size order up to `limit`; None if none is found."""
    vertex_edges = Counter()
    for i, e in enumerate(h.edges):
        for v in e:
            vertex_edges[v] |= 1 << i
    masks = [vertex_edges[(s, p)] for s, side in enumerate(h.sides) for p in range(len(side))]
    full = (1 << len(h.edges)) - 1
    for size in range(limit + 1):
        for combo in combinations(masks, size):
            m = 0
            for x in combo:
                m |= x
            if m == full:
                return size
    return None


def addable_edge_counts(ext):
    """Count the addable edges of a labelled extension by kind, from a
    full product enumeration over the sides.

    An addable edge takes one vertex from every side but at most one,
    which gets a fresh vertex, and must meet every edge.  It is
    already_present, type1 (F_i plus a last-side vertex), type2
    (F_i - s_i + v_i plus a side-i vertex) or a violation.  F_i and its
    mirrored copy are read off the E2/E3 labels."""
    last = len(ext.sides) - 1
    f_sets, shifted = {}, {}
    for e, lab in zip(ext.edges, ext.edge_labels):
        kind, idx = lab[:2], lab[3:-1]
        if kind == "E2":
            for i in idx.split(","):
                f_sets[int(i)] = frozenset(e)
        elif kind == "E3":
            shifted[int(idx)] = frozenset(e)
    present = {frozenset(e) for e in ext.edges}
    masks = edge_masks(ext)
    bits = _bits(ext)
    full_sides = range(len(ext.sides))

    def kind_of(fresh, verts):
        if fresh is None and verts in present:
            return "already_present"
        if fresh in (None, last):
            core = frozenset(v for v in verts if v[0] != last)
            if any(core == f_sets[i] for i in sorted(f_sets)):
                return "type1"
        if fresh != last:
            for i in sorted(shifted):
                side = i - 1
                if fresh in (None, side) and frozenset(v for v in verts if v[0] != side) == shifted[i]:
                    return "type2"
        return "violation"

    counts = Counter()
    for fresh in [None, *full_sides]:
        choices = [
            [(s, p) for p in range(len(ext.sides[s]))] for s in full_sides if s != fresh
        ]
        for combo in product(*choices):
            m = 0
            for v in combo:
                m |= bits[v]
            if all(e & m for e in masks):
                counts[kind_of(fresh, frozenset(combo))] += 1
    return counts


def isomorphism_ok(a, b, vertex_map):
    """The map is a bijection from a's vertices onto b's that sends every
    edge of a onto an edge of b."""
    mapping = dict(vertex_map)
    va = {(s, p) for s, side in enumerate(a.sides) for p in range(len(side))}
    vb = {(s, p) for s, side in enumerate(b.sides) for p in range(len(side))}
    if set(mapping) != va or set(mapping.values()) != vb:
        return False
    image = {frozenset(mapping[v] for v in e) for e in a.edges}
    return image == {frozenset(e) for e in b.edges}

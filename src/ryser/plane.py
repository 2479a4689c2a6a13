"""Desarguesian projective planes PG(2,q), their truncations, and the
Bruck-Ryser order-exclusion test.

Points and lines are homogeneous coordinate triples over GF(q),
normalized so the first nonzero coordinate is 1, ordered
lexicographically by element index.  A point lies on a line iff the
coordinate dot product vanishes; `build_plane` solves that equation for
each line's points.
"""

from dataclasses import dataclass
from math import isqrt
from operator import itemgetter

from .errors import DuplicateEdgeError, InvalidPointIndexError, PartitenessError
from .gf import FiniteField
from .hypergraph import PartiteHypergraph


@dataclass(frozen=True)
class ProjectivePlane:
    field: FiniteField
    points: tuple            # normalized triples of element indices
    lines: tuple             # same coordinate set, interpreted dually
    line_points: tuple       # per line: ascending tuple of incident point indices
    line_masks: tuple        # per line: bitmask over point indices

    @property
    def q(self) -> int:
        return self.field.q

    def point_label(self, i: int) -> str:
        a, b, c = self.points[i]
        return f"{a}:{b}:{c}"

    def lines_through(self, point_index: int):
        return tuple(
            li for li, mask in enumerate(self.line_masks) if mask >> point_index & 1
        )


def _normalized_triples(q):
    out = [(0, 0, 1)]
    out += [(0, 1, c) for c in range(q)]
    out += [(1, b, c) for b in range(q) for c in range(q)]
    out.sort()
    return tuple(out)


def build_plane(field: FiniteField) -> ProjectivePlane:
    """Construct PG(2,q) with deterministic point/line ordering.

    Each line's q+1 points are solved from its equation au + bv + cw = 0
    rather than searched for, and a normalized triple maps to its index
    in the sorted point list by (0,0,1) -> 0, (0,1,c) -> 1+c and
    (1,b,c) -> 1+q+bq+c.  Each line's points come out ascending.  A
    field with tables is read row by row; above TABLE_LIMIT the field's
    add/mul methods are called instead.
    """
    q = field.q
    triples = _normalized_triples(q)
    line_points = [_line_points(field, q, u, v, w) for u, v, w in triples]
    bits = [1 << i for i in range(len(triples))]
    return ProjectivePlane(
        field=field,
        points=triples,
        lines=triples,
        line_points=tuple(line_points),
        line_masks=tuple(sum(itemgetter(*pts)(bits)) for pts in line_points),
    )


def _line_points(field, q, u, v, w):
    """Ascending point indices of the line (u, v, w)."""
    if w:
        # c = -(u + bv)/w on (1,b,c), and c = -v/w on (0,1,c).
        if field.mul_table is not None:
            add, mul = field.add_table, field.mul_table
            by_k = mul[mul[field.p - 1][field.inv(w)]]     # -x is (p-1)x
            add_u = add[u]
            return (1 + by_k[v], *[first + by_k[add_u[bv]] for first, bv
                                   in zip(range(1 + q, 1 + q + q * q, q), mul[v])])
        add, mul = field.add, field.mul
        k = field.neg(field.inv(w))
        return (1 + mul(v, k), *(1 + q + b * q + mul(add(u, mul(b, v)), k) for b in range(q)))
    if v:
        # a = 1 forces b = -u/v with c free; a = 0 forces b = 0.
        b = field.mul(field.neg(u), field.inv(v))
        return (0, *range(1 + q + b * q, 1 + 2 * q + b * q))
    # u != 0 forces a = 0: the point (0,0,1) and every (0,1,c).
    return tuple(range(q + 1))


def truncate(plane: ProjectivePlane, vertex: int | None = None) -> PartiteHypergraph:
    """Remove one point and the lines through it; the punctured pencil
    lines become the sides, the remaining lines the edges.

    Returns an r-partite r-uniform intersecting hypergraph with r = q+1
    sides of q vertices each and q^2 edges.  Each edge is laid out by
    side, so it is canonical as built; a line that meets a pencil line
    twice or misses one raises PartitenessError, and two lines on the
    same points raise DuplicateEdgeError (neither occurs in a plane).
    """
    v = 0 if vertex is None else vertex
    n = len(plane.points)
    if not 0 <= v < n:
        raise InvalidPointIndexError(f"point index {v} out of range [0, {n})")

    pencil = plane.lines_through(v)
    sides = []
    slot = {}  # point index -> (side, (side, pos))
    for side, li in enumerate(pencil):
        labels = []
        for p in plane.line_points[li]:
            if p == v:
                continue
            slot[p] = (side, (side, len(labels)))
            labels.append(plane.point_label(p))
        sides.append(tuple(labels))

    k = len(pencil)
    in_pencil = set(pencil)
    edges = []
    seen = set()
    for li, pts in enumerate(plane.line_points):
        if li in in_pencil:
            continue
        by_side = dict(map(slot.__getitem__, pts))
        if len(by_side) != k or len(pts) != k:
            raise PartitenessError(f"line {li} does not meet each of the {k} pencil lines once")
        e = tuple(map(by_side.__getitem__, range(k)))
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)

    r = plane.q + 1
    return PartiteHypergraph._from_canonical(tuple(sides), tuple(edges), (None,) * len(edges),
                                             f"T{r}")


def bruck_ryser_excluded(n: int) -> bool:
    """True iff n == 1 or 2 (mod 4) and n is not a sum of two squares,
    in which case no projective plane of order n exists.  False makes
    no existence claim."""
    if n < 2:
        raise ValueError("order must be >= 2")
    if n % 4 not in (1, 2):
        return False
    for a in range(isqrt(n) + 1):
        b = n - a * a
        if isqrt(b) ** 2 == b:
            return False
    return True

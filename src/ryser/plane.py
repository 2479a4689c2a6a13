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

from .errors import InvalidPointIndexError
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

    @property
    def order(self) -> int:
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
    (1,b,c) -> 1+q+bq+c.
    """
    q = field.q
    triples = _normalized_triples(q)
    add, mul, neg = field.add, field.mul, field.neg
    line_points = []
    line_masks = []
    for u, v, w in triples:
        if w:
            # c = -(u + bv)/w on (1,b,c), and c = -v/w on (0,1,c).
            k = neg(field.inv(w))
            pts = [1 + mul(v, k)]
            pts += [1 + q + b * q + mul(add(u, mul(b, v)), k) for b in range(q)]
        elif v:
            # a = 1 forces b = -u/v with c free; a = 0 forces b = 0.
            b = mul(neg(u), field.inv(v))
            pts = [0]
            pts += range(1 + q + b * q, 1 + 2 * q + b * q)
        else:
            # u != 0 forces a = 0: the point (0,0,1) and every (0,1,c).
            pts = list(range(q + 1))
        pts.sort()
        mask = 0
        for pi in pts:
            mask |= 1 << pi
        line_points.append(tuple(pts))
        line_masks.append(mask)
    return ProjectivePlane(
        field=field,
        points=triples,
        lines=triples,
        line_points=tuple(line_points),
        line_masks=tuple(line_masks),
    )


def truncate(plane: ProjectivePlane, vertex: int | None = None) -> PartiteHypergraph:
    """Remove one point and the lines through it; the punctured pencil
    lines become the sides, the remaining lines the edges.

    Returns an r-partite r-uniform intersecting hypergraph with r = q+1
    sides of q vertices each and q^2 edges.
    """
    v = 0 if vertex is None else vertex
    n = len(plane.points)
    if not 0 <= v < n:
        raise InvalidPointIndexError(f"point index {v} out of range [0, {n})")

    pencil = plane.lines_through(v)
    sides = []
    place = {}  # point index -> (side, pos)
    for side, li in enumerate(pencil):
        labels = []
        for p in plane.line_points[li]:
            if p == v:
                continue
            place[p] = (side, len(labels))
            labels.append(plane.point_label(p))
        sides.append(tuple(labels))

    edges = []
    for li, pts in enumerate(plane.line_points):
        if li in pencil:
            continue
        edges.append(tuple(sorted(place[p] for p in pts)))

    r = plane.q + 1
    return PartiteHypergraph(sides, edges, name=f"T{r}")


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

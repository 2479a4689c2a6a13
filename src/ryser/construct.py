"""Extension construction for intersecting Ryser-extremal hypergraphs.

Given an r-partite r-uniform intersecting base, an anchor edge S that
meets every other edge in exactly one vertex, and selected edges
F_1..F_r through the anchor vertices s_i, the extension hypergraph is

    E1: every base edge E != S lifted by the mirror vertex v_i of the
        anchor vertex it meets (one new vertex per anchor vertex, all
        in a fresh final side),
    E2: the selected edges F_i themselves,
    E3: their mirrored copies F_i - s_i + v_i.

The result is (r+1)-partite, {r, r+1}-uniform, intersecting, and has
cover number r; adding one private tail vertex to each r-edge makes it
(r+1)-uniform without changing tau, nu, or the intersecting property.
Edge labels record provenance: "E1(<base edge index>)", "E2(<i,...>)",
"E3(<i>)" with 1-based side numbers.
"""

from dataclasses import dataclass
from math import comb, isfinite, isqrt
from typing import Optional

from .errors import (
    BadEdgeSizeError,
    InvalidProfileError,
    InvalidSpecError,
    LineNotFoundError,
    MissingLabelsError,
)
from .hypergraph import PartiteHypergraph, is_intersecting, truncated_plane_order
from .solver import DEFAULT_TIMEOUT, cover_number


@dataclass(frozen=True)
class ConstructionSpec:
    """Base hypergraph, anchor edge index, and per-side selected edge
    indices (f_edges[i] holds F_{i+1}, the selected edge through the
    anchor vertex in side i)."""

    base: PartiteHypergraph
    s_edge: int
    f_edges: tuple

    @property
    def r(self) -> int:
        return self.base.num_sides

    def anchor_vertices(self):
        """Anchor vertices ordered by side: element i lies in side i."""
        return self.base.edges[self.s_edge]

    def mirror_vertex(self, side: int):
        """Mirror vertex v_{side+1}, placed in the new final side."""
        return (self.r, side)

    def pair_edges(self):
        """Per side i, the pair (F_{i+1}, F_{i+1} - s_{i+1} + v_{i+1}) as
        sorted vertex tuples: the extension's E2 and E3 edges, and the
        fixed parts of its two twin families for side i.  The mirror
        vertex sorts last, being in the final side."""
        edges = self.base.edges
        anchor = self.anchor_vertices()
        out = []
        for i in range(self.r):
            f = edges[self.f_edges[i]]
            out.append((f, tuple(v for v in f if v != anchor[i]) + (self.mirror_vertex(i),)))
        return tuple(out)


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


def _lowest(mask):
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _bits(mask):
    """Indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _anchor_misfits(base, s_edge):
    """Mask of the edges other than edge s_edge that do not meet it in
    exactly one vertex, from r ORs of its vertices' incidence masks:
    `ones` holds the edges met at least once, `twos` at least twice."""
    inc = base.incidence_masks
    ones = twos = 0
    for v in base.edges[s_edge]:
        m = inc[base.gid(v)]
        twos |= ones & m
        ones |= m
    return (twos | ~ones) & ((1 << base.num_edges) - 1) & ~(1 << s_edge)


def _anchor_meet_detail(base, s_edge, i):
    k = len(frozenset(base.edges[s_edge]).intersection(base.edges[i]))
    return f"anchor edge meets edge {i} in {k} vertices, expected exactly 1"


def validate_spec(
    spec: ConstructionSpec,
    check_cover_uniqueness: bool = True,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    jobs: int = 1,
):
    """Check every construction precondition; violations are returned as
    data, in check order, not raised.

    The structural checks read bitmasks.  The anchor test ORs the r
    anchor vertices' incidence masks, O(r) mask operations once the
    base's `incidence_masks` are cached (`select_f_*` caches them), and
    counts the shared vertices only of the edges it flags.  The
    selected-overlap test ANDs r vertex masks of F_i - s_i.

    The last part, cover uniqueness (the base minus the anchor edge has
    cover number r-1 and its only minimum covers are the sides), is
    proved by the counting argument of `truncated_plane_order` when the
    base passes its test, in O(m*r) operations, and otherwise by an
    exhaustive enumeration of the minimum covers, which can take long
    for large bases.  `check_cover_uniqueness=False` skips it, leaving
    the construction unvalidated; no command passes it.  Every search
    runs in this process: `jobs` selects nothing and raises ValueError
    below 1 when the cover part runs.  Both are kept only because the
    benchmark in perfbench/ passes them.
    """
    base = spec.base
    r = base.num_sides
    out = []
    if base.uniformity != r:
        out.append(Violation("base-not-uniform", f"edge sizes must all be {r}"))
        return out
    if base.num_edges < 2:
        out.append(Violation("base-too-small", "need the anchor edge plus at least one other"))
        return out
    ok, wit = is_intersecting(base)
    if not ok:
        out.append(Violation("base-not-intersecting", f"edges {wit[0]} and {wit[1]} are disjoint"))
        return out
    if not 0 <= spec.s_edge < base.num_edges:
        out.append(Violation("anchor-index", f"edge index {spec.s_edge} out of range"))
        return out
    out += [Violation("anchor-intersection", _anchor_meet_detail(base, spec.s_edge, i))
            for i in _bits(_anchor_misfits(base, spec.s_edge))]
    if len(spec.f_edges) != r:
        out.append(Violation("selected-count", f"need {r} selected edges, got {len(spec.f_edges)}"))
        return out
    anchor = spec.anchor_vertices()
    off = base.offsets
    rests = []  # per side i, the vertex mask of F_i - s_i
    for i, fe in enumerate(spec.f_edges):
        if not 0 <= fe < base.num_edges:
            out.append(Violation("selected-index", f"F_{i+1} edge index {fe} out of range"))
            return out
        fmask = sum(1 << (off[s] + p) for s, p in base.edges[fe])
        sbit = 1 << base.gid(anchor[i])
        rests.append(fmask & ~sbit)
        if not fmask & sbit:
            out.append(Violation(
                "anchor-in-selected",
                f"F_{i+1} (edge {fe}) does not contain the side-{i} anchor vertex",
            ))
    for i in range(r):
        for j in range(i + 1, r):
            if not rests[i] & rests[j]:
                out.append(Violation(
                    "selected-overlap",
                    f"(F_{i+1} - s_{i+1}) and (F_{j+1} - s_{j+1}) are disjoint",
                ))
    if out or not check_cover_uniqueness:
        return out
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if truncated_plane_order(base) is not None:
        return out
    return _reduced_cover_violations(spec, timeout)


def _reduced_cover_violations(spec, timeout):
    """Cover uniqueness by exhaustive search: enumerate every minimum
    cover of the base minus the anchor edge and compare with the sides."""
    base = spec.base
    r = base.num_sides
    reduced = base.without_edge(spec.s_edge)
    res = cover_number(reduced, enumerate_all=True, upper_hint=r - 1, timeout=timeout)
    if res.tau != r - 1:
        return [Violation(
            "reduced-cover-number",
            f"base minus anchor has cover number {res.tau}, expected {r - 1}",
        )]
    sides = {
        frozenset((s, p) for p in range(len(base.sides[s]))) for s in range(r)
    }
    got = {frozenset(c) for c in res.all_min_covers}
    if got == sides:
        return []
    extra = sorted(tuple(sorted(c)) for c in got - sides)
    missing = sorted(tuple(sorted(c)) for c in sides - got)
    return [Violation(
        "covers-not-sides",
        f"minimum covers of the reduced base are not exactly the sides "
        f"(extra={extra[:3]}, missing={missing[:3]})",
    )]


MIRROR_LABEL_PREFIX = "v"
TAIL_LABEL_PREFIX = "t"


def build_extension(
    spec: ConstructionSpec,
    check: bool = True,
    check_cover_uniqueness: bool = True,
) -> PartiteHypergraph:
    """Build the {r, r+1}-uniform (r+1)-partite extension hypergraph.

    Repeated selected edges are stored once with a merged E2 label; the
    anchor edge itself enters only if it was selected as some F_i.

    The result records `spec`, and `cover_number` reads it to prove
    tau >= r by the mirror argument instead of searching for an
    (r-1)-cover: if the base passes `truncated_plane_order` and none of
    the 2r sets "side j" and "side j with s_j swapped for v_j" covers
    the result, no set of r-1 vertices does.  A cover C of at most r-1
    vertices, with each mirror vertex v_i replaced by its anchor vertex
    s_i, covers the base minus the anchor edge with at most r-1 = tau
    vertices, so it is a whole side j; C is then side j or side j with
    s_j swapped for v_j.  Nothing is tested here; copies made by
    `without_edge` or `with_edge`, and hypergraphs read from files,
    carry no spec.  `check` runs `validate_spec` first; perfbench/
    alone turns its cover part off.

    E1 lifting walks the bits of each anchor vertex's incidence mask
    less the anchor edge: O(m) in all.  `validate_spec` tests the
    anchor law when `check` is set; with `check=False` the same mask
    test runs here, so an edge that misses the anchor or meets it twice
    still raises InvalidSpecError naming the edge, worded as
    `validate_spec` words it, and so does an anchor index out of range.
    """
    base = spec.base
    r = base.num_sides
    s_edge = spec.s_edge
    if check:
        violations = validate_spec(spec, check_cover_uniqueness)
        if violations:
            raise InvalidSpecError(str(violations[0]))
    else:
        _anchor_edge(base, s_edge)
        if misfits := _anchor_misfits(base, s_edge):
            detail = _anchor_meet_detail(base, s_edge, _lowest(misfits))
            raise InvalidSpecError(str(Violation("anchor-intersection", detail)))
    anchor = base.edges[s_edge]
    mirror = tuple(spec.mirror_vertex(i) for i in range(r))

    # Every edge is canonical as built: base edges are, a mirror vertex
    # (final side) sorts last, E1 edges gain one and E2 edges none, and
    # the E3 edges have distinct ones.  Each E1 edge meets the anchor in
    # one vertex, so it is in one anchor incidence mask and gets that
    # vertex's mirror.
    sides = base.sides + (tuple(f"{MIRROR_LABEL_PREFIX}{i+1}" for i in range(r)),)
    lift = [None] * base.num_edges
    inc = base.incidence_masks
    for v in anchor:
        for idx in _bits(inc[base.gid(v)] & ~(1 << s_edge)):
            lift[idx] = mirror[v[0]]
    edges = [e + (lift[idx],) for idx, e in enumerate(base.edges) if idx != s_edge]
    labels = [f"E1({idx})" for idx in range(base.num_edges) if idx != s_edge]
    pairs = spec.pair_edges()
    seen = {}
    for i, (f, _) in enumerate(pairs):
        if f in seen:
            pos = seen[f]
            labels[pos] = labels[pos][:-1] + f",{i+1})"
            continue
        seen[f] = len(edges)
        edges.append(f)
        labels.append(f"E2({i+1})")
    for i, (_, shifted) in enumerate(pairs):
        edges.append(shifted)
        labels.append(f"E3({i+1})")
    name = f"{base.name}-ext" if base.name else "ext"
    h = PartiteHypergraph._from_canonical(sides, tuple(edges), tuple(labels), name)
    h._spec = spec
    return h


def uniformize(h: PartiteHypergraph) -> PartiteHypergraph:
    """Give each short edge its own fresh tail vertex in the one side it
    misses, producing a uniform hypergraph.  Uniform inputs are returned
    unchanged.  Tail vertices get labels t1, t2, ... in edge order.

    The result records h as its source, and `cover_number` answers its
    decide calls from h: tails come after each side's old vertices, so
    h's vertices keep their (side, pos); every cover of h covers the
    result; and swapping each tail of a cover of the result for another
    vertex of its one edge gives a cover of h, no larger.  So both have
    the same cover number, and h's minimum covers are minimum covers of
    the result."""
    k = h.num_sides
    sizes = {len(e) for e in h.edges}
    if not sizes <= {k - 1, k}:
        raise BadEdgeSizeError(
            f"edge sizes {sorted(sizes)} not within {{{k - 1}, {k}}} for {k} sides"
        )
    if sizes <= {k}:
        return h
    side_labels = [list(s) for s in h.sides]
    all_sides = frozenset(range(k))
    new_edges = []
    counter = 1
    for e in h.edges:
        if len(e) == k:
            new_edges.append(e)
            continue
        (missed,) = all_sides - {s for s, _ in e}
        label = f"{TAIL_LABEL_PREFIX}{counter}"
        counter += 1
        while label in side_labels[missed]:
            label = f"{TAIL_LABEL_PREFIX}{counter}"
            counter += 1
        pos = len(side_labels[missed])
        side_labels[missed].append(label)
        # a fresh vertex in the one side e misses: canonical, and no
        # edge can repeat
        new_edges.append(e[:missed] + ((missed, pos),) + e[missed:])
    name = f"{h.name}-u" if h.name else "uniformized"
    u = PartiteHypergraph._from_canonical(tuple(map(tuple, side_labels)), tuple(new_edges),
                                          h.edge_labels, name)
    u._source = h
    return u


def _anchor_edge(base, s_edge):
    """The anchor edge, base.edges[s_edge], for an index in 0..m-1."""
    if not 0 <= s_edge < base.num_edges:
        raise InvalidSpecError(f"anchor edge index {s_edge} out of range 0..{base.num_edges - 1}")
    return base.edges[s_edge]


def _edges_through(base, v, s_edge):
    """Mask of the edges through vertex v other than edge s_edge."""
    return base.incidence_masks[base.gid(v)] & ~(1 << s_edge)


def select_f_default(base: PartiteHypergraph, s_edge: int) -> ConstructionSpec:
    """Default selection: F_i is the least-indexed edge other than the
    anchor through the side-i anchor vertex."""
    anchor = _anchor_edge(base, s_edge)
    f = []
    for i in range(base.num_sides):
        hits = _edges_through(base, anchor[i], s_edge)
        if not hits:
            raise LineNotFoundError(f"no edge other than the anchor through {anchor[i]}")
        f.append(_lowest(hits))
    return ConstructionSpec(base, s_edge, tuple(f))


@dataclass(frozen=True)
class DegreeProfile:
    """Block sizes x_1..x_t for partitioning the non-first anchor
    vertices; the final block size x_{t+1} = r-1 - sum(x) is derived.

    Strict validity additionally demands t+2 < x_i <= sqrt(r), the
    regime in which distinct profiles force distinct degree multisets.
    """

    r: int
    x: tuple

    @property
    def t(self) -> int:
        return len(self.x)

    @property
    def x_last(self) -> int:
        return self.r - 1 - sum(self.x)

    def structural_errors(self):
        out = []
        if self.t < 1:
            out.append("need at least one block size")
        if any(xi < 1 for xi in self.x):
            out.append("block sizes must be positive")
        if self.x_last < 1:
            out.append(f"derived final block size {self.x_last} must be >= 1")
        if self.t + 1 > self.r - 2:
            out.append(f"need t+1 <= r-2 distinct connector vertices (t={self.t}, r={self.r})")
        return out

    def counting_errors(self):
        out = []
        for xi in self.x:
            if xi <= self.t + 2:
                out.append(f"block size {xi} must exceed t+2 = {self.t + 2}")
            if xi * xi > self.r:
                out.append(f"block size {xi} must be at most sqrt({self.r})")
        return out


def select_f_by_profile(
    base: PartiteHypergraph,
    s_edge: int,
    profile: DegreeProfile,
    strict: bool = True,
) -> ConstructionSpec:
    """Choose the selected edges from a degree profile.

    The non-first anchor vertices are split, in side order, into
    consecutive blocks of sizes x_1..x_{t+1}; every anchor vertex in
    block i gets the unique edge through it and the i-th first-side
    vertex other than the anchor; F_1 is the least-indexed edge through
    the first anchor vertex other than the anchor edge itself.  In a
    truncated plane the side-1 nonzero degrees of the resulting pair
    subhypergraph are {1, 2*x_1, ..., 2*x_{t+1}}.
    """
    r = base.num_sides
    if base.uniformity != r:
        raise InvalidProfileError(f"base must be {r}-uniform on {r} sides")
    if profile.r != r:
        raise InvalidProfileError(f"profile is for r={profile.r}, base has r={r}")
    errs = profile.structural_errors()
    if strict:
        errs += profile.counting_errors()
    if errs:
        raise InvalidProfileError("; ".join(errs))

    anchor = _anchor_edge(base, s_edge)
    connectors = [
        (0, p) for p in range(len(base.sides[0])) if (0, p) != anchor[0]
    ]
    t1 = profile.t + 1
    if t1 > len(connectors):
        raise InvalidProfileError(
            f"first side has only {len(connectors)} non-anchor vertices, need {t1}"
        )

    inc = base.incidence_masks

    def unique_edge_through(u, v):
        hits = inc[base.gid(u)] & inc[base.gid(v)]
        if hits.bit_count() != 1:
            raise LineNotFoundError(
                f"expected exactly one edge through {u} and {v}, found {hits.bit_count()}"
            )
        return _lowest(hits)

    f = [None] * r
    first = _edges_through(base, anchor[0], s_edge)
    if not first:
        raise LineNotFoundError("no edge other than the anchor passes through s_1")
    f[0] = _lowest(first)

    block_sizes = list(profile.x) + [profile.x_last]
    side = 1
    for bi, size in enumerate(block_sizes):
        w = connectors[bi]
        for _ in range(size):
            f[side] = unique_edge_through(anchor[side], w)
            side += 1
    assert side == r
    return ConstructionSpec(base, s_edge, tuple(f))


@dataclass(frozen=True)
class ProfileCount:
    r: int
    delta: Optional[float]
    t: int
    value_lo: int
    value_hi: int
    count: int
    formula_bound: int
    note: str = ""


def profile_count(r: int, delta: Optional[float] = None, t: Optional[int] = None) -> ProfileCount:
    """Number of valid strict block-size multisets {x_1..x_t} with
    values in (t+2, sqrt(r)].  t is given directly or derived as
    floor(r^(0.5-delta)).  A t below 1, or an empty value range, gives
    count 0 with a note that names which.  Raises InvalidProfileError
    when r < 1 or delta gives no finite t."""
    if r < 1:
        raise InvalidProfileError(f"r must be at least 1, got {r}")
    if t is None:
        if delta is None:
            raise ValueError("provide either t or delta")
        if not isfinite(delta):
            raise InvalidProfileError(f"delta must be a finite number, got {delta}")
        try:
            t = int(r ** (0.5 - delta))
        except OverflowError:
            raise InvalidProfileError(f"r^(0.5-delta) overflows at r={r}, delta={delta}") from None
    lo = t + 3
    hi = isqrt(r)
    if t < 1 or hi < lo:  # hi < lo whenever r < 9
        note = (f"degenerate: t={t}, but a profile needs t >= 1" if t < 1
                else f"degenerate range: no values in [{lo}, {hi}]")
        return ProfileCount(r, delta, t, lo, hi, 0, 0, note=note)
    m = hi - lo + 1
    count = comb(m + t - 1, t)
    formula = comb(t + hi - (t + 2) - 1, t)
    return ProfileCount(r, delta, t, lo, hi, count, formula)


def extract_pair_subhypergraph(h: PartiteHypergraph) -> PartiteHypergraph:
    """Sub-hypergraph of exactly the selected edges and their mirrored
    copies (E2/E3 labels), on the same vertex set."""
    if any(lab is None for lab in h.edge_labels):
        raise MissingLabelsError("every edge needs a provenance label")
    keep = [
        (e, lab)
        for e, lab in zip(h.edges, h.edge_labels)
        if lab.startswith("E2(") or lab.startswith("E3(")
    ]
    name = f"{h.name}-pairs" if h.name else "pairs"
    return PartiteHypergraph._from_canonical(
        h.sides, tuple(e for e, _ in keep), tuple(lab for _, lab in keep), name
    )

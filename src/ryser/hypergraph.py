"""Finite partite hypergraphs with mixed edge sizes, predicates, degree
statistics, and the line-oriented .rhg file format.

Vertices are (side, pos) pairs.  Edges are stored as sorted vertex
tuples plus a parallel bitmask over the side-major global numbering, so
intersection tests are single AND operations.  Instances are immutable
after construction.  The constructor validates partiteness,
duplicate-freeness and the edge-size profile (all one size, or two
consecutive sizes).  Builders whose edges are canonical already go
through `_from_canonical`, which re-checks only the edge-size profile:
`loads_rhg`, `without_edge`, `plane.truncate`,
`construct.build_extension`, `construct.uniformize` and
`construct.extract_pair_subhypergraph`.
"""

import os
import re
import tempfile
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DuplicateEdgeError,
    EmptyHypergraphError,
    ParseError,
    PartitenessError,
    UniformityError,
)

Vid = tuple  # (side, pos)


def vid_str(v) -> str:
    return f"{v[0]}.{v[1]}"


def parse_vid(token: str) -> Vid:
    side, _, pos = token.partition(".")
    return (int(side), int(pos))


class PartiteHypergraph:
    """Sided vertex set plus an ordered list of edges.

    Equality covers sides, edge order and edge labels; the name is
    display metadata only.
    """

    __slots__ = ("sides", "edges", "edge_labels", "name", "_masks", "_offsets", "_edge_sets",
                 "_incidence", "_intersecting", "_plane_order", "_search", "_decided",
                 "_source", "_spec")

    def __init__(self, sides, edges, edge_labels=None, name=""):
        sides = tuple(tuple(str(x) for x in side) for side in sides)
        canon = []
        seen = set()
        for e in edges:
            vs = _checked_edge(e, sides)
            if vs in seen:
                raise DuplicateEdgeError(f"duplicate edge {vs}")
            seen.add(vs)
            canon.append(vs)
        if edge_labels is None:
            labels = (None,) * len(canon)
        else:
            labels = tuple(None if l is None else str(l) for l in edge_labels)
        self._init_canonical(sides, tuple(canon), labels, name)

    @classmethod
    def _from_canonical(cls, sides, edges, edge_labels, name):
        """Instance from tuples the caller has already canonicalized: sides
        of str labels, edges as sorted in-range vertex tuples with one
        vertex per side and no duplicates, labels of str or None.  Only the
        edge-size profile and the label count are checked."""
        h = cls.__new__(cls)
        h._init_canonical(sides, edges, edge_labels, name)
        return h

    def _init_canonical(self, sides, edges, edge_labels, name):
        sizes = {len(e) for e in edges}
        if len(sizes) > 1 and (len(sizes) > 2 or max(sizes) - min(sizes) != 1):
            raise UniformityError(f"edge sizes {sorted(sizes)} are not one size or two consecutive sizes")
        if len(edge_labels) != len(edges):
            raise ValueError("edge_labels length mismatch")
        self.sides = sides
        self.edges = edges
        self.edge_labels = edge_labels
        self.name = name
        self._masks = None
        self._offsets = None
        self._edge_sets = None
        self._incidence = None
        self._intersecting = None
        self._plane_order = None  # `truncated_plane_order`'s answer, 0 for None, once asked
        self._search = None  # the solver's search instance, built on first use
        self._decided = None  # the solver's decide results by upper_hint, filled on use
        self._source = None  # the hypergraph `uniformize` made this one from, if any
        self._spec = None  # the spec `construct.build_extension` built this one from, if any

    # --- structure ---

    @property
    def num_sides(self) -> int:
        return len(self.sides)

    @property
    def side_sizes(self):
        return tuple(len(s) for s in self.sides)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        return sum(len(s) for s in self.sides)

    @property
    def offsets(self):
        if self._offsets is None:
            off = [0]
            for s in self.sides:
                off.append(off[-1] + len(s))
            self._offsets = tuple(off)
        return self._offsets

    def gid(self, v) -> int:
        return self.offsets[v[0]] + v[1]

    def vid(self, gid: int) -> Vid:
        off = self.offsets
        if not 0 <= gid < off[-1]:
            raise ValueError(f"gid {gid} out of range 0..{off[-1] - 1}")
        s = bisect_right(off, gid) - 1  # empty sides share their offset with the next
        return (s, gid - off[s])

    def vertices(self):
        for s, side in enumerate(self.sides):
            for p in range(len(side)):
                yield (s, p)

    @property
    def edge_masks(self):
        if self._masks is None:
            off = self.offsets
            self._masks = tuple(
                sum(1 << (off[s] + p) for s, p in e) for e in self.edges
            )
        return self._masks

    @property
    def incidence_masks(self):
        """Per global vertex id, the mask of the edges through that vertex;
        its popcount is the vertex's degree."""
        if self._incidence is None:
            off = self.offsets
            inc = [0] * off[-1]
            bit = 1
            for e in self.edges:
                for s, p in e:
                    inc[off[s] + p] |= bit
                bit <<= 1
            self._incidence = tuple(inc)
        return self._incidence

    @property
    def edge_sets(self):
        if self._edge_sets is None:
            self._edge_sets = tuple(frozenset(e) for e in self.edges)
        return self._edge_sets

    @property
    def uniformity(self):
        """Common edge size, or None if edge sizes are mixed/absent."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def vertex_label(self, v) -> str:
        return self.sides[v[0]][v[1]]

    # --- derived copies ---

    def without_edge(self, index: int) -> "PartiteHypergraph":
        """Copy without edge `index`, a list index: negative counts from
        the end, out of range raises IndexError."""
        i = range(len(self.edges))[index]
        edges = self.edges[:i] + self.edges[i + 1:]
        labels = self.edge_labels[:i] + self.edge_labels[i + 1:]
        return PartiteHypergraph._from_canonical(self.sides, edges, labels, self.name)

    def with_edge(self, vertices, label=None) -> "PartiteHypergraph":
        return PartiteHypergraph(
            self.sides,
            self.edges + (tuple(vertices),),
            self.edge_labels + (label,),
            name=self.name,
        )

    # --- comparisons ---

    def __eq__(self, other):
        return (
            isinstance(other, PartiteHypergraph)
            and self.sides == other.sides
            and self.edges == other.edges
            and self.edge_labels == other.edge_labels
        )

    def __hash__(self):
        return hash((self.sides, self.edges, self.edge_labels))

    def __repr__(self):
        return (
            f"PartiteHypergraph({self.name or 'unnamed'}: "
            f"{self.num_sides} sides, {self.num_edges} edges)"
        )


def _checked_edge(e, sides):
    """Canonical sorted vertex tuple of one edge, converting and checking
    vertex by vertex; raises on the first bad vertex in sorted order."""
    k = len(sides)
    vs = tuple(sorted((int(s), int(p)) for s, p in e))
    if not vs:
        raise UniformityError("empty edge")
    used = set()
    for s, p in vs:
        if not (0 <= s < k) or not (0 <= p < len(sides[s])):
            raise ValueError(f"vertex {s}.{p} out of range")
        if s in used:
            raise PartitenessError(f"edge {vs} has two vertices in side {s}")
        used.add(s)
    return vs


# --- predicates & statistics ---


def is_intersecting(h: PartiteHypergraph):
    """(True, None) if every pair of edges shares a vertex, else
    (False, (i, j)) with the first disjoint pair in (i, j) order.

    Each edge ORs the incident-edge masks of its vertices, so the cost is
    O(m*r) mask operations rather than m^2/2 pair tests.  The answer is
    kept on the hypergraph, so later calls return it at once."""
    if h._intersecting is None:
        h._intersecting = _first_disjoint_pair(h)
    return h._intersecting


def _first_disjoint_pair(h):
    if h.num_edges == 0:
        raise EmptyHypergraphError("intersecting is undefined without edges")
    off = h.offsets
    incident = h.incidence_masks
    full = (1 << h.num_edges) - 1
    for i, e in enumerate(h.edges):
        meet = 0
        for s, p in e:
            meet |= incident[off[s] + p]
        missed = (full ^ meet) >> (i + 1)
        if missed:
            return False, (i, i + (missed & -missed).bit_length())
    return True, None


def truncated_plane_order(base: PartiteHypergraph):
    """q when `base` passes the truncated-plane test below, else None.
    Then, for every edge S, the base minus S has cover number q = r-1
    and its only minimum covers are the r sides.  The answer is kept on
    the base, so later calls return it at once.

    The test: every side has q = r-1 >= 3 vertices, every edge has r,
    there are q^2 edges, the base is intersecting, and any two edges
    share at most one vertex.  Given intersecting, the last holds
    exactly when the degrees of each edge's vertices sum to
    (m - 1) + r: the sum counts the edge itself r times and every
    other edge once per shared vertex.  Cost: O(m*r) integer
    operations once `is_intersecting` is known.

    The argument.  Each edge holds one vertex pair of any two sides,
    two edges never the same one, and there are q^2 edges and q^2 such
    pairs: so any two vertices of different sides lie on exactly one
    edge, and every vertex has degree q.  In the base minus S (q^2-1
    edges) the anchor vertices have degree q-1.  At most q-1 vertices
    meet at most q(q-1) < q^2-1 edges, and the sides are covers, so tau
    is q.  A q-cover C with a anchor vertices has degree sum q^2-a:
    a >= 2 is too little.  With a = 1 it meets every edge once, so C
    has no vertex outside the anchor's side: the edge through such a
    vertex and the anchor vertex is not S, as a = 1, and would be met
    twice.  So C is that side.  With a = 0 exactly one edge is met
    twice.  Each pair of C's vertices in different sides lies on an
    edge met twice (not S, which misses C), and such an edge holds one
    pair, so C has exactly one pair in different sides: q = 2."""
    if base._plane_order is None:
        base._plane_order = _plane_test(base) or 0
    return base._plane_order or None


def _plane_test(base):
    r = base.num_sides
    q = r - 1
    if q < 3 or base.side_sizes != (q,) * r or base.num_edges != q * q:
        return None
    if base.uniformity != r or not is_intersecting(base)[0]:
        return None
    degree = [mask.bit_count() for mask in base.incidence_masks]
    off = base.offsets
    each = q * q - 1 + r
    for e in base.edges:
        if sum(degree[off[s] + p] for s, p in e) != each:
            return None
    return q


def intersection_size_profile(h: PartiteHypergraph) -> Counter:
    """Multiset of |e_i ∩ e_j| over all unordered edge pairs."""
    masks = h.edge_masks
    m = len(masks)
    out = Counter()
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            out[(mi & masks[j]).bit_count()] += 1
    return out


@dataclass(frozen=True)
class DegreeStats:
    side_degrees: tuple   # per side: ascending degree tuple
    degrees: tuple        # all vertices, ascending
    by_vertex: tuple      # per global vertex id

    def nonzero(self, side: int):
        return tuple(d for d in self.side_degrees[side] if d)


def degree_stats(h: PartiteHypergraph) -> DegreeStats:
    """Vertex degrees, read as popcounts of `incidence_masks`."""
    deg = tuple(mask.bit_count() for mask in h.incidence_masks)
    off = h.offsets
    per_side = tuple(tuple(sorted(deg[off[s]:off[s + 1]])) for s in range(h.num_sides))
    return DegreeStats(per_side, tuple(sorted(deg)), deg)


# --- .rhg text format ---
#
#   rhg 1 <num_sides>
#   s <side_index> <vertex_label> ...
#   e ["<label>"] <side.pos> <side.pos> ...
#
# '#' starts a comment outside quotes; vertex refs are 0-based.


def _check_label_token(text, what):
    if '"' in text:
        raise ValueError(f'{what} {text!r} contains a double quote')
    if what == "vertex label" and (not text or any(c.isspace() for c in text) or text.startswith("#")):
        raise ValueError(f"{what} {text!r} must be nonempty, unquoted-safe")
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{what} {text!r} contains a line break")


def dumps_rhg(h: PartiteHypergraph) -> str:
    lines = [f"rhg 1 {h.num_sides}"]
    for i, side in enumerate(h.sides):
        for lab in side:
            _check_label_token(lab, "vertex label")
        lines.append(" ".join(["s", str(i), *side]))
    ref = [[vid_str((s, p)) for p in range(len(side))] for s, side in enumerate(h.sides)]
    for e, lab in zip(h.edges, h.edge_labels):
        refs = " ".join([ref[s][p] for s, p in e])
        if lab is None:
            lines.append(f"e {refs}")
        else:
            _check_label_token(lab, "edge label")
            lines.append(f'e "{lab}" {refs}')
    return "\n".join(lines) + "\n"


# One match per token: a quoted label, an unterminated quote, a comment
# start, or a bare word running to the next whitespace.
_TOKEN = re.compile(r'"([^"]*)"|(")|(#)|([^\s"#]\S*)')


def _tokenize(line, lineno):
    """Split into (text, was_quoted) tokens; '#' outside quotes ends the line."""
    out = []
    for quoted, unterminated, comment, word in _TOKEN.findall(line):
        if word:
            out.append((word, False))
        elif comment:
            break
        elif unterminated:
            raise ParseError("unterminated quoted label", lineno)
        else:
            out.append((quoted, True))
    return out


def _split_edge_line(line):
    """(label or None, vertex refs) of an edge line with at least one ref,
    no '#' and no '"' other than around one label right after the 'e',
    read with str.split; None for any other line.  _tokenize reads these
    lines into the same tokens: str.split and its regular expression agree
    on what is whitespace, and without '#' or '"' every token is a bare
    word."""
    if "#" in line:
        return None
    quotes = line.count('"')
    if quotes == 0:
        words = line.split()
        if len(words) > 1 and words[0] == "e":
            return None, words[1:]
    elif quotes == 2:
        head, label, tail = line.split('"')
        words = tail.split()
        # the opening quote must start a token, so whitespace precedes it
        if words and head.split() == ["e"] and head[-1].isspace():
            return label, words
    return None


def _edge_vertices(toks, sides, lineno):
    """Vertex refs of an edge line, parsed and range-checked one by one."""
    verts = []
    for t, quoted in toks:
        if quoted:
            raise ParseError("quoted label must come first in an edge line", lineno)
        try:
            v = parse_vid(t)
        except ValueError:
            raise ParseError(f"bad vertex ref {t!r}", lineno) from None
        if not (0 <= v[0] < len(sides)) or not (0 <= v[1] < len(sides[v[0]])):
            raise ParseError(f"vertex ref {t} out of range", lineno)
        verts.append(v)
    return verts


def _ref_table(sides, num_sides, lineno):
    """"s.p" -> (s, p) for every vertex, built at the first edge line."""
    if len(sides) != num_sides:
        raise ParseError(f"got {len(sides)} side lines, header says {num_sides}", lineno)
    return {vid_str((s, p)): (s, p) for s, side in enumerate(sides) for p in range(len(side))}


def loads_rhg(text: str, name: str = "") -> PartiteHypergraph:
    """Parse .rhg text, checking every edge once, with line-numbered errors.

    After the header, a line that _split_edge_line reads and whose refs
    are all in the ref table skips the tokenizer.  Every other line goes
    through _tokenize, and a ref the table lacks through _edge_vertices."""
    sides = []
    edges = []
    labels = []
    num_sides = None
    refs = None  # set at the first edge line; side lines may not follow
    seen_edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        verts = None
        if num_sides is not None:
            split = _split_edge_line(raw)
            if split is not None:
                if refs is None:
                    refs = _ref_table(sides, num_sides, lineno)
                label, words = split
                verts = [*map(refs.get, words)]
                if None in verts:
                    verts = None
        if verts is None:
            toks = _tokenize(raw, lineno)
            if not toks:
                continue
            head = toks[0][0]
            if num_sides is None:
                if head != "rhg" or len(toks) != 3 or toks[1][0] != "1":
                    raise ParseError("expected header 'rhg 1 <num_sides>'", lineno)
                try:
                    num_sides = int(toks[2][0])
                except ValueError:
                    raise ParseError("bad side count in header", lineno) from None
                if num_sides < 1:
                    raise ParseError("side count must be >= 1", lineno)
                continue
            if head == "s":
                if refs is not None:
                    raise ParseError("side line after edge lines", lineno)
                if len(toks) < 2 or toks[1][1]:
                    raise ParseError("expected 's <side_index> <labels...>'", lineno)
                try:
                    idx = int(toks[1][0])
                except ValueError:
                    raise ParseError("bad side index", lineno) from None
                if idx != len(sides):
                    raise ParseError(f"side index {idx}, expected {len(sides)}", lineno)
                sides.append(tuple(t for t, _ in toks[2:]))
                continue
            if head != "e":
                raise ParseError(f"unknown directive {head!r}", lineno)
            if refs is None:
                refs = _ref_table(sides, num_sides, lineno)
            rest = toks[1:]
            label = None
            if rest and rest[0][1]:
                label = rest[0][0]
                rest = rest[1:]
            if not rest:
                raise ParseError("edge with no vertices", lineno)
            verts = [None if quoted else refs.get(t) for t, quoted in rest]
            if None in verts:
                verts = _edge_vertices(rest, sides, lineno)
        vs = tuple(sorted(verts))
        if len(dict(vs)) != len(vs):  # one key per side
            raise PartitenessError(f"line {lineno}: edge repeats a side")
        if seen_edges.setdefault(vs, lineno) != lineno:
            raise DuplicateEdgeError(
                f"line {lineno}: duplicates edge from line {seen_edges[vs]}"
            )
        edges.append(vs)
        labels.append(label)
    if num_sides is None:
        raise ParseError("empty file", 1)
    if refs is None and len(sides) != num_sides:
        raise ParseError(f"got {len(sides)} side lines, header says {num_sides}", lineno)
    return PartiteHypergraph._from_canonical(tuple(sides), tuple(edges), tuple(labels), name)


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_rhg(h: PartiteHypergraph, path):
    atomic_write_text(path, dumps_rhg(h))


def read_rhg(path) -> PartiteHypergraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return loads_rhg(text, name=stem)

"""Finite partite hypergraphs with mixed edge sizes, predicates, degree
statistics, and the line-oriented .rhg file format.

Vertices are (side, pos) pairs.  Edges are stored as sorted vertex
tuples plus a parallel bitmask over the side-major global numbering, so
intersection tests are single AND operations.  Instances are immutable
after construction, so every value one derives from its own sides and
edges is a `functools.cached_property`, computed on first read and kept
in the instance: the views `offsets`, `edge_gids` (per edge, the global
ids of its vertices, the one map from an edge's vertices to ids, which
every edge walk reads), `edge_masks`, `incidence_masks`, `edge_meets`
(per edge, the edges that share a vertex with it), and the answers of
`is_intersecting` and `truncated_plane_order`.  `uniformity` is set by
the constructor, from the edge sizes it checks.  Every hypergraph
builds its `edge_gids` and `incidence_masks` by one walk of its own
edges.  A uniformized copy (`_source` set) reads its source's answer of
`is_intersecting`.
`edge_meets` is built on its first read, which `is_intersecting` makes
on most hypergraphs; an extension of a plane base known to be
intersecting answers it from its spec's `selection` alone, building
none of its rows or masks, when that proves it intersecting.  So it
builds `edge_meets` only when that test does not answer or something
else reads it.

The constructor validates partiteness, duplicate-freeness and the
edge-size profile (all one size, or two consecutive sizes).  Builders
whose edges are canonical already go through `_from_canonical`, which
re-checks only the edge-size profile: `loads_rhg`, `without_edge`,
`plane.truncate`, `construct.build_extension`, `construct.uniformize`
and `construct.extract_pair_subhypergraph`.  `loads_rhg` reads an edge
line in a form `dumps_rhg` writes with one split and one table lookup
per ref, and does not sort an edge that names every side in side order.
"""

import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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


# The integers of a .rhg file: ASCII decimal, optionally signed, unlike
# int(), which also reads '1_0' and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_vid(token: str) -> Vid:
    side, _, pos = token.partition(".")
    return (_decimal(side), _decimal(pos))


class PartiteHypergraph:
    """Sided vertex set plus an ordered list of edges.

    Equality covers sides, edge order and edge labels; the name is
    display metadata only.
    """

    # Links other modules set on an instance; None until they do.
    _search = None  # the solver's search instance, built on first use
    _decided = None  # the solver's one decide result, whatever the hint, once searched
    _source = None  # the hypergraph `uniformize` made this one from, if any
    _spec = None  # the spec `construct.build_extension` built this one from, if any

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
        self.uniformity = min(sizes) if len(sizes) == 1 else None  # the common edge size, if any

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

    @cached_property
    def offsets(self):
        off = [0]
        for s in self.sides:
            off.append(off[-1] + len(s))
        return tuple(off)

    def gid(self, v) -> int:
        s, p = v
        if not (0 <= s < len(self.sides) and 0 <= p < len(self.sides[s])):
            raise ValueError(f"vertex {s}.{p} out of range: side sizes {self.side_sizes}")
        return self.offsets[s] + p

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

    @cached_property
    def edge_gids(self):
        """Per edge, the global ids of its vertices in order."""
        off = self.offsets
        return tuple([tuple([off[s] + p for s, p in e]) for e in self.edges])

    @cached_property
    def edge_masks(self):
        return tuple(sum([1 << g for g in row]) for row in self.edge_gids)

    @cached_property
    def incidence_masks(self):
        """Per global vertex id, the mask of the edges through that vertex;
        its popcount is the vertex's degree."""
        inc = [0] * self.offsets[-1]
        bit = 1
        for row in self.edge_gids:
            for g in row:
                inc[g] |= bit
            bit <<= 1
        return tuple(inc)

    @cached_property
    def edge_meets(self):
        """Per edge, the mask of the edges that share a vertex with it,
        itself included: the OR of its vertices' incidence masks, built
        on first read."""
        inc = self.incidence_masks
        out = []
        for row in self.edge_gids:
            meet = 0
            for g in row:
                meet |= inc[g]
            out.append(meet)
        return tuple(out)

    @cached_property
    def _intersecting(self):
        """`is_intersecting`'s answer.  A uniformized copy takes its
        source's: its tails are private and it keeps edge order.

        An extension whose base is known to be intersecting and passes
        `truncated_plane_order` answers (True, None) from its spec's
        `selection` alone, reading none of its rows or masks, when every
        F_j holds s_j and no two sets F_i - s_i are disjoint
        (`validate_spec`'s selected-overlap test).  Proof: two edges of a
        plane share exactly one vertex, and every edge but the anchor S
        meets S once.  E1 and E2 edges hold base edges, so any two of
        them meet.  An E1 edge E + v_i meets E3(j), F_j - s_j + v_j, in
        v_j when i = j; otherwise E meets S only in s_i, so s_j is not on
        E, and E meets F_j in F_j - s_j: in its one vertex shared with
        F_j, or in all of F_j - s_j when E is F_j.  E3(j) holds F_j - s_j,
        which lies in F_j and meets every F_i - s_i, i != j, by the
        overlap test, so it meets every E2 edge F_i and every E3(i).
        (The proof does not need F_j to hold s_j; the test asks it so
        that it answers the specs `cover_number` answers from
        `selection`, those of valid constructions.)

        Every other input walks its `edge_meets`, which names the first
        disjoint pair."""
        if not self.edges:
            raise EmptyHypergraphError("intersecting is undefined without edges")
        if self._source is not None:
            return self._source._intersecting
        spec = self._spec
        if (spec is not None and vars(spec.base).get("_intersecting", (False,))[0]
                and spec.base._plane_order is not None):
            sel = spec.selection
            if all(sel.holds) and not sel.disjoint:
                return True, None
        full = (1 << len(self.edges)) - 1
        for i, meet in enumerate(self.edge_meets):
            missed = (full ^ meet) >> (i + 1)
            if missed:
                return False, (i, i + (missed & -missed).bit_length())
        return True, None

    @cached_property
    def _plane_order(self):
        """`truncated_plane_order`'s answer."""
        r = self.num_sides
        q = r - 1
        if q < 3 or self.side_sizes != (q,) * r or self.num_edges != q * q:
            return None
        if self.uniformity != r or not is_intersecting(self)[0]:
            return None
        degree = [mask.bit_count() for mask in self.incidence_masks]
        each = q * q - 1 + r
        for row in self.edge_gids:
            if sum([degree[g] for g in row]) != each:
                return None
        return q

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

    Each edge's `edge_meets` mask, the OR of its vertices' incident-edge
    masks, names the edges it meets, so the cost is O(m*r) mask
    operations rather than m^2/2 pair tests, building `edge_meets`.  An
    extension of a plane base known to be intersecting answers from its
    spec's `selection` when that proves it intersecting, in O(r^2)
    operations on spec data (see `_intersecting`); a uniformized copy
    returns its source's answer.  The answer is a cached property of the
    hypergraph, so later calls return it at once."""
    return h._intersecting


def truncated_plane_order(base: PartiteHypergraph):
    """q when `base` passes the truncated-plane test below, else None.
    Then, for every edge S, the base minus S has cover number q = r-1
    and its only minimum covers are the r sides.  The answer is a
    cached property of the base, so later calls return it at once.

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
    return base._plane_order


@dataclass(frozen=True)
class DegreeStats:
    side_degrees: tuple   # per side: ascending degree tuple
    degrees: tuple        # all vertices, ascending

    def nonzero(self, side: int):
        return tuple(d for d in self.side_degrees[side] if d)


def degree_stats(h: PartiteHypergraph) -> DegreeStats:
    """Vertex degrees, read as popcounts of `incidence_masks`."""
    deg = tuple(mask.bit_count() for mask in h.incidence_masks)
    off = h.offsets
    per_side = tuple(tuple(sorted(deg[off[s]:off[s + 1]])) for s in range(h.num_sides))
    return DegreeStats(per_side, tuple(sorted(deg)))


# --- .rhg text format ---
#
#   rhg 1 <num_sides>
#   s <side_index> <vertex_label> ...
#   e ["<label>"] <side.pos> <side.pos> ...
#
# '#' starts a comment outside quotes; vertex refs are 0-based.  The side
# count, a side index and both halves of a ref are ASCII decimal, with an
# optional sign (`_decimal`).  Only an edge label is quoted: a '"' in a
# token of the header or of a side line is a parse error, as `dumps_rhg`
# could not write that label back.


def _check_label_token(text, what):
    if '"' in text:
        raise ValueError(f'{what} {text!r} contains a double quote')
    if what == "vertex label" and (not text or any(c.isspace() for c in text) or text.startswith("#")):
        raise ValueError(f"{what} {text!r} must be nonempty, unquoted-safe")
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{what} {text!r} contains a line break")


# A '"' or a str.splitlines break: what no label may hold.
_QUOTE_OR_BREAK = re.compile('["\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]')


def _word_label_error(labels, what):
    """Raise `_check_label_token`'s error for the first bad label."""
    for lab in labels:
        _check_label_token(lab, what)


def dumps_rhg(h: PartiteHypergraph) -> str:
    """The .rhg text of h.  Labels are checked a line or a file at once:
    a side line is safe when str.split gives back its words (no vertex
    label is empty or holds whitespace, and every line break is
    whitespace) and it holds no '"' and no ' #'; the edge labels, when
    their join holds no quote and no line break.  `_check_label_token`
    then only words the error of the first bad label.  A hypergraph with
    no sides is refused as well: `loads_rhg` reads no side count below 1."""
    if not h.num_sides:
        raise ValueError("a hypergraph with no sides has no .rhg text")
    lines = [f"rhg 1 {h.num_sides}"]
    for i, side in enumerate(h.sides):
        words = ["s", str(i), *side]
        line = " ".join(words)
        if line.split() != words or '"' in line or " #" in line:
            _word_label_error(side, "vertex label")
        lines.append(line)
    labelled = [lab for lab in h.edge_labels if lab is not None]
    if _QUOTE_OR_BREAK.search(" ".join(labelled)):
        _word_label_error(labelled, "edge label")
    ref = [[vid_str((s, p)) for p in range(len(side))] for s, side in enumerate(h.sides)]
    for e, lab in zip(h.edges, h.edge_labels):
        refs = " ".join([ref[s][p] for s, p in e])
        lines.append(f"e {refs}" if lab is None else f'e "{lab}" {refs}')
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


def _read_line(line, lineno):
    """(token texts, positions of the quoted tokens) of one line.  A line
    with no '#' and no '"' is read with str.split, every other line
    through _tokenize.  Both read such a line into the same tokens:
    str.split and its regular expression agree on what is whitespace,
    and without '#' or '"' every token is a bare word."""
    if "#" not in line and '"' not in line:
        return line.split(), ()
    toks = _tokenize(line, lineno)
    return [t for t, _ in toks], tuple(i for i, (_, quoted) in enumerate(toks) if quoted)


def _ref_table(sides, num_sides, lineno):
    """The "s.p" -> (s, p) table of every vertex, built at the first edge
    line once the side count is checked."""
    if len(sides) != num_sides:
        raise ParseError(f"got {len(sides)} side lines, header says {num_sides}", lineno)
    return {vid_str((s, p)): (s, p) for s, side in enumerate(sides) for p in range(len(side))}


def _edge_vertices(words, quoted, start, sides, lineno):
    """Vertex refs words[start:] of an edge line, parsed and range-checked
    one by one in file order."""
    verts = []
    for i in range(start, len(words)):
        t = words[i]
        if i in quoted:
            raise ParseError("quoted label must come first in an edge line", lineno)
        try:
            v = parse_vid(t)
        except ValueError:
            raise ParseError(f"bad vertex ref {t!r}", lineno) from None
        if not (0 <= v[0] < len(sides)) or not (0 <= v[1] < len(sides[v[0]])):
            raise ParseError(f"vertex ref {t} out of range", lineno)
        verts.append(v)
    return verts


def loads_rhg(text: str, name: str = "") -> PartiteHypergraph:
    """Parse .rhg text, checking every edge once, with line-numbered errors.

    An edge line in a form `dumps_rhg` writes, 'e <refs>' or
    'e "<label>" <refs>' with no other quote, is split at its quotes, if
    it has any, then its refs at whitespace, and each ref is looked up
    once in the "s.p" -> (s, p) table of every vertex, which the first
    edge line builds once it has checked the side count.  A '#' outside
    the label, which starts a comment, lands in a token the table lacks.
    Every other line, and an edge line with a token the table lacks,
    goes through _read_line and one header / 's' / 'e' dispatch, and its
    refs through _edge_vertices, one by one.  An edge that names one
    vertex of every side, in side order, is sorted and partite already;
    any other edge is sorted and checked for a repeated side."""
    sides = []
    edges = []
    labels = []
    num_sides = None
    in_order = None  # [0, ..., num_sides - 1], the sides of a full edge in order
    refs = None  # set at the first edge line; side lines may not follow
    seen_edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        verts = None
        if num_sides is not None:
            rs = None
            if '"' not in raw:
                if raw.startswith("e "):
                    label, rs = None, raw[2:].split()
            elif raw.startswith('e "'):
                parts = raw.split('"')
                if len(parts) == 3:
                    label, rs = parts[1], parts[2].split()
            if rs:
                if refs is None:
                    refs = _ref_table(sides, num_sides, lineno)
                try:
                    verts = [*map(refs.__getitem__, rs)]
                except KeyError:  # a ref the table lacks, or a '#' outside the label
                    pass
        if verts is None:
            words, quoted = _read_line(raw, lineno)
            if not words:
                continue
            head = words[0]
            if num_sides is None:
                if head != "rhg" or len(words) != 3 or words[1] != "1" or quoted:
                    raise ParseError("expected header 'rhg 1 <num_sides>'", lineno)
                try:
                    num_sides = _decimal(words[2])
                except ValueError:
                    raise ParseError("bad side count in header", lineno) from None
                if num_sides < 1:
                    raise ParseError("side count must be >= 1", lineno)
                in_order = [*range(num_sides)]
                continue
            if head == "s":
                if refs is not None:
                    raise ParseError("side line after edge lines", lineno)
                if len(words) < 2 or quoted or ('"' in raw and any('"' in w for w in words)):
                    raise ParseError("expected 's <side_index> <labels...>'", lineno)
                try:
                    idx = _decimal(words[1])
                except ValueError:
                    raise ParseError("bad side index", lineno) from None
                if idx != len(sides):
                    raise ParseError(f"side index {idx}, expected {len(sides)}", lineno)
                sides.append(tuple(words[2:]))
                continue
            if head != "e":
                raise ParseError(f"unknown directive {head!r}", lineno)
            if refs is None:
                refs = _ref_table(sides, num_sides, lineno)
            label = words[1] if 1 in quoted else None
            start = 1 if label is None else 2
            if len(words) == start:
                raise ParseError("edge with no vertices", lineno)
            verts = _edge_vertices(words, quoted, start, sides, lineno)
        if [s for s, _ in verts] == in_order:
            vs = tuple(verts)
        else:
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
    """Write `text` to a fresh uniquely named file beside `path`, then
    rename it over `path`.  The file is created with mode 0o666 less the
    umask, as `open(path, "w")` creates one; an existing file's mode is
    not kept."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(d, f".tmp-{os.urandom(6).hex()}.part")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:  # a name in use: draw another
            pass
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{os.fspath(path)} is not UTF-8 text: {e}") from None
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return loads_rhg(text, name=stem)

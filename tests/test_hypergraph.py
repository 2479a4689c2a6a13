"""PartiteHypergraph construction rules, predicates, and .rhg round trips."""

import os
import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ryser import hypergraph
from ryser.construct import (
    DegreeProfile,
    build_extension,
    select_f_by_profile,
    select_f_default,
    uniformize,
)
from ryser.errors import (
    DuplicateEdgeError,
    EmptyHypergraphError,
    ParseError,
    PartitenessError,
    RyserError,
    UniformityError,
)
from ryser.gf import FiniteField
from ryser.hypergraph import (
    PartiteHypergraph,
    _tokenize,
    atomic_write_text,
    degree_stats,
    dumps_rhg,
    is_intersecting,
    loads_rhg,
    read_rhg,
    write_rhg,
)
from ryser.plane import build_plane, truncate

from oracles import intersection_size_profile


@pytest.fixture(scope="module")
def t4():
    return truncate(build_plane(FiniteField(3)))


def test_constructor_validation():
    sides = [["a", "b"], ["c", "d"]]
    with pytest.raises(PartitenessError):
        PartiteHypergraph(sides, [[(0, 0), (0, 1)]])
    with pytest.raises(DuplicateEdgeError):
        PartiteHypergraph(sides, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    with pytest.raises(UniformityError):
        PartiteHypergraph([["a"], ["b"], ["c"]], [[(0, 0)], [(0, 0), (1, 0), (2, 0)]])
    with pytest.raises(ValueError):
        PartiteHypergraph(sides, [[(0, 0), (2, 0)]])
    # mixed consecutive sizes are fine
    h = PartiteHypergraph(sides, [[(0, 0)], [(0, 1), (1, 0)]])
    assert h.uniformity is None


def test_gid_vid_roundtrip(t4):
    # an empty side shares its offset with the next side
    uneven = PartiteHypergraph([["a"], [], ["b", "c", "d"], ["e", "f"]],
                               [[(0, 0), (2, 1)], [(2, 2), (3, 1)]])
    for h in (t4, uneven):
        assert [h.gid(v) for v in h.vertices()] == list(range(h.num_vertices))
        for v in h.vertices():
            assert h.vid(h.gid(v)) == v
        for gid in (-1, h.num_vertices, h.num_vertices + 5):
            with pytest.raises(ValueError, match="out of range"):
                h.vid(gid)
    # a position past its side, a side before the first, a negative
    # position, a side past the last, and a vertex of an empty side
    for h, v in ((t4, (0, 3)), (t4, (-1, 0)), (t4, (0, -1)), (t4, (4, 0)), (uneven, (1, 0))):
        with pytest.raises(ValueError, match="out of range"):
            h.gid(v)


def test_is_intersecting(t4):
    ok, wit = is_intersecting(t4)
    assert ok and wit is None
    h = PartiteHypergraph([["a", "b"], ["c", "d"]], [[(0, 0)], [(0, 1)]])
    ok, wit = is_intersecting(h)
    assert not ok and wit == (0, 1)
    with pytest.raises(EmptyHypergraphError):
        is_intersecting(PartiteHypergraph([["a"]], []))


def test_is_intersecting_answer_is_cached(t4):
    extra = ((0, 1),) + tuple((s, 0) for s in range(1, t4.num_sides))
    for h in (t4.without_edge(0), t4.with_edge(extra)):
        first = is_intersecting(h)
        # a second call must not rebuild the answer from the masks
        h.incidence_masks = ()
        assert is_intersecting(h) is first
        assert first == reference_is_intersecting(h)
    assert not first[0]


def test_single_edge_profile_empty():
    h = PartiteHypergraph([["a"], ["b"]], [[(0, 0), (1, 0)]])
    assert intersection_size_profile(h) == {}
    ok, _ = is_intersecting(h)
    assert ok


def test_t4_profile_all_ones(t4):
    prof = intersection_size_profile(t4)
    assert prof == {1: 36}


@pytest.mark.parametrize("q,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)])
def test_truncated_plane_profiles_all_ones(q, p, k):
    t = truncate(build_plane(FiniteField(p, k)))
    prof = intersection_size_profile(t)
    m = q * q
    assert prof == {1: m * (m - 1) // 2}


def test_degree_sum_equals_edge_size_sum(t4):
    for h in (t4, t4.without_edge(0)):
        st = degree_stats(h)
        assert sum(st.degrees) == sum(len(e) for e in h.edges)


def test_degree_stats(t4):
    st = degree_stats(t4)
    assert st.degrees == (3,) * 12
    assert all(side == (3, 3, 3) for side in st.side_degrees)
    empty = PartiteHypergraph([["a", "b"], ["c"]], [])
    st2 = degree_stats(empty)
    assert st2.degrees == (0, 0, 0)
    assert st2.nonzero(0) == ()


def test_rhg_roundtrip_structure(t4, tmp_path):
    p = tmp_path / "t4.rhg"
    write_rhg(t4, p)
    back = read_rhg(p)
    assert back == t4
    # canonical files round-trip byte-exactly
    assert dumps_rhg(back) == p.read_text()


def test_written_files_take_the_mode_a_plain_open_gives(t4, tmp_path):
    # the temporary file used to keep mkstemp's 0600 whatever the umask,
    # and an overwrite reset the mode to it
    def mode(path):
        return stat.S_IMODE(os.stat(path).st_mode)

    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            plain = tmp_path / f"plain-{umask:o}"
            with open(plain, "w"):
                pass
            text, rhg = tmp_path / f"text-{umask:o}", tmp_path / f"t4-{umask:o}.rhg"
            for _ in range(2):  # a new file, then an overwrite
                atomic_write_text(text, "x\n")
                write_rhg(t4, rhg)
                assert mode(text) == mode(rhg) == mode(plain) == 0o666 & ~umask
    finally:
        os.umask(old)
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_rhg_labels_roundtrip():
    h = PartiteHypergraph(
        [["a", "b"], ["c"]],
        [[(0, 0), (1, 0)], [(0, 1), (1, 0)]],
        edge_labels=["E2(1)", None],
    )
    back = loads_rhg(dumps_rhg(h))
    assert back == h
    assert back.edge_labels == ("E2(1)", None)


def test_rhg_comments_and_spacing():
    text = """# leading comment
rhg 1 2
s 0 a b   # inline comment
s 1 c
e "with # inside" 0.0 1.0
e 0.1   1.0
"""
    h = loads_rhg(text)
    assert h.edge_labels[0] == "with # inside"
    assert h.num_edges == 2


def test_rhg_parse_errors():
    with pytest.raises(ParseError):
        loads_rhg("")
    with pytest.raises(ParseError):
        loads_rhg("rhg 2 1\ns 0 a\n")
    with pytest.raises(ParseError):
        loads_rhg("rhg 1 2\ns 0 a\ns 1 b\ne 0.0 5.0\n")
    with pytest.raises(ParseError):
        loads_rhg('rhg 1 1\ns 0 a\ne "unterminated 0.0\n')
    with pytest.raises(ParseError):
        loads_rhg("rhg 1 2\ns 1 a\n")
    with pytest.raises(ParseError):
        loads_rhg("rhg 1 1\ns 0 a\nx 0.0\n")
    with pytest.raises(ParseError) as ei:
        loads_rhg("rhg 1 2\ns 0 a\ns 1 b\ne 0.0 zz\n")
    assert "line 4" in str(ei.value)


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\x1cb", "a\u2028b", "a\x85b", "ab\r\n"])
def test_rhg_rejects_edge_label_with_line_break(label):
    h = PartiteHypergraph([["a"], ["b"]], [[(0, 0), (1, 0)]], edge_labels=[label])
    with pytest.raises(ValueError) as ei:
        dumps_rhg(h)
    assert str(ei.value) == f"edge label {label!r} contains a line break"


def test_rhg_partiteness_and_duplicates():
    with pytest.raises(PartitenessError):
        loads_rhg("rhg 1 2\ns 0 a b\ns 1 c\ne 0.0 0.1\n")
    with pytest.raises(DuplicateEdgeError):
        loads_rhg("rhg 1 2\ns 0 a\ns 1 b\ne 0.0 1.0\ne 1.0 0.0\n")


def test_without_and_with_edge(t4):
    h = t4.without_edge(0)
    assert h.num_edges == 8
    assert h.edges == t4.edges[1:]
    h2 = h.with_edge(t4.edges[0], label="back")
    assert h2.num_edges == 9
    assert h2.edge_labels[-1] == "back"


# --- fast paths against the slow code they replaced ---


def outcome(f, *args):
    """Result of f, or the type name and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc).__name__, str(exc)


def reference_tokenize(line, lineno):
    """Character-by-character tokenizer."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            break
        if c == '"':
            j = line.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated quoted label", lineno)
            out.append((line[i + 1:j], True))
            i = j + 1
        else:
            j = i
            while j < n and not line[j].isspace():
                j += 1
            out.append((line[i:j], False))
            i = j
    return out


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet=' \t"#ab.1\x0b\x1c', max_size=24))
def test_tokenize_matches_character_loop(line):
    assert outcome(_tokenize, line, 7) == outcome(reference_tokenize, line, 7)


def reference_is_intersecting(h):
    """Every pair of edge masks in (i, j) order."""
    masks = h.edge_masks
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not masks[i] & masks[j]:
                return False, (i, j)
    return True, None


@st.composite
def small_partite_hypergraphs(draw):
    """1-4 sides of 1-3 vertices and up to 40 distinct edges of one size;
    with few vertices per side, about a third of the draws intersect."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k = rnd.randint(1, 4)
    side_sizes = [rnd.randint(1, 3) for _ in range(k)]
    size = rnd.randint(max(1, k - 1), k)
    edges = []
    for _ in range(rnd.randint(1, 40)):
        e = tuple(sorted((s, rnd.randrange(side_sizes[s])) for s in rnd.sample(range(k), size)))
        if e not in edges:
            edges.append(e)
    return PartiteHypergraph([["x"] * n for n in side_sizes], edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_partite_hypergraphs())
def test_is_intersecting_matches_pair_scan(h):
    assert is_intersecting(h) == reference_is_intersecting(h)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_partite_hypergraphs())
def test_incidence_masks_transpose_edge_masks(h):
    inc = h.incidence_masks
    assert len(inc) == h.num_vertices
    for g, mask in enumerate(inc):
        assert mask == sum(1 << i for i, em in enumerate(h.edge_masks) if em >> g & 1)
    assert h.incidence_masks is inc
    if h.num_edges > 1:
        rest = h.without_edge(0)
        assert rest.incidence_masks == tuple(m >> 1 for m in inc)


def test_is_intersecting_witness_on_planes():
    t = truncate(build_plane(FiniteField(2, 3)))
    assert is_intersecting(t) == (True, None)
    # a transversal that is no line misses some lines; the witness pairs
    # the first of them with the new last edge
    extra = ((0, 1),) + tuple((s, 0) for s in range(1, t.num_sides))
    assert extra not in t.edges
    h = t.with_edge(extra)
    ok, witness = is_intersecting(h)
    assert not ok and witness[1] == h.num_edges - 1
    assert (ok, witness) == reference_is_intersecting(h)


def reference_canonical_edges(sides, edges):
    """Per-vertex conversion and checks of every edge, in input order,
    then the edge-size profile."""
    k = len(sides)
    canon = []
    seen = set()
    for e in edges:
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
        if frozenset(vs) in seen:
            raise DuplicateEdgeError(f"duplicate edge {vs}")
        seen.add(frozenset(vs))
        canon.append(vs)
    sizes = {len(e) for e in canon}
    if len(sizes) > 1 and (len(sizes) > 2 or max(sizes) - min(sizes) != 1):
        raise UniformityError(f"edge sizes {sorted(sizes)} are not one size or two consecutive sizes")
    return tuple(canon)


SIDES = [["a", "b"], ["c", "d"], ["e"]]
COORDS = [0, 1, 2, 3, -1, 0.0, 1.5, True, "1", "x"]


@st.composite
def raw_edges(draw):
    """Edges of tuple or list vertices whose coordinates may be out of
    range, floats, bools or strings, with repeats and duplicates."""
    valid = st.sampled_from([(s, p) for s, side in enumerate(SIDES) for p in range(len(side))])
    odd = st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS))
    listed = st.lists(st.sampled_from(COORDS[:3]), min_size=2, max_size=2)
    vertex = valid | valid | odd | listed
    edge = st.lists(vertex, max_size=4)
    edges = draw(st.lists(edge, min_size=1, max_size=5))
    if draw(st.booleans()):
        edges.append(list(reversed(draw(st.sampled_from(edges)))))
    return edges


@settings(max_examples=500, deadline=None, derandomize=True)
@given(raw_edges())
def test_constructor_matches_per_vertex_checks(edges):
    got = outcome(lambda: PartiteHypergraph(SIDES, edges).edges)
    assert got == outcome(reference_canonical_edges, SIDES, edges)


def lookup_canonical_edges(sides, edges):
    """The constructor's former two-path canonicalization: a tuple or
    list edge of valid vertices by lookups in a table that maps each
    vertex to itself, anything else by `_checked_edge`."""
    sides = tuple(tuple(str(x) for x in side) for side in sides)
    table = {(s, p): (s, p) for s, side in enumerate(sides) for p in range(len(side))}
    lookup = table.__getitem__
    canon = []
    seen = set()
    for e in edges:
        vs = None
        if isinstance(e, (tuple, list)):
            try:
                vs = tuple(sorted(map(lookup, e)))
            except (KeyError, TypeError):
                pass
            else:
                if not vs or len({s for s, _ in vs}) != len(vs):
                    vs = None
        if vs is None:
            vs = hypergraph._checked_edge(e, sides)
        if vs in seen:
            raise DuplicateEdgeError(f"duplicate edge {vs}")
        seen.add(vs)
        canon.append(vs)
    return PartiteHypergraph._from_canonical(sides, tuple(canon), (None,) * len(canon), "").edges


# int() of each alias is the key; an alias equal to it also hashes like it
ALIASES = {0: [0, 0, 0, False, 0.0, "0"], 1: [1, 1, 1, True, 1.0, "1"], 2: [2, 2, 2, 2.0, "2"]}


@st.composite
def mixed_container_edges(draw):
    """Each edge a tuple or a list: either every edge of `raw_edges`, or
    edges with one vertex on each of two or three sides, a vertex as a
    pair of aliases of its coordinates or as a two-character string."""
    if draw(st.booleans()):
        edges = draw(raw_edges())
    else:
        edges = []
        for _ in range(draw(st.integers(1, 5))):
            sides = draw(st.lists(st.integers(0, 2), min_size=2, max_size=3, unique=True))
            edge = []
            for s in sides:
                p = draw(st.integers(0, len(SIDES[s]) - 1))
                edge.append(f"{s}{p}" if draw(st.integers(0, 3)) == 0
                            else (draw(st.sampled_from(ALIASES[s])),
                                  draw(st.sampled_from(ALIASES[p]))))
            edges.append(edge)
    return [tuple(e) if draw(st.booleans()) else e for e in edges]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mixed_container_edges())
def test_constructor_matches_the_former_lookup_path(edges):
    # the same canonical edges, or the same error
    got = outcome(lambda: PartiteHypergraph(SIDES, edges).edges)
    assert got == outcome(lookup_canonical_edges, SIDES, edges)


@pytest.mark.parametrize("edges,error,message", [
    ([[(0, 0), (3, 0)]], ValueError, "vertex 3.0 out of range"),
    ([[(0, 0), (1, 2)]], ValueError, "vertex 1.2 out of range"),
    ([[(0, 0), (-1, 0)]], ValueError, "vertex -1.0 out of range"),
    ([[(0, 0), (0, 1)]], PartitenessError, "edge ((0, 0), (0, 1)) has two vertices in side 0"),
    ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], DuplicateEdgeError, "duplicate edge ((0, 0), (1, 0))"),
    ([[]], UniformityError, "empty edge"),
    ([[[0, 0], [1, 0]], [[1, 0], [0, 0]]], DuplicateEdgeError, "duplicate edge ((0, 0), (1, 0))"),
    ([[(0.5, 0), (0, 1)]], PartitenessError, "edge ((0, 0), (0, 1)) has two vertices in side 0"),
    ([[("0", "0"), ("1", "1")], [(0, 0), (1, 1)]], DuplicateEdgeError,
     "duplicate edge ((0, 0), (1, 1))"),
    ([[("x", "0")]], ValueError, "invalid literal for int() with base 10: 'x'"),
    # out of range and a repeated side: the first in sorted order wins
    ([[(0, 0), (9, 0), (1, 0), (1, 1)]], PartitenessError,
     "edge ((0, 0), (1, 0), (1, 1), (9, 0)) has two vertices in side 1"),
    ([[(0, 9), (0, 0), (1, 0)]], ValueError, "vertex 0.9 out of range"),
    ([[(0, 0, 0)]], ValueError, "too many values to unpack (expected 2)"),
    ([[0]], TypeError, "cannot unpack non-iterable int object"),
    ([5], TypeError, "'int' object is not iterable"),
    ([[(0, 0)], [(1, 0), (0, 0), (2, 0)]], UniformityError,
     "edge sizes [1, 3] are not one size or two consecutive sizes"),
])
def test_constructor_error_messages(edges, error, message):
    with pytest.raises(error) as ei:
        PartiteHypergraph(SIDES, edges)
    assert type(ei.value) is error and str(ei.value) == message


def test_constructor_converts_like_int():
    h = PartiteHypergraph(SIDES, [[(0, 0.0), (1.5, 1)], [(True, 0), ("0", "1")]])
    assert h.edges == (((0, 0), (1, 1)), ((0, 1), (1, 0)))


RHG_HEAD = "rhg 1 3\ns 0 a b\ns 1 c d\ns 2 e\n"


@pytest.mark.parametrize("body,error,message", [
    ("e 0.0 3.0\n", ParseError, "line 5: vertex ref 3.0 out of range"),
    ("e 0.0 1.2\n", ParseError, "line 5: vertex ref 1.2 out of range"),
    ("e 0.0 1.5\n", ParseError, "line 5: vertex ref 1.5 out of range"),
    ("e 0.0 0.1\n", PartitenessError, "line 5: edge repeats a side"),
    ("e 0.0 0.0\n", PartitenessError, "line 5: edge repeats a side"),
    ("e 0.0 1.0\ne 1.0 0.0\n", DuplicateEdgeError, "line 6: duplicates edge from line 5"),
    ("e 0.0 1.0\n\ne 2.0\ne 00.0 1.0\n", DuplicateEdgeError,
     "line 8: duplicates edge from line 5"),
    ("e\n", ParseError, "line 5: edge with no vertices"),
    ('e "lab"\n', ParseError, "line 5: edge with no vertices"),
    ('e 0.0 "lab"\n', ParseError, "line 5: quoted label must come first in an edge line"),
    ("e 0.0 1.x\n", ParseError, "line 5: bad vertex ref '1.x'"),
    ("e 0.0 [1,0]\n", ParseError, "line 5: bad vertex ref '[1,0]'"),
    ("e 0.0 1.0.0\n", ParseError, "line 5: bad vertex ref '1.0.0'"),
    # out of range and a repeated side: refs are checked in file order
    ("e 1.0 9.0 1.1\n", ParseError, "line 5: vertex ref 9.0 out of range"),
    ("e 1.0 1.1 9.0\n", ParseError, "line 5: vertex ref 9.0 out of range"),
    # a bad ref before a stray quoted token: refs are checked in file order
    ('e 9.9 "q"\n', ParseError, "line 5: vertex ref 9.9 out of range"),
    ("e 0.0 1.0\ns 3 x\n", ParseError, "line 6: side line after edge lines"),
    # integers are ASCII decimal, optionally signed
    ("rhg 1 1_0\n", ParseError, "line 1: bad side count in header"),
    ("rhg 1 \uff13\n", ParseError, "line 1: bad side count in header"),
    ("rhg 1 3\ns 0_0 a b\n", ParseError, "line 2: bad side index"),
    ("rhg 1 3\ns \uff10 a b\n", ParseError, "line 2: bad side index"),
    ("e 0_0.0\n", ParseError, "line 5: bad vertex ref '0_0.0'"),
    ("e \uff10.0\n", ParseError, "line 5: bad vertex ref '\uff10.0'"),
    # no '"' in a header or side token: dumps_rhg could not write it back
    ('rhg "1" 3\n', ParseError, "line 1: expected header 'rhg 1 <num_sides>'"),
    ('rhg 1 "3"\n', ParseError, "line 1: expected header 'rhg 1 <num_sides>'"),
    ('rhg 1 3\ns 0 "a b" c\n', ParseError, "line 2: expected 's <side_index> <labels...>'"),
    ('rhg 1 3\ns 0 a b\ns 1 a "#x"\n', ParseError,
     "line 3: expected 's <side_index> <labels...>'"),
    ('rhg 1 3\ns 0 a"b\n', ParseError, "line 2: expected 's <side_index> <labels...>'"),
    ('e "unterminated 0.0\n', ParseError, "line 5: unterminated quoted label"),
    # a whole text: the side count is checked before the edge line's tokens
    ('rhg 1 2\ns 0 a b\ns 1 c d\ns 2 e\ne\t2.0\t"q"\n', ParseError,
     "line 5: got 3 side lines, header says 2"),
    ("e 0.0\ne 0.1 1.1 2.0\n", UniformityError,
     "edge sizes [1, 3] are not one size or two consecutive sizes"),
])
def test_rhg_error_messages(body, error, message):
    with pytest.raises(error) as ei:
        loads_rhg(body if body.startswith("rhg") else RHG_HEAD + body)
    assert type(ei.value) is error and str(ei.value) == message


def test_rhg_reads_noncanonical_refs():
    h = loads_rhg(RHG_HEAD + "e 0.0 +1.0 2.0\ne 00.1 1.01\n")
    assert h.edges == (((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)))


def test_dumps_rhg_refuses_no_sides():
    with pytest.raises(ValueError) as ei:
        dumps_rhg(PartiteHypergraph([], []))
    assert str(ei.value) == "a hypergraph with no sides has no .rhg text"


def reference_decimal(text):
    """int(text) for ASCII digits after an optional sign."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or any(c not in "0123456789" for c in digits):
        raise ValueError(text)
    return int(text)


def reference_edge_vertices(toks, sides, lineno):
    """Vertex refs of an edge line's (text, was_quoted) tokens, parsed and
    range-checked one by one."""
    verts = []
    for t, quoted in toks:
        if quoted:
            raise ParseError("quoted label must come first in an edge line", lineno)
        side, _, pos = t.partition(".")
        try:
            v = (reference_decimal(side), reference_decimal(pos))
        except ValueError:
            raise ParseError(f"bad vertex ref {t!r}", lineno) from None
        if not (0 <= v[0] < len(sides)) or not (0 <= v[1] < len(sides[v[0]])):
            raise ParseError(f"vertex ref {t} out of range", lineno)
        verts.append(v)
    return verts


def reference_loads_rhg(text, name=""):
    """The loader that tokenizes every line, checks each edge and then
    passes the edges to the public constructor, which checks them again."""
    sides = []
    edges = []
    labels = []
    num_sides = None
    refs = None
    seen_edges = {}
    stage = "header"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if not toks:
            continue
        head = toks[0][0]
        if stage == "header":
            if (head != "rhg" or len(toks) != 3 or toks[1][0] != "1"
                    or any(quoted for _, quoted in toks)):
                raise ParseError("expected header 'rhg 1 <num_sides>'", lineno)
            try:
                num_sides = reference_decimal(toks[2][0])
            except ValueError:
                raise ParseError("bad side count in header", lineno) from None
            if num_sides < 1:
                raise ParseError("side count must be >= 1", lineno)
            stage = "sides"
        elif head == "s":
            if stage != "sides":
                raise ParseError("side line after edge lines", lineno)
            if len(toks) < 2 or any(quoted or '"' in t for t, quoted in toks):
                raise ParseError("expected 's <side_index> <labels...>'", lineno)
            try:
                idx = reference_decimal(toks[1][0])
            except ValueError:
                raise ParseError("bad side index", lineno) from None
            if idx != len(sides):
                raise ParseError(f"side index {idx}, expected {len(sides)}", lineno)
            sides.append(tuple(t for t, _ in toks[2:]))
        elif head == "e":
            if stage == "sides":
                if len(sides) != num_sides:
                    raise ParseError(
                        f"got {len(sides)} side lines, header says {num_sides}", lineno
                    )
                stage = "edges"
                refs = {f"{s}.{p}": (s, p)
                        for s, side in enumerate(sides) for p in range(len(side))}
            rest = toks[1:]
            label = None
            if rest and rest[0][1]:
                label = rest[0][0]
                rest = rest[1:]
            if not rest:
                raise ParseError("edge with no vertices", lineno)
            verts = [None if quoted else refs.get(t) for t, quoted in rest]
            if None in verts:
                verts = reference_edge_vertices(rest, sides, lineno)
            if len({s for s, _ in verts}) != len(verts):
                raise PartitenessError(f"line {lineno}: edge repeats a side")
            vs = tuple(sorted(verts))
            if vs in seen_edges:
                raise DuplicateEdgeError(
                    f"line {lineno}: duplicates edge from line {seen_edges[vs]}"
                )
            seen_edges[vs] = lineno
            edges.append(vs)
            labels.append(label)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if num_sides is None:
        raise ParseError("empty file", 1)
    if stage == "sides" and len(sides) != num_sides:
        raise ParseError(f"got {len(sides)} side lines, header says {num_sides}", lineno)
    return PartiteHypergraph(sides, edges, labels, name=name)


# Header and side tokens that hold a '"': none but an edge label may.
RHG_QUOTED_HEADERS = ['rhg "1" 3', 'rhg 1 "3"', 'rhg "1" "3"', 'rhg 1 3"', 'rhg 1 3 # "c"']
RHG_QUOTED_LABELS = ['"a b"', '"#x"', '""', '"c"d', 'a"b', 'c"', '"c', 'x # "c"']


RHG_BAD_REFS = ["3.0", "1.2", "2.1", "-1.0", "01.0", "+1.0", "1_0.0", "1.x", "zz", "1.0.0", ".",
                "\uff10.0", "0.0_0"]
RHG_SEPS = [" ", " ", " ", "  ", "\t", " \t "]


@st.composite
def rhg_texts(draw):
    """.rhg texts over sides of sizes 2, 2, 1, mostly well-formed, with now
    and then: labels holding spaces, tabs, '#', '\\x0b' or '\\x1c', labels
    glued to the 'e', trailing comments, quoted tokens after the label,
    unterminated quotes, out-of-range, malformed and non-canonical refs,
    repeated or missing sides, duplicate edges and mixed edge sizes; and
    more often, quoted or '"'-bearing header and side tokens."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rare = lambda: rnd.random() < 0.03  # noqa: E731
    quote = lambda: rnd.random() < 0.05  # noqa: E731
    sep = lambda: rnd.choice(RHG_SEPS)  # noqa: E731
    lines = ["rhg 1 3" if not rare() else rnd.choice(["rhg 1 2", "rhg 1 x", "# c\nrhg 1 3",
                                                      "rhg 1 +3", "rhg 1 3_0"])]
    if quote():
        lines[0] = rnd.choice(RHG_QUOTED_HEADERS)
    side_order = [0, 1, 2] if not rare() else [rnd.randrange(4) for _ in range(rnd.randrange(5))]
    for s in side_order:
        labels = list("abcde"[:2 if s < 2 else 1])
        if quote():
            labels[rnd.randrange(len(labels))] = rnd.choice(RHG_QUOTED_LABELS)
        lines.append(sep().join(["s", str(s), *labels]))
    size = rnd.randint(1, 2)
    edges = []
    for _ in range(rnd.randrange(9)):
        if edges and rare():
            words = list(rnd.choice(edges))
            words[1:] = reversed(words[1:])
        else:
            k = size + rnd.randrange(2) if not rare() else rnd.randrange(5)
            refs = [f"{s}.{rnd.randrange(2 if s < 2 else 1)}" for s in rnd.sample(range(3), min(k, 3))]
            refs += ["0.0"] * (k - len(refs))
            if refs and rare():
                refs[rnd.randrange(len(refs))] = rnd.choice(RHG_BAD_REFS)
            if refs and rare():
                refs.insert(rnd.randrange(len(refs) + 1), '"q"')
            head = "e"
            if rnd.random() < 0.7:
                label = "".join(rnd.choice("ab #\t") for _ in range(rnd.randrange(5)))
                if rare():
                    label += rnd.choice(["\x0b", "\x1c"]) + label
                head += ("" if rare() else sep()) + '"' + label + ('"' if not rare() else "")
            words = [head, *refs]
            edges.append(words)
        line = sep().join(words)
        if rare():
            line = sep() + line
        if rare():
            line += rnd.choice([" # tail", "#tail", '"', " x"])
        lines.append(line)
        if rare():
            lines.append(rnd.choice(["", "  ", "# note", "s 3 x", "e"]))
    return "\n".join(lines) + "\n"


def parsed(load, text):
    h = load(text)
    return h.sides, h.edges, h.edge_labels


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rhg_texts())
def test_loader_matches_reference_loader(text):
    assert outcome(parsed, loads_rhg, text) == outcome(parsed, reference_loads_rhg, text)


EXTENSION_CASES = [(q, f, form) for q in (3, 4, 5) for f in ("default", "profile")
                   for form in ("mixed", "uniform")]


@pytest.fixture(scope="module")
def extension_texts():
    """dumps_rhg texts of the extensions of EXTENSION_CASES, at point 0
    and anchor 0."""
    texts = {}
    for q, (p, k) in ((3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        t = truncate(build_plane(FiniteField(p, k)))
        for f in ("default", "profile"):
            spec = (select_f_default(t, 0) if f == "default"
                    else select_f_by_profile(t, 0, DegreeProfile(q + 1, (1,)), strict=False))
            h = build_extension(spec, check=False)
            texts[q, f, "mixed"] = dumps_rhg(h)
            texts[q, f, "uniform"] = dumps_rhg(uniformize(h))
    return texts


# what each one-line change does to a text that loaded: None if it still
# loads, else the error it raises
EDGE_LINE_CHANGES = {
    "swap-refs": None, "repeat-side": "PartitenessError", "duplicate-line": "DuplicateEdgeError",
    "zero-padded-ref": None, "plus-ref": None, "tab-separator": None, "trailing-comment": None,
    "hash-in-label": None, "ref-out-of-range": "ParseError",
}


def changed_text(text, change, rnd):
    """text with one edge line, drawn by rnd, changed as `change` says."""
    lines = text.splitlines()
    sizes = [len(line.split()) - 2 for line in lines if line.startswith("s ")]
    i = rnd.choice([j for j, line in enumerate(lines) if line.startswith("e ")])
    cut = lines[i].rfind('"') + 1 or 1  # after the label, or after the 'e'
    head, refs = lines[i][:cut], lines[i][cut:].split()
    a, b = rnd.sample(range(len(refs)), 2)
    side = int(refs[a].partition(".")[0])
    sep = " "
    if change == "swap-refs":
        refs[a], refs[b] = refs[b], refs[a]
    elif change == "repeat-side":
        refs[b] = f"{side}.{rnd.randrange(sizes[side])}"
    elif change == "duplicate-line":
        lines.insert(rnd.randrange(i + 1, len(lines) + 1), lines[i])
    elif change == "zero-padded-ref":
        refs[a] = "0" + refs[a]
    elif change == "plus-ref":
        refs[a] = "+" + refs[a]
    elif change == "tab-separator":
        sep = "\t"
    elif change == "trailing-comment":
        refs.append("# comment")
    elif change == "hash-in-label":
        head = 'e "#' + head[3:] if head != "e" else 'e "#"'
    elif change == "ref-out-of-range":
        refs[a] = f"{side}.{sizes[side]}"
    lines[i] = sep.join([head, *refs])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("change", EDGE_LINE_CHANGES)
@pytest.mark.parametrize("case", EXTENSION_CASES, ids="q{0[0]}-{0[1]}-{0[2]}".format)
def test_loader_matches_reference_loader_on_extensions(extension_texts, case, change):
    text = extension_texts[case]
    changed = changed_text(text, change, random.Random(f"{case} {change}"))
    assert changed != text
    got = outcome(parsed, loads_rhg, changed)
    assert got == outcome(parsed, reference_loads_rhg, changed)
    if EDGE_LINE_CHANGES[change] is None:
        want = parsed(loads_rhg, text)
        if change == "hash-in-label":
            assert got[:2] == want[:2] and got[2] != want[2]
        else:
            assert got == want
    else:
        assert got[0] == EDGE_LINE_CHANGES[change]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rhg_texts())
def test_every_loaded_text_writes_back(text):
    """What loads_rhg accepts, dumps_rhg writes, and the text it writes
    reloads to the same sides, edges and labels."""
    try:
        h = loads_rhg(text)
    except RyserError:
        return
    back = loads_rhg(dumps_rhg(h))
    assert (back.sides, back.edges, back.edge_labels) == (h.sides, h.edges, h.edge_labels)


def reference_dumps_rhg(h):
    """Writer that checks every label on its own with `_check_label_token`."""
    lines = [f"rhg 1 {h.num_sides}"]
    for i, side in enumerate(h.sides):
        for lab in side:
            hypergraph._check_label_token(lab, "vertex label")
        lines.append(" ".join(["s", str(i), *side]))
    for e, lab in zip(h.edges, h.edge_labels):
        refs = " ".join(f"{s}.{p}" for s, p in e)
        if lab is None:
            lines.append(f"e {refs}")
        else:
            hypergraph._check_label_token(lab, "edge label")
            lines.append(f'e "{lab}" {refs}')
    return "\n".join(lines) + "\n"


# every str.isspace character (the str.splitlines breaks among them),
# the two characters a label may not start with or hold, and two plain ones
LABEL_CHARS = [chr(c) for c in range(0x110000) if chr(c).isspace()] + ['#', '"', "a", "."]
# half the characters plain, so that many labels pass
labels = st.lists(st.sampled_from(LABEL_CHARS) | st.sampled_from("a."),
                  max_size=3).map("".join)  # "" included


@st.composite
def labelled_hypergraphs(draw):
    """Drawn vertex and edge labels; a last side of plain vertices holds
    one one-vertex edge per edge label."""
    sides = draw(st.lists(st.lists(labels, min_size=1, max_size=4), max_size=3))
    edge_labels = draw(st.lists(st.none() | labels, min_size=1, max_size=5))
    sides.append([f"w{j}" for j in range(len(edge_labels))])
    edges = [[(len(sides) - 1, j)] for j in range(len(edge_labels))]
    return PartiteHypergraph(sides, edges, edge_labels)


def test_label_alphabet_holds_every_line_break():
    breaks = {c for c in LABEL_CHARS if "".join(c.splitlines()) != c}
    assert breaks == set("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(labelled_hypergraphs())
def test_label_checks_match_per_label_checks(h):
    assert outcome(dumps_rhg, h) == outcome(reference_dumps_rhg, h)


def test_rhg_edge_lines_skip_tokenizer(monkeypatch):
    """Neither _tokenize nor _read_line sees an edge line that dumps_rhg
    wrote, labelled or not, full or not, a '#' in its label or not."""
    t = truncate(build_plane(FiniteField(3, 2)))
    h = build_extension(select_f_default(t, 0), check=False)
    u = uniformize(h)
    seen = []
    for name in ("_tokenize", "_read_line"):
        f = getattr(hypergraph, name)
        monkeypatch.setattr(hypergraph, name,
                            lambda line, lineno, f=f: seen.append(line) or f(line, lineno))
    hashed = PartiteHypergraph(h.sides, h.edges, [f"#{lab} #" for lab in h.edge_labels])
    for g in (t, h, u, PartiteHypergraph(h.sides, h.edges), hashed):
        seen.clear()
        text = dumps_rhg(g)
        back = loads_rhg(text)
        assert seen == text.splitlines()[:1 + g.num_sides]  # the header and the side lines
        assert back == g and hash(back) == hash(g)
        assert back == PartiteHypergraph(g.sides, g.edges, g.edge_labels)


def test_without_edge_checks_size_profile(t4):
    assert t4.without_edge(-1).edges == t4.edges[:-1]
    with pytest.raises(IndexError):
        t4.without_edge(t4.num_edges)
    h = PartiteHypergraph(SIDES, [[(0, 0)], [(0, 1), (1, 0)]])
    # no instance the constructor accepts loses its size profile by losing
    # an edge, so give one a third edge size directly
    h.edges += (((0, 1), (1, 1), (2, 0)),)
    h.edge_labels += (None,)
    with pytest.raises(UniformityError) as ei:
        h.without_edge(1)
    assert str(ei.value) == "edge sizes [1, 3] are not one size or two consecutive sizes"
    h.edge_labels += (None,)
    with pytest.raises(ValueError, match="^edge_labels length mismatch$"):
        h.without_edge(2)

"""Colored simplicial complexes: fixtures, the coset construction, and
the structural verifier."""

import hashlib

import numpy as np
import pytest

from cosetcode import fixtures
from cosetcode.complexes import (
    Complex,
    ComplexError,
    build_coset_complex,
    colors_of,
    corrupt_complex,
    mask_of,
    type_cycle_face_map,
    verify_structure,
)


def _all_ok(report):
    return all(ok for ok, _ in report.values())


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert colors_of(0b110) == [1, 2]


@pytest.mark.parametrize(
    "name,n_top,n_vertices",
    [
        ("octahedron", 8, 6),
        ("hexagonal_torus", 18, 9),
        ("single_triangle", 1, 3),
        ("cross_polytope_3sphere", 16, 8),
        ("torus_cone", 18, 10),
    ],
)
def test_fixture_structure(name, n_top, n_vertices):
    c = getattr(fixtures, name)()
    assert c.n_top == n_top
    assert sum(c.n_faces(1 << j) for j in range(c.n_colors)) == n_vertices
    assert _all_ok(verify_structure(c))


def test_corrupted_octahedron_fails_specifically():
    report = verify_structure(fixtures.corrupted_octahedron())
    assert not report["disjoint_union"][0]
    assert not report["intersection"][0]
    assert report["purity"][0]


def test_octahedron_up_set_sizes():
    c = fixtures.octahedron()
    for j in range(3):
        for idx in c.faces(1 << j):
            assert len(c.up_set((1 << j, idx))) == 4
    for mask in (0b011, 0b101, 0b110):
        for idx in c.faces(mask):
            assert len(c.up_set((mask, idx))) == 2


def test_containment_and_cofaces():
    c = fixtures.octahedron()
    v = (1, 0)
    for emask in (0b011, 0b101):
        # the faces through the vertex's tops are exactly the faces containing it
        through = {int(c.top_to_face[emask][t]) for t in c.up_set(v)}
        # an edge contains the vertex when the vertex holds the edge's first top
        firsts = c.face_tops[emask][:, 0]
        assert through == set(np.flatnonzero(c.top_to_face[1][firsts] == v[1]).tolist())
        assert len(through) == 2
    top0 = c.up_set((1, 0))[0]
    assert c.face_in_top(1, top0) == 0


def test_unknown_faces_are_refused():
    c = fixtures.octahedron()
    assert c.up_set((1, 1)) == (4, 5, 6, 7)
    for face in [(1, 2), (1, -1), (8, 0)]:
        with pytest.raises(ComplexError):
            c.up_set(face)


def test_link_of_octahedron_vertex_is_square():
    c = fixtures.octahedron()
    link = c.link((1, 0))
    assert link.D == 1
    assert link.n_top == 4  # the four triangles around the vertex
    assert _all_ok(verify_structure(link))


def test_coset_complex_counts(complex2, table2):
    c = complex2
    assert c.n_top == table2.size == 168
    for j in range(3):
        assert c.n_faces(1 << j) == 168 // 8  # |G| / |K_v|
    for mask in (0b011, 0b101, 0b110):
        assert c.n_faces(mask) == 168 // 2  # |G| / |K_e|
    assert _all_ok(verify_structure(c))


def test_coset_complex_up_set_sizes(complex2):
    for j in range(3):
        for idx in complex2.faces(1 << j):
            assert len(complex2.up_set((1 << j, idx))) == 8
    for mask in (0b011, 0b101, 0b110):
        for idx in complex2.faces(mask):
            assert len(complex2.up_set((mask, idx))) == 2


def test_top_to_face_consistency(complex2):
    c = complex2
    rng = np.random.default_rng(4)
    for t in rng.integers(0, c.n_top, size=20):
        for mask in c.masks:
            idx = int(c.top_to_face[mask][int(t)])
            assert int(t) in c.up_set((mask, idx))


def test_type_cycle_face_map(complex2):
    maps = type_cycle_face_map(complex2)
    # color-j vertices map bijectively onto color-(j+1) vertices
    for j in range(3):
        m = maps[1 << j]
        assert len(set(int(v) for v in m)) == complex2.n_faces(1 << j)


def test_type_cycle_face_map_rejects_non_automorphism(complex2):
    # the cycle with two tops' images swapped splits a face over two images
    class SwappedCycle:
        def type_cycle_perm(self):
            perm = complex2.group.type_cycle_perm().copy()
            perm[[0, 1]] = perm[[1, 0]]
            return perm

    c = Complex(complex2.D, complex2.n_top, complex2.face_tops, group=SwappedCycle())
    with pytest.raises(ComplexError):
        type_cycle_face_map(c)


@pytest.fixture(scope="module")
def complex_d3(table_d3):
    return build_coset_complex(table_d3)


def test_d3_q2_coset_complex_structure(table_d3, complex_d3):
    assert table_d3.size == 20160
    report = verify_structure(complex_d3)
    checks = {"purity", "disjoint_union", "colorability", "intersection", "transitivity"}
    assert set(report) == checks
    assert _all_ok(report), report


def _parse_serialized(text):
    """D, n_top and the up-sets from `Complex.serialize` text: a "D n_top"
    line, then one "mask index tops" line per face in (mask, index) order."""
    head, *lines = text.splitlines()
    D, n_top = map(int, head.split())
    up_sets = {m: [] for m in range(1, 1 << (D + 1))}
    for line in lines:
        mask, idx, tops = line.split()
        assert int(idx) == len(up_sets[int(mask)])
        up_sets[int(mask)].append(tuple(map(int, tops.split(","))))
    return D, n_top, up_sets


def _up_sets(c):
    """Every face's up-set through the per-face accessor, per type."""
    return {m: [c.up_set((m, i)) for i in c.faces(m)] for m in c.masks}


def _from_up_sets(c, up_sets, **kw):
    """A complex like `c` with the given per-type up-set lists."""
    face_tops = {}
    for m, ups in up_sets.items():
        face_tops[m] = np.full((len(ups), max(map(len, ups))), -1, dtype=np.int64)
        for i, u in enumerate(ups):
            face_tops[m][i, : len(u)] = u
    return Complex(c.D, c.n_top, face_tops, **kw)


def _assert_roundtrip(c):
    D, n_top, up_sets = _parse_serialized(c.serialize())
    assert (D, n_top, up_sets) == (c.D, c.n_top, _up_sets(c))
    # the text keeps the up-sets, not the padding width
    again = _from_up_sets(c, up_sets)
    assert again.serialize() == c.serialize()
    for m in c.masks:
        assert np.array_equal(again.top_to_face[m], c.top_to_face[m])
        assert np.array_equal(again.top_pos[m], c.top_pos[m])


def test_serialize_deserialize_roundtrip():
    _assert_roundtrip(fixtures.hexagonal_torus())


# -- reference: the per-face loops the array checks replaced -------------------


def _ref_colorability(c):
    """One vertex set per face and color through `face_in_top`."""
    for m in c.masks:
        for i in c.faces(m):
            ups = c.up_set((m, i))
            for color in colors_of(m):
                vs = {c.face_in_top(1 << color, t) for t in ups}
                if len(vs) != 1:
                    return False, "face (%d,%d) spans %d color-%d vertices" % (
                        m, i, len(vs), color,
                    )
    return True, "vertex lookups coherent"


def _ref_intersection(c):
    """Three `np.unique` counts per pair of type masks."""
    for m1 in c.masks:
        for m2 in c.masks:
            f1, f2, fu = (c.top_to_face[m] for m in (m1, m2, m1 | m2))
            key = f1.astype(np.int64) * (max(c.n_faces(m2), 1) + 1) + f2
            both = np.unique(key * (c.n_top + 1) + fu)
            if len(both) != len(np.unique(key)) or len(both) != len(np.unique(fu)):
                return False, "type masks %d, %d: a face pair spans two union faces" % (m1, m2)
    return True, "exhaustive over all intersecting pairs via top faces"


def _swapped_vertices():
    """The octahedron with one top moved between the two color-0 vertices
    and another moved back: still a partition, but its edges split."""
    c = fixtures.octahedron()
    ups = _up_sets(c)
    a, b = ups[1][0], ups[1][1]
    ups[1][0] = tuple(sorted(a[1:] + b[:1]))
    ups[1][1] = tuple(sorted(b[1:] + a[:1]))
    return _from_up_sets(c, ups)


def _split_edge():
    """The octahedron with one type-{0,1} edge split into two one-top
    edges: each edge still fixes its vertices, but the two vertices no
    longer fix their edge."""
    c = fixtures.octahedron()
    ups = _up_sets(c)
    t0, t1 = ups[0b011][0]
    ups[0b011][0:1] = [(t0,), (t1,)]
    return _from_up_sets(c, ups)


NEGATIVE = {"swapped_vertices": _swapped_vertices, "split_edge": _split_edge}


@pytest.mark.parametrize(
    "make",
    [
        "complex2",
        "complex_d3",
        "octahedron",
        "hexagonal_torus",
        "single_triangle",
        "torus_cone",
        "cross_polytope_3sphere",
        "corrupted_octahedron",
        "swapped_vertices",
        "split_edge",
    ],
)
def test_structure_checks_match_per_face_loops(make, request):
    if make in NEGATIVE:
        c = NEGATIVE[make]()
    elif make.startswith("complex"):
        c = request.getfixturevalue(make)
    else:
        c = getattr(fixtures, make)()
    report = verify_structure(c)
    assert report["colorability"] == _ref_colorability(c)
    assert report["intersection"] == _ref_intersection(c)
    if make == "swapped_vertices":
        assert not report["colorability"][0] and report["disjoint_union"][0]
    if make == "split_edge":
        assert not report["intersection"][0] and report["colorability"][0]


def _ref_coset_faces(table, mask):
    """Faces of one type by a loop over the elements sorted by coset rep."""
    reps = table.coset_reps(colors_of(mask))
    faces, keys, members, current = [], [], [], -1
    for g in np.argsort(reps, kind="stable"):
        r = int(reps[g])
        if r != current:
            if members:
                faces.append(tuple(sorted(members)))
            members, current = [], r
            keys.append(r)
        members.append(int(g))
    faces.append(tuple(sorted(members)))
    return faces, keys


def _ref_lookups(c):
    """top_to_face and top_pos by a loop over every up-set member."""
    face, pos = {}, {}
    for m in c.masks:
        face[m] = np.full(c.n_top, -1, dtype=np.int64)
        pos[m] = np.full(c.n_top, -1, dtype=np.int64)
        for idx in c.faces(m):
            for p, t in enumerate(c.up_set((m, idx))):
                face[m][t], pos[m][t] = idx, p
    return face, pos


@pytest.mark.parametrize("make", ["complex2", "complex_d3"])
def test_coset_faces_match_per_element_loop(make, request):
    c = request.getfixturevalue(make)
    for m in c.masks:
        if m != c.full_mask:
            faces, reps = _ref_coset_faces(c.group, m)
            assert _up_sets(c)[m] == faces
            assert c.face_tops[m][:, 0].tolist() == reps


@pytest.mark.parametrize(
    "make",
    ["complex2", "complex_d3", "octahedron", "hexagonal_torus", "single_triangle",
     "torus_cone", "cross_polytope_3sphere", "corrupted_octahedron", "split_edge"],
)
def test_top_lookups_match_per_member_loop(make, request):
    if make in NEGATIVE:
        c = NEGATIVE[make]()
    elif make.startswith("complex"):
        c = request.getfixturevalue(make)
    else:
        c = getattr(fixtures, make)()
    face, pos = _ref_lookups(c)
    for m in c.masks:
        assert np.array_equal(c.top_to_face[m], face[m])
        assert np.array_equal(c.top_pos[m], pos[m])
        tops = c.face_tops[m]
        assert tops.dtype == np.int64 and tops.shape[0] == c.n_faces(m)
        assert [tuple(int(t) for t in row if t >= 0) for row in tops] == _up_sets(c)[m]


def test_overlapping_faces_are_rejected():
    c = fixtures.octahedron()
    ups = _up_sets(c)
    ups[1] = [ups[1][0], ups[1][0]]  # one top in two color-0 vertices
    with pytest.raises(ComplexError):
        _from_up_sets(c, ups)
    # padding between two tops
    face_tops = dict(c.face_tops)
    face_tops[1] = c.face_tops[1].copy()
    face_tops[1][0, 1] = -1
    with pytest.raises(ComplexError):
        Complex(c.D, c.n_top, face_tops)


# sha256 prefixes of (shape, bytes) of face_tops, top_to_face and top_pos,
# per type mask: the face numbering and up-set order that coordinates,
# serialized complexes and every report read
FACE_DIGESTS = {
    "complex2": {
        1: "c7a7fe749f83fca3", 2: "1550bcd9d5c5bc1d", 3: "ead59870903eed16",
        4: "39cf45c1b1bc309b", 5: "a5ff6c376173095a", 6: "002e9ff8f80049d7",
        7: "8afc630cb5d1a8eb",
    },
    "inst4": {
        1: "54cc0b500cf903c1", 2: "4270dc25e3e634a8", 3: "677378bb2eb84eb4",
        4: "1c908627c553d49f", 5: "613d94b818b3b7a0", 6: "54e550ee8a3ab051",
        7: "cba7cd52990c3ac3",
    },
}


@pytest.mark.parametrize("name", sorted(FACE_DIGESTS))
def test_face_arrays_are_pinned(name, request):
    c = request.getfixturevalue(name)
    if name == "inst4":
        c = c["complex"]
    digests = {}
    for m in c.masks:
        h = hashlib.sha256()
        for a in (c.face_tops[m], c.top_to_face[m], c.top_pos[m]):
            assert a.dtype == np.int64
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        digests[m] = h.hexdigest()[:16]
    assert digests == FACE_DIGESTS[name]


def test_unequal_up_sets_through_every_complex_operation():
    """The cone's apex holds all 18 tops and its other vertices 6 each;
    corrupting the apex pads its row to 17 of 18.  Structure, link,
    serialization and the corruption control read the arrays as built."""
    c = fixtures.torus_cone()
    assert sorted(set(c.up_set_sizes(1 << 3).tolist() + c.up_set_sizes(1).tolist())) == [6, 18]
    assert (c.face_tops[1] >= 0).all() and c.face_tops[1].shape[1] == 6
    assert _all_ok(verify_structure(c))
    apex = c.link((1 << 3, 0))
    torus = fixtures.hexagonal_torus()
    assert apex.original_colors == (0, 1, 2)
    for m in torus.masks:
        assert np.array_equal(apex.face_tops[m], torus.face_tops[m])
    bad = corrupt_complex(c, 1 << 3)
    assert bad.up_set((1 << 3, 0)) == tuple(range(17))
    report = verify_structure(bad)
    assert not report["disjoint_union"][0] and report["purity"][0]
    _assert_roundtrip(c)
    _assert_roundtrip(bad)

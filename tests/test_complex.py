"""Colored simplicial complexes: fixtures, the coset construction, and
the structural verifier."""

import numpy as np
import pytest

from cosetcode import fixtures
from cosetcode.complexes import (
    Complex,
    ComplexError,
    build_coset_complex,
    colors_of,
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
            assert len(c.up_sets[1 << j][idx]) == 4
    for mask in (0b011, 0b101, 0b110):
        for idx in c.faces(mask):
            assert len(c.up_sets[mask][idx]) == 2


def test_containment_and_cofaces():
    c = fixtures.octahedron()
    v = (1, 0)
    for emask in (0b011, 0b101):
        # the faces through the vertex's tops are exactly the faces containing it
        through = {int(c.top_to_face[emask][t]) for t in c.up_set(v)}
        assert through == {e for e in c.faces(emask) if c.contains(v, (emask, e))}
        assert len(through) == 2
    top0 = c.up_sets[1][0][0]
    assert c.face_in_top(1, top0) == 0


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
            assert len(complex2.up_sets[1 << j][idx]) == 8
    for mask in (0b011, 0b101, 0b110):
        for idx in complex2.faces(mask):
            assert len(complex2.up_sets[mask][idx]) == 2


def test_top_to_face_consistency(complex2):
    c = complex2
    rng = np.random.default_rng(4)
    for t in rng.integers(0, c.n_top, size=20):
        for mask in c.masks:
            idx = int(c.top_to_face[mask][int(t)])
            assert int(t) in c.up_sets[mask][idx]


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

    c = Complex(
        complex2.D, complex2.n_top, complex2.up_sets, keys=complex2.keys, group=SwappedCycle()
    )
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


def test_serialize_deserialize_roundtrip():
    c = fixtures.hexagonal_torus()
    assert _parse_serialized(c.serialize()) == (c.D, c.n_top, c.up_sets)


# -- reference: the per-face loops the array checks replaced -------------------


def _ref_colorability(c):
    """One vertex set per face and color through `face_in_top`."""
    for m in c.masks:
        for i in c.faces(m):
            ups = c.up_sets[m][i]
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
            key = f1.astype(np.int64) * (max(len(c.up_sets[m2]), 1) + 1) + f2
            both = np.unique(key * (c.n_top + 1) + fu)
            if len(both) != len(np.unique(key)) or len(both) != len(np.unique(fu)):
                return False, "type masks %d, %d: a face pair spans two union faces" % (m1, m2)
    return True, "exhaustive over all intersecting pairs via top faces"


def _swapped_vertices():
    """The octahedron with one top moved between the two color-0 vertices
    and another moved back: still a partition, but its edges split."""
    c = fixtures.octahedron()
    ups = {m: list(u) for m, u in c.up_sets.items()}
    a, b = ups[1][0], ups[1][1]
    ups[1][0] = tuple(sorted(a[1:] + b[:1]))
    ups[1][1] = tuple(sorted(b[1:] + a[:1]))
    return Complex(c.D, c.n_top, ups)


def _split_edge():
    """The octahedron with one type-{0,1} edge split into two one-top
    edges: each edge still fixes its vertices, but the two vertices no
    longer fix their edge."""
    c = fixtures.octahedron()
    ups = {m: list(u) for m, u in c.up_sets.items()}
    t0, t1 = ups[0b011][0]
    ups[0b011][0:1] = [(t0,), (t1,)]
    return Complex(c.D, c.n_top, ups)


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
        for idx, ups in enumerate(c.up_sets[m]):
            for p, t in enumerate(ups):
                face[m][t], pos[m][t] = idx, p
    return face, pos


@pytest.mark.parametrize("make", ["complex2", "complex_d3"])
def test_coset_faces_match_per_element_loop(make, request):
    c = request.getfixturevalue(make)
    for m in c.masks:
        if m != c.full_mask:
            assert (c.up_sets[m], c.keys[m]) == _ref_coset_faces(c.group, m)


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
        tops = c.face_tops(m)
        assert [tuple(int(t) for t in row if t >= 0) for row in tops] == c.up_sets[m]


def test_overlapping_faces_are_rejected():
    c = fixtures.octahedron()
    ups = dict(c.up_sets)
    ups[1] = [ups[1][0], ups[1][0]]  # one top in two color-0 vertices
    with pytest.raises(ComplexError):
        Complex(c.D, c.n_top, ups)

"""Colored simplicial complexes: coset complexes and explicit fixtures.

Faces are stored per type mask (bit j of the mask = color j present).
A face is identified by (type_mask, index); its up-set is the sorted
tuple of top-face ids containing it.  For every type the faces of that
type partition the top faces, which is what makes `top_to_face` a
well-defined lookup.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .group import GroupError, GroupTable


class ComplexError(ValueError):
    """Raised for malformed complexes or unknown faces."""


FaceId = Tuple[int, int]  # (type_mask, index within type)


def mask_of(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def colors_of(mask: int) -> List[int]:
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


class Complex:
    """A pure (D+1)-colorable D-dimensional complex, faces indexed by type."""

    def __init__(
        self,
        D: int,
        n_top: int,
        up_sets: Dict[int, List[Tuple[int, ...]]],
        keys: Optional[Dict[int, List]] = None,
        group: Optional[GroupTable] = None,
        original_colors: Optional[Sequence[int]] = None,
    ):
        self.D = D
        self.n_colors = D + 1
        self.n_top = n_top
        self.full_mask = (1 << self.n_colors) - 1
        self.masks = [m for m in range(1, 1 << self.n_colors)]
        self.up_sets = up_sets
        self.keys = keys or {m: list(range(len(up_sets[m]))) for m in self.masks}
        self.group = group
        self.original_colors = (
            tuple(original_colors) if original_colors is not None else tuple(range(self.n_colors))
        )
        # top_to_face[mask][top] = face index of the unique type-mask face
        # in top, top_pos[mask][top] = the top's position in that face's
        # up-set; -1 where no face of the type covers the top
        self.top_to_face: Dict[int, np.ndarray] = {}
        self.top_pos: Dict[int, np.ndarray] = {}
        self._face_tops: Dict[int, np.ndarray] = {}
        for m in self.masks:
            faces = up_sets[m]
            sizes = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
            tops = np.fromiter(chain.from_iterable(faces), dtype=np.int64, count=int(sizes.sum()))
            if np.bincount(tops, minlength=n_top).max(initial=0) > 1:
                raise ComplexError("type %d faces do not partition the top faces" % m)
            lookup = np.full(n_top, -1, dtype=np.int64)
            lookup[tops] = np.repeat(np.arange(len(faces)), sizes)
            pos = np.full(n_top, -1, dtype=np.int64)
            pos[tops] = np.arange(tops.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            self.top_to_face[m] = lookup
            self.top_pos[m] = pos

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_top_faces(
        cls,
        D: int,
        tops: Sequence[Sequence],
        original_colors: Optional[Sequence[int]] = None,
    ) -> "Complex":
        """Build from explicit top faces; tops[t][c] is the label of the
        color-c vertex of top face t."""
        n_colors = D + 1
        for t, vs in enumerate(tops):
            if len(vs) != n_colors:
                raise ComplexError("top face %d has %d vertices, need %d" % (t, len(vs), n_colors))
        up_sets: Dict[int, List[Tuple[int, ...]]] = {}
        keys: Dict[int, List] = {}
        for m in range(1, 1 << n_colors):
            cs = colors_of(m)
            bucket: Dict[Tuple, List[int]] = {}
            for t, vs in enumerate(tops):
                key = tuple(vs[c] for c in cs)
                bucket.setdefault(key, []).append(t)
            items = sorted(bucket.items(), key=lambda kv: kv[0])
            keys[m] = [k for k, _ in items]
            up_sets[m] = [tuple(sorted(v)) for _, v in items]
        return cls(D, len(tops), up_sets, keys=keys, original_colors=original_colors)

    # -- queries -------------------------------------------------------------

    def faces(self, mask: int) -> range:
        return range(len(self.up_sets[mask]))

    def n_faces(self, mask: int) -> int:
        return len(self.up_sets[mask])

    def level_masks(self, level: int) -> List[int]:
        """Type masks of dimension-`level` faces, ascending."""
        return [m for m in self.masks if bin(m).count("1") == level + 1]

    def level_faces(self, level: int) -> List[FaceId]:
        out = []
        for m in self.level_masks(level):
            out.extend((m, i) for i in self.faces(m))
        return out

    def up_set(self, face: FaceId) -> Tuple[int, ...]:
        mask, idx = face
        try:
            return self.up_sets[mask][idx]
        except (KeyError, IndexError):
            raise ComplexError("unknown face %r" % (face,))

    def face_tops(self, mask: int) -> np.ndarray:
        """[face, p] = top p of the face's up-set, one row per type-`mask`
        face, padded with -1 past the face's up-set (sizes may differ)."""
        cached = self._face_tops.get(mask)
        if cached is None:
            pos = self.top_pos[mask]
            tops = np.flatnonzero(pos >= 0)
            cached = np.full((self.n_faces(mask), int(pos.max(initial=-1)) + 1), -1, dtype=np.int64)
            cached[self.top_to_face[mask][tops], pos[tops]] = tops
            self._face_tops[mask] = cached
        return cached

    def face_in_top(self, mask: int, top: int) -> int:
        return int(self.top_to_face[mask][top])

    def contains(self, small: FaceId, big: FaceId) -> bool:
        """True iff the face `small` is a subface of `big`."""
        sm, si = small
        bm, bi = big
        if sm & ~bm:
            return False
        any_top = self.up_sets[bm][bi][0]
        return self.face_in_top(sm, any_top) == si

    # -- link ------------------------------------------------------------------

    def link(self, face: FaceId) -> "Complex":
        """The link: faces containing `face`, with `face` removed.

        Colors are renumbered 0..(link dimension); `original_colors`
        records the source colors in order."""
        mask, _ = face
        rest = [c for c in range(self.n_colors) if not (mask >> c) & 1]
        if not rest:
            return Complex(-1, 0, {})
        tops = []
        for t in self.up_set(face):
            tops.append([self.face_in_top(1 << c, t) for c in rest])
        return Complex.from_top_faces(len(rest) - 1, tops, original_colors=rest)

    # -- serialization -----------------------------------------------------------

    def serialize(self) -> str:
        lines = ["%d %d" % (self.D, self.n_top)]
        for m in self.masks:
            for idx, ups in enumerate(self.up_sets[m]):
                lines.append("%d %d %s" % (m, idx, ",".join(str(t) for t in ups)))
        return "\n".join(lines) + "\n"


def build_coset_complex(table: GroupTable) -> Complex:
    """Faces of type T are the cosets g*K_T; top faces are the elements."""
    if table.colors != tuple(range(table.D + 1)):
        raise GroupError("coset complex needs all generator colors enumerated")
    D = table.D
    up_sets: Dict[int, List[Tuple[int, ...]]] = {}
    keys: Dict[int, List] = {}
    for mask in range(1, 1 << (D + 1)):
        T = colors_of(mask)
        if mask == (1 << (D + 1)) - 1:
            # K_full = {Id}: one top face per element
            up_sets[mask] = [(g,) for g in range(table.size)]
            keys[mask] = list(range(table.size))
            continue
        # a stable sort groups the elements by coset rep (the coset's least
        # element), each coset in ascending order; split at each new rep
        reps = table.coset_reps(T)
        order = np.argsort(reps, kind="stable")
        starts = np.flatnonzero(np.diff(reps[order], prepend=-1)).tolist()
        members = order.tolist()
        bounds = zip(starts, starts[1:] + [len(members)])
        up_sets[mask] = [tuple(members[a:b]) for a, b in bounds]
        keys[mask] = reps[order[starts]].tolist()
    return Complex(D, table.size, up_sets, keys=keys, group=table)


def type_cycle_face_map(c: Complex) -> Dict[int, np.ndarray]:
    """For a coset complex, the face permutation induced by the
    type-cycling automorphism: per mask, image face index array.

    The image of a type-T face is a type-(T+1) face whose up-set is the
    pointwise image of the original up-set."""
    if c.group is None:
        raise ComplexError("type cycling needs a coset complex")
    perm = c.group.type_cycle_perm()
    out: Dict[int, np.ndarray] = {}
    n = c.n_colors
    full = c.full_mask
    for mask in c.masks:
        shifted = ((mask << 1) | (mask >> (n - 1))) & full
        face = c.top_to_face[mask]
        image_of_top = c.top_to_face[shifted][perm]
        images = np.full(c.n_faces(mask), -1, dtype=np.int64)
        images[face] = image_of_top
        # well defined: all tops of a face land in one image face
        if not np.array_equal(images[face], image_of_top):
            raise ComplexError(
                "the permutation splits a type-%d face over type-%d faces" % (mask, shifted)
            )
        out[mask] = images
    return out


def _n_distinct(sorted_values: np.ndarray) -> int:
    """The number of distinct values in a sorted array."""
    if not sorted_values.size:
        return 0
    return 1 + int(np.count_nonzero(sorted_values[1:] != sorted_values[:-1]))


def verify_structure(c: Complex) -> Dict[str, Tuple[bool, str]]:
    """Structural report: purity, colorability/partition, the up-set
    intersection law, and (small coset complexes) transitivity."""
    report: Dict[str, Tuple[bool, str]] = {}

    # purity: every face lies in at least one top face
    empty = [
        (m, i)
        for m in c.masks
        for i in c.faces(m)
        if not c.up_sets[m][i]
    ]
    report["purity"] = (not empty, "%d faces with empty up-set" % len(empty))

    # disjoint union: faces of each type partition the top faces
    bad_types = []
    for m in c.masks:
        total = sum(len(u) for u in c.up_sets[m])
        covered = int((c.top_to_face[m] >= 0).sum())
        if total != c.n_top or covered != c.n_top:
            bad_types.append(m)
    report["disjoint_union"] = (
        not bad_types,
        "failing type masks: %r" % bad_types if bad_types else "all types partition",
    )

    # colorability: |T(face)| vertices per face, one per color, is implied by
    # the per-type partition plus containment coherence of vertices: every
    # top of a face has the color vertex of the face's first top
    color_ok = True
    detail = "vertex lookups coherent"
    for m in c.masks:
        tops = np.flatnonzero(c.top_to_face[m] >= 0)
        face = c.top_to_face[m][tops]
        first = np.array([u[0] if u else -1 for u in c.up_sets[m]], dtype=np.int64)
        bad = first < 0  # an empty face spans no vertex
        for color in colors_of(m):
            vertex = c.top_to_face[1 << color]
            bad[face[vertex[tops] != vertex[first[face]]]] = True
        if bad.any():
            i = int(np.argmax(bad))
            for color in colors_of(m):
                vs = {c.face_in_top(1 << color, t) for t in c.up_sets[m][i]}
                if len(vs) != 1:
                    break
            color_ok = False
            detail = "face (%d,%d) spans %d color-%d vertices" % (m, i, len(vs), color)
            break
    report["colorability"] = (color_ok, detail)

    # intersection law: up-sets of two faces meet in the up-set of their
    # union-face, or not at all.  Exhaustive over all intersecting pairs:
    # the pair of faces through a top determines its union-type face, so
    # the law is equivalent to "(f1[t], f2[t]) determines fu[t]" per top.
    # Disjoint pairs satisfy the law vacuously.  Sorting the (pair, union
    # face) codes of the tops counts distinct codes and distinct pairs as
    # adjacent differences; a top no face covers reads face -1.
    inter_ok = True
    inter_detail = "exhaustive over all intersecting pairs via top faces"
    n_union = {m: np.count_nonzero(np.bincount(c.top_to_face[m] + 1)) for m in c.masks}
    for m1 in c.masks:
        for m2 in c.masks:
            mu = m1 | m2
            key = c.top_to_face[m1] * (c.n_faces(m2) + 1) + c.top_to_face[m2]
            width = c.n_faces(mu) + 1
            both = np.sort(key * width + c.top_to_face[mu] + 1)
            # the pair and the union face must determine each other on tops
            n_both = _n_distinct(both)
            if n_both != _n_distinct(both // width) or n_both != n_union[mu]:
                inter_ok = False
                inter_detail = "type masks %d, %d: a face pair spans two union faces" % (
                    m1,
                    m2,
                )
                break
        if not inter_ok:
            break
    report["intersection"] = (inter_ok, inter_detail)

    # transitivity condition (coset complexes, small): K_T K_j = the
    # intersection of the K_i K_j over i in T
    if c.group is not None and c.group.size <= 100_000:
        table = c.group
        ok = True
        detail = "exhaustive"
        for mask in c.masks:
            T = colors_of(mask)
            if len(T) < 2:
                continue
            for j in range(c.n_colors):
                if (mask >> j) & 1:
                    continue
                # K_A K_j is the union of the cosets a K_j over a in K_A
                reps = table.coset_reps([j])
                prod, *each = (
                    np.isin(reps, reps[table.enumerate_subgroup(A)])
                    for A in [T] + [[i] for i in T]
                )
                if not np.array_equal(prod, np.logical_and.reduce(each)):
                    ok = False
                    detail = "T=%r j=%d" % (T, j)
                    break
            if not ok:
                break
        report["transitivity"] = (ok, detail)

    return report


def corrupt_complex(c: Complex, mask: Optional[int] = None) -> Complex:
    """Negative control: drop one top id from one face's up-set so the
    per-type partition fails."""
    masks = [m for m in c.masks if m != c.full_mask and c.n_faces(m) > 0]
    m = mask if mask is not None else masks[0]
    ups = {k: [list(u) for u in v] for k, v in c.up_sets.items()}
    victim = ups[m][0]
    if len(victim) < 2:
        raise ComplexError("cannot corrupt a singleton up-set")
    victim.pop()
    return Complex(
        c.D,
        c.n_top,
        {k: [tuple(u) for u in v] for k, v in ups.items()},
        keys=c.keys,
        original_colors=c.original_colors,
    )


__all__ = [
    "ComplexError",
    "FaceId",
    "mask_of",
    "colors_of",
    "Complex",
    "build_coset_complex",
    "type_cycle_face_map",
    "verify_structure",
    "corrupt_complex",
]

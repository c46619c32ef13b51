"""Colored simplicial complexes: coset complexes and explicit fixtures.

Faces are stored per type mask (bit j of the mask = color j present).
A face is identified by (type_mask, index); its up-set is the ascending
list of top-face ids containing it, one row of the type's -1 padded
`face_tops` array.  `Complex` refuses faces of one type that overlap,
which is what makes `top_to_face` a well-defined lookup, but accepts a
type that misses a top (read as face -1), so that `verify_structure` can
report it; a `Sheaf` refuses such a complex (`Complex.nesting_failure`).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .group import GroupTable


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
    """A pure (D+1)-colorable D-dimensional complex, faces indexed by type.

    `face_tops[mask][f, p]` is top p of face f's up-set, ascending, -1
    past it (up-set sizes may differ within a type): the one stored form
    of the type's faces.  `top_to_face[mask][top]` is the face of the type
    in the top and `top_pos[mask][top]` the top's position in its up-set;
    both read -1 where no face of the type covers the top."""

    def __init__(
        self,
        D: int,
        n_top: int,
        face_tops: Dict[int, np.ndarray],
        group: Optional[GroupTable] = None,
        original_colors: Optional[Sequence[int]] = None,
    ):
        self.D = D
        self.n_colors = D + 1
        self.n_top = n_top
        self.full_mask = (1 << self.n_colors) - 1
        self.masks = [m for m in range(1, 1 << self.n_colors)]
        self.face_tops = face_tops
        self.group = group
        self.original_colors = (
            tuple(original_colors) if original_colors is not None else tuple(range(self.n_colors))
        )
        self.top_to_face: Dict[int, np.ndarray] = {}
        self.top_pos: Dict[int, np.ndarray] = {}
        for m in self.masks:
            present = face_tops[m] >= 0
            if (present[:, 1:] & ~present[:, :-1]).any():
                raise ComplexError("type %d up-sets are not -1 padded at the end" % m)
            face, pos = np.nonzero(present)
            tops = face_tops[m][face, pos]
            if tops.max(initial=-1) >= n_top or np.bincount(tops).max(initial=0) > 1:
                raise ComplexError("type %d faces do not partition the top faces" % m)
            self.top_to_face[m] = np.full(n_top, -1, dtype=np.int64)
            self.top_to_face[m][tops] = face
            self.top_pos[m] = np.full(n_top, -1, dtype=np.int64)
            self.top_pos[m][tops] = pos

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_top_faces(
        cls,
        D: int,
        tops: Sequence[Sequence],
        original_colors: Optional[Sequence[int]] = None,
    ) -> "Complex":
        """Build from explicit top faces; tops[t][c] is the label of the
        color-c vertex of top face t.  A type's faces are ordered by their
        labels."""
        n_colors = D + 1
        for t, vs in enumerate(tops):
            if len(vs) != n_colors:
                raise ComplexError("top face %d has %d vertices, need %d" % (t, len(vs), n_colors))
        face_tops: Dict[int, np.ndarray] = {}
        for m in range(1, 1 << n_colors):
            cs = colors_of(m)
            bucket: Dict[Tuple, List[int]] = {}
            for t, vs in enumerate(tops):
                bucket.setdefault(tuple(vs[c] for c in cs), []).append(t)
            ups = [bucket[k] for k in sorted(bucket)]
            face_tops[m] = np.full((len(ups), max(map(len, ups), default=0)), -1, dtype=np.int64)
            for i, u in enumerate(ups):
                face_tops[m][i, : len(u)] = u
        return cls(D, len(tops), face_tops, original_colors=original_colors)

    # -- queries -------------------------------------------------------------

    def faces(self, mask: int) -> range:
        return range(self.n_faces(mask))

    def n_faces(self, mask: int) -> int:
        return self.face_tops[mask].shape[0]

    def level_masks(self, level: int) -> List[int]:
        """Type masks of dimension-`level` faces, ascending."""
        return [m for m in self.masks if bin(m).count("1") == level + 1]

    def level_faces(self, level: int) -> List[FaceId]:
        out = []
        for m in self.level_masks(level):
            out.extend((m, i) for i in self.faces(m))
        return out

    def up_set(self, face: FaceId) -> Tuple[int, ...]:
        """The tops of one face, ascending."""
        mask, idx = face
        if mask not in self.face_tops or not 0 <= idx < self.n_faces(mask):
            raise ComplexError("unknown face %r" % (face,))
        row = self.face_tops[mask][idx]
        return tuple(row[row >= 0].tolist())

    def up_set_sizes(self, mask: int) -> np.ndarray:
        """The up-set size of each type-`mask` face."""
        return np.count_nonzero(self.face_tops[mask] >= 0, axis=1)

    def face_in_top(self, mask: int, top: int) -> int:
        return int(self.top_to_face[mask][top])

    @functools.cached_property
    def nesting_failure(self) -> Optional[str]:
        """Why a sheaf cannot gather through `top_to_face` here, or None:
        the first type that misses a top, or the first type with a face
        that does not lie inside one face of a one-step sub-type.  One
        gather per (type, facet type), found once per complex."""
        for tmask in self.masks:
            if (self.top_to_face[tmask] < 0).any():
                return "the type-%d faces miss a top" % tmask
            tops = self.face_tops[tmask]
            for mask in filter(None, (tmask & ~(1 << col) for col in colors_of(tmask))):
                face = self.top_to_face[mask][tops]
                if ((face != face[:, :1]) & (tops >= 0)).any():
                    return "a type-%d face spans two type-%d faces" % (tmask, mask)
        return None

    # -- link ------------------------------------------------------------------

    def link(self, face: FaceId) -> "Complex":
        """The link: faces containing `face`, with `face` removed.

        Colors are renumbered 0..(link dimension); `original_colors`
        records the source colors in order."""
        mask, _ = face
        rest = [c for c in range(self.n_colors) if not (mask >> c) & 1]
        if not rest:
            return Complex(-1, 0, {})
        ups = np.array(self.up_set(face), dtype=np.int64)
        tops = np.stack([self.top_to_face[1 << c][ups] for c in rest], axis=1)
        return Complex.from_top_faces(len(rest) - 1, tops.tolist(), original_colors=rest)

    # -- serialization -----------------------------------------------------------

    def serialize(self) -> str:
        lines = ["%d %d" % (self.D, self.n_top)]
        for m in self.masks:
            for idx, row in enumerate(self.face_tops[m].tolist()):
                lines.append("%d %d %s" % (m, idx, ",".join(str(t) for t in row if t >= 0)))
        return "\n".join(lines) + "\n"


def build_coset_complex(table: GroupTable) -> Complex:
    """Faces of type T are the cosets g*K_T; top faces are the elements."""
    D = table.D
    full = (1 << (D + 1)) - 1
    # K_full = {Id}: one top face per element
    face_tops = {full: np.arange(table.size, dtype=np.int64)[:, None]}
    for mask in range(1, full):
        # a stable sort groups the elements by coset rep (the coset's least
        # element), each coset ascending; every coset has |K_T| elements
        reps = table.coset_reps(colors_of(mask))
        order = np.argsort(reps, kind="stable")
        face_tops[mask] = order.reshape(_n_distinct(reps[order]), -1)
    return Complex(D, table.size, face_tops, group=table)


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
    empty = sum(int(np.count_nonzero(c.up_set_sizes(m) == 0)) for m in c.masks)
    report["purity"] = (not empty, "%d faces with empty up-set" % empty)

    # disjoint union: faces of each type partition the top faces
    bad_types = []
    for m in c.masks:
        total = int(c.up_set_sizes(m).sum())
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
        first = c.face_tops[m][:, :1].max(axis=1, initial=-1)  # -1 for an empty face
        bad = first < 0  # an empty face spans no vertex
        for color in colors_of(m):
            vertex = c.top_to_face[1 << color]
            bad[face[vertex[tops] != vertex[first[face]]]] = True
        if bad.any():
            i = int(np.argmax(bad))
            for color in colors_of(m):
                vs = {c.face_in_top(1 << color, t) for t in c.up_set((m, i))}
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
    size = int(c.up_set_sizes(m)[0])
    if size < 2:
        raise ComplexError("cannot corrupt a singleton up-set")
    face_tops = {k: v.copy() for k, v in c.face_tops.items()}
    face_tops[m][0, size - 1] = -1
    return Complex(c.D, c.n_top, face_tops, original_colors=c.original_colors)


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

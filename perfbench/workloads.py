"""The benchmark workloads.

Each workload has a `setup(seed)` that imports the package and builds the
inputs (this is what `setup_s` times) and a list of named units, each a
function of the inputs that makes some of the timed calls once and returns
its pinned checks as (name, passed) pairs.  Running the units in order is
one repetition of the workload.  Units are at most about a second long, so
that a run can time each of them many times; a unit may leave results in
`inputs["state"]` for the units after it.

- link16: the vertex-link computation at q=16 (one large `BitMatrix.rank`,
  4096 columns) plus the paper's q=8 link numbers.  Large-matrix `gf2`
  elimination dominates.
- q2: the 168-qubit q=2 code.  `build` is the whole build with both
  sheaves and exhaustive weight and pair-product sweeps (per-face `sheaf`
  work, thousands of tiny `gf2` eliminations); then `verify --suite css`,
  `report`, and orbit-CZ preservation at seeded group elements (`gates`
  membership).  The `floquet` and `gates` suites are left out: each is one
  call of about 8 s, too long to repeat within a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# q=16 has no paper value; 137 is the package's answer at the commit that
# added this benchmark, kept as a regression pin next to the paper's q=8.
LINK_ARGV = {
    16: ["report", "--q", "16", "--rm", "1,4", "--local-only"],
    8: ["report", "--q", "8", "--local-only"],
}
LINK_PINS = {
    16: {"vertex_code_dimension": 137, "rho0": "137/4096"},
    8: {"vertex_code_dimension": 76, "rho0": "19/128", "rate_bound": "7/64"},
}
# One orbit-CZ check per element order of SL_3(F_2) besides 1: the seed
# picks which element of each order, so every seed does the same work.
ORBIT_ORDERS = (2, 3, 4, 7)


def _cli(main, argv):
    """Run the command line in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _json_tail(text):
    return json.loads(text[text.index("{"):])


# -- link16 ---------------------------------------------------------------------


def setup_link16(seed):
    from cosetcode import cli

    return {"main": cli.main, "argv": LINK_ARGV}


def link_unit(q):
    def run(inp):
        code, text = _cli(inp["main"], inp["argv"][q])
        rep = _json_tail(text)
        checks = [("q%d.exit_code" % q, code == 0)]
        checks += [("q%d.%s" % (q, k), rep[k] == want) for k, want in LINK_PINS[q].items()]
        return checks

    return run


# -- q2 -------------------------------------------------------------------------


def setup_q2(seed):
    import cosetcode
    from cosetcode import cli, complexes, gates, sheaf

    ring = cosetcode.build_ring(1, 1)
    rng = random.Random(seed)
    return {
        "pkg": cosetcode,
        "cli": cli,
        "complexes": complexes,
        "gates": gates,
        "sheaf": sheaf,
        "ring": ring,
        "code": cosetcode.reed_muller(0, 1),
        "iso": cosetcode.VectorIso(ring.field),
        "verify_argv": ["verify", "--q", "2", "--suite", "css"],
        "report_argv": ["report", "--q", "2"],
        "picks": {order: rng.random() for order in ORBIT_ORDERS},
    }


def build(inp):
    pkg, cx, sh = inp["pkg"], inp["complexes"], inp["sheaf"]
    table = pkg.enumerate_group(2, inp["ring"])
    c = cx.build_coset_complex(table)
    s = sh.induce_lower_codes(sh.attach_local_codes(c, inp["code"], inp["iso"], inp["ring"]))
    d = sh.dual_sheaf(s)
    structure = cx.verify_structure(c)
    weights = sh.check_projected_weights(s, 2)
    checks = [("group_order", table.size == 168)]
    checks += [("structure.%s" % k, ok) for k, (ok, _) in structure.items()]
    checks += [
        ("projected_weights.ok", weights["ok"]),
        ("projected_weights.rows", weights["checked"] == 315),
    ]
    # exact pair counts keep both sweeps exhaustive
    for label, other in (("primal_dual", d), ("primal_primal", s)):
        pairs = sh.check_pair_products(s, other, 2)
        checks += [
            ("pair_products.%s.ok" % label, pairs["ok"]),
            ("pair_products.%s.pairs" % label, pairs["checked"] == 1827),
        ]
    return checks


def verify_css(inp):
    code, text = _cli(inp["cli"].main, inp["verify_argv"])
    css = json.loads(text)["css"]
    return [
        ("verify.exit_code", code == 0),
        ("verify.commutation", css["commutation"] is True),
        ("verify.unfolding", css["unfolding"] is True),
        ("verify.k", css["k"] == 46),
        ("verify.exact_half_rate", css["rate"]["exact_half_rate"] == "23/168"),
    ]


def report(inp):
    code, text = _cli(inp["cli"].main, inp["report_argv"])
    rep = json.loads(text)
    return [
        ("report.exit_code", code == 0),
        ("report.n", rep["n"] == 168),
        ("report.k", rep["k"] == 46),
        ("report.census", rep["logical_color_census"] == {"(0, 1)": 23, "(0, 2)": 23}),
        ("report.darboux", rep["darboux_pairing_identity"] == 46),
        ("report.floquet_max_check_weight", rep["floquet_max_check_weight"] == 2),
    ]


def stabilizers(inp):
    """Build the q=2 code's stabilizer generators and sort the group
    elements by order, for the orbit units."""
    pkg, gates, ring = inp["pkg"], inp["gates"], inp["ring"]
    table = pkg.enumerate_group(2, ring)
    c = pkg.build_coset_complex(table)
    s = pkg.induce_lower_codes(pkg.attach_local_codes(c, inp["code"], inp["iso"], ring))
    css_code, _ = pkg.extract_css(s, 0, 0, s_dual=pkg.dual_sheaf(s))
    n = css_code.n
    gens = [gates.Pauli.x_op(n, r) for r in css_code.h_x.int_rows()]
    gens += [gates.Pauli.z_op(n, r) for r in css_code.h_z.int_rows()]
    by_order = {}
    for gid in range(1, table.size):
        by_order.setdefault(table.element_order(gid), []).append(gid)
    inp["state"] = {"table": table, "gens": gens, "by_order": by_order}
    return [("stabilizers.n", n == 168)]


def orbit_unit(order):
    """Orbit-CZ preservation at the seed's element of the given order;
    the paper claims it for every left multiplication."""

    def run(inp):
        gates, st = inp["gates"], inp["state"]
        candidates = st["by_order"][order]
        gid = candidates[int(inp["picks"][order] * len(candidates))]
        circ = gates.orbit_cz_circuit([int(v) for v in st["table"].left_mul_perm(gid)])
        gens = st["gens"]
        ok = all(gates.in_group_with_sign(circ.conjugate(g), gens) for g in gens)
        return [("orbit_cz.order%d.preserved" % order, ok)]

    return run


WORKLOADS = {
    "link16": (setup_link16, [("q16", link_unit(16)), ("q8", link_unit(8))]),
    "q2": (
        setup_q2,
        [("build", build), ("verify_css", verify_css), ("report", report),
         ("stabilizers", stabilizers)]
        + [("orbit%d" % o, orbit_unit(o)) for o in ORBIT_ORDERS],
    ),
}

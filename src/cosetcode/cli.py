"""Command-line front end: build instances, run verification suites,
emit reports and matrix exports.

Exit codes: 0 pass, 1 verification finding, 2 config error (including
an unwritable --out, a flag the command does not read, D != 2 for the
rate and Floquet work, and a (q, m) whose generators close to less than
SL_{D+1}(R_m)), 3 resource cap refused, 4 internal error (any other
exception, reported on one stderr line).  Ignored flags, caps and the
D = 2 requirement are checked before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import fixtures
from .algebra import AlgebraError, VectorIso, build_ring, coprimality_check
from .complexes import build_coset_complex, verify_structure
from .css import (
    darboux_basis,
    extract_css,
    logical_basis,
    rate_report,
    unfolding_check,
)
from .floquet import build_schedule, permutation_layout, run_schedule
from .gates import (
    Circuit,
    Gate,
    Pauli,
    check_cz_conditions,
    check_r_conditions,
    cycle_clifford_circuit,
    cycle_phase_circuit,
    in_group_with_sign,
    orbit_cz_circuit,
)
from .gf2 import write_alist, write_matrix_market
from .group import (
    DEFAULT_ENUMERATION_CAP,
    GroupCapError,
    enumerate_group,
    generated_field_size,
    sl_order,
)
from .local_codes import dual_code, reed_muller
from .sheaf import (
    attach_local_codes,
    check_flasque,
    check_locally_acyclic,
    coboundary_matrix,
    dual_sheaf,
    induce_lower_codes,
    link_vertex_code_dimension,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

DEFAULT_RM = {2: (0, 1), 4: (0, 2), 8: (1, 3), 32: (2, 5)}

# the values a config file may give a store_true flag
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ConfigError(ValueError):
    pass


class CapRefusal(RuntimeError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetcode",
        description="Quantum Tanner color codes on special-linear coset complexes.",
    )
    p.add_argument("command", choices=["build", "verify", "report"])
    p.add_argument("--config", help="key = value file with the flags below as keys")
    p.add_argument("--D", type=int, default=2, help="complex dimension (default 2)")
    p.add_argument("--q", type=int, default=2, help="base field size 2^eta (default 2)")
    p.add_argument("--m", type=int, default=1, help="ring extension degree (default 1)")
    p.add_argument(
        "--phi",
        help="comma-separated field coefficients of the monic ring modulus",
    )
    p.add_argument("--rm", help="local code parameters as r,eta (default per q)")
    p.add_argument("--x", type=int, default=0, help="X-check sheaf level (default 0)")
    p.add_argument("--z", type=int, default=None, help="Z-check level (default D-2-x)")
    p.add_argument("--suite", choices=[*SUITES, "all"])
    p.add_argument(
        "--local-only",
        action="store_true",
        help="vertex-link computation and rate bound only (large instances)",
    )
    p.add_argument("--cap-enumeration", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--cap-qubits", type=int, default=1 << 20)
    p.add_argument("--cap-tableau", type=int, default=1 << 14, help="qubit cap of gates, floquet")
    p.add_argument("--out", help="output directory")
    p.add_argument(
        "--fixture",
        choices=fixtures.__all__,
        help="run the structure suite on a named built-in complex instead of a coset build",
    )
    return p


# the flags that pick an instance: a fixture run reads none of them
INSTANCE_FLAGS = (
    "D", "q", "m", "phi", "rm", "x", "z", "cap_enumeration", "cap_qubits", "cap_tableau"
)


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    if not args.config:
        return
    actions = {a.dest: a for a in parser._actions}
    try:
        with open(args.config) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip().strip("\"'")
                # the command and the config file itself come from the command line
                if key in ("command", "config") or not hasattr(args, key):
                    raise ConfigError("unknown config key %r" % key)
                action = actions[key]
                if action.nargs == 0:  # store_true flags
                    if value.lower() not in BOOLEANS:
                        raise ConfigError("bad value %r for config key %r" % (value, key))
                    setattr(args, key, BOOLEANS[value.lower()])
                    continue
                try:
                    typed = (action.type or str)(value)
                except ValueError:
                    raise ConfigError("bad value %r for config key %r" % (value, key))
                if action.choices is not None and typed not in action.choices:
                    raise ConfigError("%r must be one of %r" % (key, action.choices))
                setattr(args, key, typed)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)


def _refuse_unread(
    args: argparse.Namespace, parser: argparse.ArgumentParser, mode: str, dests: Sequence[str]
) -> None:
    """Refuse a non-default value of a flag that `mode` does not read."""
    for dest in dests:
        if getattr(args, dest) != parser.get_default(dest):
            raise ConfigError("--%s is not read with %s" % (dest.replace("_", "-"), mode))


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    if args.fixture and args.command != "verify":
        raise ConfigError("--fixture is read by verify only")
    if args.fixture:
        if args.suite not in (None, "structure"):
            raise ConfigError("--fixture runs the structure suite only")
        _refuse_unread(args, parser, "--fixture", INSTANCE_FLAGS)
    if args.local_only:
        if args.command == "verify":
            raise ConfigError("--local-only is read by build and report only")
        # the vertex-link work never reaches the caps of the global build
        _refuse_unread(args, parser, "--local-only", ("cap_qubits", "cap_tableau"))
    if args.suite is not None and args.command != "verify":
        raise ConfigError("--suite is read by verify only")
    if args.out is not None and args.command != "build":
        raise ConfigError("--out is read by build only")
    for dest in ("cap_enumeration", "cap_qubits", "cap_tableau"):
        if getattr(args, dest) < 1:
            raise ConfigError("--%s must be at least 1" % dest.replace("_", "-"))
    if args.m < 1:
        raise ConfigError("ring extension degree m must be at least 1, got %d" % args.m)
    q = args.q
    if q < 2 or q & (q - 1):
        raise ConfigError("q must be a power of two")
    eta = q.bit_length() - 1
    if args.rm:
        try:
            r_s, eta_s = args.rm.split(",")
            r, rm_eta = int(r_s), int(eta_s)
        except ValueError:
            raise ConfigError("--rm expects r,eta")
        if (1 << rm_eta) != q:
            raise ConfigError("local code length 2^%d != q = %d" % (rm_eta, q))
        if not 0 <= r <= rm_eta:
            raise ConfigError("--rm needs 0 <= r <= eta, got r=%d eta=%d" % (r, rm_eta))
    elif q in DEFAULT_RM:
        r, rm_eta = DEFAULT_RM[q]
    else:
        raise ConfigError("no default local code for q=%d; pass --rm" % q)
    z = args.z if args.z is not None else args.D - 2 - args.x
    if args.x + z != args.D - 2 or args.x < 0 or z < 0:
        raise ConfigError("need x + z = D - 2 with both nonnegative")
    phi = None
    if args.phi is not None:
        try:
            phi = [int(t) for t in args.phi.split(",")]
        except ValueError:
            raise ConfigError("--phi expects comma-separated integers")
    return {
        "D": args.D,
        "q": q,
        "eta": eta,
        "m": args.m,
        "phi": phi,
        "r": r,
        "x": args.x,
        "z": z,
        "type_cycle_coprime": coprimality_check(eta, args.m, args.D),
    }


def _refuse_early(args: argparse.Namespace, cfg: dict, suites: Sequence[str]) -> None:
    """Refuse what D != 2 or a cap rules out, before any work starts.

    |SL_{D+1}(R_m)| is both the number of elements to enumerate and the
    number of qubits (one per top face)."""
    if cfg["D"] != 2 and ({"css", "floquet"} & set(suites)):
        raise ConfigError("rates and the Floquet schedule are defined for D = 2 only")
    order = sl_order(cfg["D"] + 1, cfg["q"] ** cfg["m"])
    if order > args.cap_enumeration:
        raise CapRefusal(
            "group enumeration of %d elements exceeds cap %d "
            "(raise --cap-enumeration to override)" % (order, args.cap_enumeration)
        )
    if order > args.cap_qubits:
        raise CapRefusal(
            "qubit count %d exceeds cap %d (use --local-only for the link report)"
            % (order, args.cap_qubits)
        )
    tableau = [name for name in ("gates", "floquet") if name in suites]
    if tableau and order > args.cap_tableau:
        raise CapRefusal(
            "qubit count %d exceeds cap %d for the %s suite "
            "(raise --cap-tableau to override)" % (order, args.cap_tableau, tableau[0])
        )


def _refuse_link_early(args: argparse.Namespace, cfg: dict) -> None:
    """Refuse what the vertex-link work cannot do, or a cap rules out,
    before it enumerates K_0 (q^3 elements)."""
    if cfg["m"] != 1 or cfg["D"] != 2:
        raise ConfigError("local-only mode supports D = 2, m = 1")
    order = cfg["q"] ** 3
    if order > args.cap_enumeration:
        raise CapRefusal(
            "link group enumeration of %d elements exceeds cap %d "
            "(raise --cap-enumeration to override)" % (order, args.cap_enumeration)
        )


# the suites (and the build command) that read the CSS code
CODE_SUITES = {"css", "gates", "floquet", "build"}


def build_instance(args: argparse.Namespace, cfg: dict, suites: Sequence[str]) -> dict:
    """Enumerate the group and build the complex; then the primal and dual
    sheaves (`sheaf`, `dual`) for any suite but `structure`, and the CSS
    code (`code`) for `css`, `gates`, `floquet` and `build` only (`report`
    asks for `css`)."""
    _refuse_early(args, cfg, suites)
    ring = build_ring(cfg["eta"], cfg["m"], cfg["phi"])
    n, sub = cfg["D"] + 1, generated_field_size(cfg["q"], cfg["m"], cfg["D"])
    if sub != ring.size:
        raise ConfigError(
            "the generators close to a copy of SL_%d(F_%d), not SL_%d(R_%d): "
            "t^%d lies in the subfield F_%d" % (n, sub, n, cfg["m"], n, sub)
        )
    table = enumerate_group(cfg["D"], ring, cap=args.cap_enumeration)
    c = build_coset_complex(table)
    code_local = reed_muller(cfg["r"], cfg["eta"])
    iso = VectorIso(ring.field)
    inst = {
        "ring": ring, "table": table, "complex": c, "local_code": code_local, "iso": iso, "cfg": cfg
    }
    if set(suites) - {"structure"}:
        s = inst["sheaf"] = induce_lower_codes(attach_local_codes(c, code_local, iso, ring))
        s_dual = inst["dual"] = dual_sheaf(s)
    if CODE_SUITES & set(suites):
        meta = {"q": cfg["q"], "m": cfg["m"], "r": cfg["r"]}
        inst["code"], _ = extract_css(s, cfg["x"], cfg["z"], s_dual=s_dual, metadata=meta)
    return inst


def local_report(cfg: dict) -> dict:
    """Link-level computation: vertex-code dimension and the rate bound
    (D = 2, m = 1, as `_refuse_link_early` checks)."""
    ring = build_ring(cfg["eta"], 1, cfg["phi"])
    code_local = reed_muller(cfg["r"], cfg["eta"])
    iso = VectorIso(ring.field)
    dim_v = link_vertex_code_dimension(ring, code_local, iso)
    q = cfg["q"]
    rho0 = Fraction(dim_v, q ** 3)
    rho1 = Fraction(code_local.k, code_local.n)
    return {
        "vertex_code_dimension": dim_v,
        "vertex_up_set": q ** 3,
        "rho0": rho0,
        "rho1": rho1,
        "rate_bound": 6 * rho1 - 6 * rho0 - 2,
    }


# -- suites ----------------------------------------------------------------------


def suite_structure(inst: dict) -> dict:
    report = verify_structure(inst["complex"])
    return {name: ok for name, (ok, _) in report.items()}


def suite_sheaf(inst: dict) -> dict:
    s, s_dual = inst["sheaf"], inst["dual"]
    D = s.complex.D
    out = {
        "flasque": check_flasque(s),
        "locally_acyclic": check_locally_acyclic(s),
    }
    for j in range(D - 1):
        d0 = coboundary_matrix(s, j)
        d1 = coboundary_matrix(s, j + 1)
        out["delta_squared_zero_%d" % j] = d1.matmul(d0).is_zero()
    # a self-dual sheaf is its own dual (`dual_sheaf`): its check is done
    out["dual_flasque"] = out["flasque"] if s_dual is s else check_flasque(s_dual)
    return out


def suite_css(inst: dict) -> dict:
    s, s_dual, code = inst["sheaf"], inst["dual"], inst["code"]
    x = code.metadata["x"]
    z = code.metadata["z"]
    out = {"commutation": True}  # CssCode raises on construction otherwise
    unf = unfolding_check(code, s, s_dual, x, z)
    out["unfolding"] = unf["ok"]
    out["k"] = code.code_dimension()
    rr = rate_report(s)
    out["rate"] = {k: str(v) for k, v in rr.items()}
    return out


def _stabilizer_paulis(code) -> Tuple[Pauli, ...]:
    """One tuple, so that each membership query finds its bases by identity."""
    n = code.n
    xs = [Pauli.x_op(n, r) for r in code.h_x.int_rows()]
    return tuple(xs + [Pauli.z_op(n, r) for r in code.h_z.int_rows()])


def _circuit_preserves(circ: Circuit, gens: Sequence[Pauli]) -> bool:
    """Every generator's image is in the group with its sign; an image
    equal to its generator is, with no query."""
    return all(im == g or in_group_with_sign(im, gens) for g in gens for im in [circ.conjugate(g)])


def _two_block_cz_preserves(gens: Sequence[Pauli], n: int) -> bool:
    """CZ between qubit i of one block and qubit i of the other preserves
    the two-block group G x G.  G x G is a direct product, so each n-qubit
    half of an image is queried against the one-block generators, with
    the image's phase on the first half.  An image equal to its
    generator needs no query."""
    circ = Circuit(2 * n, [[Gate("CZ", (i, n + i)) for i in range(n)]])
    low = (1 << n) - 1
    shifted = (Pauli(2 * n, g.p, g.x << s, g.z << s) for s in (0, n) for g in gens)
    return all(
        im == g
        or in_group_with_sign(Pauli(n, im.p, im.x & low, im.z & low), gens)
        and in_group_with_sign(Pauli(n, 0, im.x >> n, im.z >> n), gens)
        for g in shifted
        for im in [circ.conjugate(g)]
    )


def suite_gates(inst: dict) -> dict:
    code = inst["code"]
    table = inst["table"]
    n = code.n
    gens, local = _stabilizer_paulis(code), inst["local_code"]
    out: dict = {}
    # H swaps the X and Z checks: the paper claims it for self-dual local
    # codes only, so the key is fixed before the check runs, not by its result
    h_key = "transversal_h" if dual_code(local) == local else "info_transversal_h"
    for key, name in (("transversal_s", "S"), (h_key, "H")):
        out[key] = _circuit_preserves(Circuit(n, [[Gate(name, tuple(range(n)))]]), gens)
    out["two_block_cz"] = _two_block_cz_preserves(gens, n)
    # orbit circuits for one element per available order in {2, 3, 7}
    orders_found = {}
    for gid in range(1, table.size):
        o = table.element_order(gid)
        if o in (2, 3, 7) and o not in orders_found:
            orders_found[o] = gid
        if len(orders_found) == 3:
            break
    for o, gid in sorted(orders_found.items()):
        perm = [int(v) for v in table.left_mul_perm(gid)]
        circ = orbit_cz_circuit(perm)
        out["orbit_order_%d" % o] = _circuit_preserves(circ, gens)
    # type-cycle gates (need gcd(q^m - 1, D + 1) = 1 for order-1/3 orbits)
    cfg = inst["cfg"]
    if not cfg.get("type_cycle_coprime", True):
        print(
            "note: gcd(2^%d - 1, %d) != 1; type-cycle gate checks are skipped"
            % (cfg["eta"] * cfg["m"], cfg["D"] + 1),
            file=sys.stderr,
        )
    else:
        cyc = [int(v) for v in table.type_cycle_perm()]
        out["cycle_phase_gate"] = _circuit_preserves(cycle_phase_circuit(cyc), gens)
        out["cycle_clifford_gate"] = _circuit_preserves(cycle_clifford_circuit(cyc), gens)
    # arithmetic conditions; phase-gate availability depends on the local
    # code's divisibility level, so it is informational rather than pass/fail
    out["info_r_conditions"] = check_r_conditions(local, code.metadata["D"])
    out["cz_conditions"] = check_cz_conditions(local, code.metadata["D"])
    return out


def suite_floquet(inst: dict) -> dict:
    s, s_dual, code = inst["sheaf"], inst["dual"], inst["code"]
    schedule = build_schedule(s, s_dual)
    rep = run_schedule(schedule, static_k=code.code_dimension())
    out = {
        "anomalies": rep["anomalies"],
        "periodic": rep["periodic"],
        "half_dimension_ok": rep.get("half_dimension_ok"),
        "max_check_weight": rep["max_check_weight"],
        "layout_ok": True,
    }
    if inst["cfg"].get("type_cycle_coprime", True):
        layout = permutation_layout(s.complex)
        out["layout_ok"] = (
            layout["orbits_ok"]
            and layout["cube_is_identity"]
            and layout["partition_map_ok"]
        )
    return out


# the suites in the order `--suite all` runs them
SUITES = {
    "structure": suite_structure, "sheaf": suite_sheaf, "css": suite_css,
    "gates": suite_gates, "floquet": suite_floquet,
}


def _suite_passed(result: dict) -> bool:
    """Every bool in the result is true, except under `info_` keys; a
    None (a check that does not apply) counts for nothing."""
    flat = []

    def walk(v):
        if isinstance(v, bool):
            flat.append(v)
        elif isinstance(v, dict):
            for key, vv in v.items():
                if not str(key).startswith("info_"):
                    walk(vv)

    walk(result)
    return all(flat)


# -- commands --------------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def cmd_build(args: argparse.Namespace, cfg: dict) -> int:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    if args.local_only:
        _refuse_link_early(args, cfg)
        rep = local_report(cfg)
        path = os.path.join(out, "local_report.json")
        with open(path, "w") as fh:
            json.dump(_jsonable(rep), fh, indent=2)
        print("vertex code dimension: %d" % rep["vertex_code_dimension"])
        print("rate bound: %s" % rep["rate_bound"])
        print("wrote %s" % path)
        return EXIT_OK
    inst = build_instance(args, cfg, ("build",))
    code = inst["code"]
    base = os.path.join(out, "q%d_m%d" % (cfg["q"], cfg["m"]))
    write_alist(code.h_x, base + "_hx.alist")
    write_alist(code.h_z, base + "_hz.alist")
    write_matrix_market(code.h_x, base + "_hx.mtx")
    write_matrix_market(code.h_z, base + "_hz.mtx")
    with open(base + "_complex.txt", "w") as fh:
        fh.write(inst["complex"].serialize())
    meta = {
        "n": code.n,
        "k": code.code_dimension(),
        "config": {k: _jsonable(v) for k, v in cfg.items()},
        "check_weights": code.check_weight_histogram(),
    }
    with open(base + "_meta.json", "w") as fh:
        json.dump(_jsonable(meta), fh, indent=2)
    print("built n=%d k=%d code; files at %s_*" % (code.n, meta["k"], base))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: dict) -> int:
    if args.fixture:
        return _verify_fixture(args)
    wanted = list(SUITES) if args.suite in (None, "all") else [args.suite]
    inst = build_instance(args, cfg, wanted)
    results = {}
    ok = True
    for name in wanted:
        results[name] = SUITES[name](inst)
        ok = ok and _suite_passed(results[name])
    print(json.dumps(_jsonable(results), indent=2))
    return EXIT_OK if ok else EXIT_FINDING


def _verify_fixture(args: argparse.Namespace) -> int:
    report = verify_structure(getattr(fixtures, args.fixture)())
    print(json.dumps(_jsonable({k: v for k, v in report.items()}), indent=2))
    return EXIT_OK if all(ok for ok, _ in report.values()) else EXIT_FINDING


def cmd_report(args: argparse.Namespace, cfg: dict) -> int:
    if args.local_only:
        _refuse_link_early(args, cfg)
        rep = local_report(cfg)
        print("rho0 = %s, rate >= %s" % (rep["rho0"], rep["rate_bound"]))
        print(json.dumps(_jsonable(rep), indent=2))
        return EXIT_OK
    inst = build_instance(args, cfg, ("css",))
    code = inst["code"]
    s, s_dual = inst["sheaf"], inst["dual"]
    lb = logical_basis(code, s, s_dual, cfg["x"], cfg["z"])
    rep = {
        "n": code.n,
        "k": code.code_dimension(),
        "check_weights": code.check_weight_histogram(),
        "rate": {k: str(v) for k, v in rate_report(s).items()},
        "logical_color_census": {},
        "floquet_max_check_weight": build_schedule(s, s_dual).max_check_weight(),
    }
    for T, _ in lb.x_logicals:
        key = str(T)
        rep["logical_color_census"][key] = rep["logical_color_census"].get(key, 0) + 1
    if lb.x_logicals:
        dlb = darboux_basis(lb)
        rep["darboux_pairing_identity"] = dlb.pairing().rows
    print(json.dumps(_jsonable(rep), indent=2))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        cfg = _validate(args, parser)
        if args.command == "build":
            try:
                return cmd_build(args, cfg)
            except OSError as exc:
                raise ConfigError("cannot write to --out: %s" % exc)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        return cmd_report(args, cfg)
    except (ConfigError, AlgebraError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (CapRefusal, GroupCapError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a library error or a bug; never a finding's exit 1
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: builds, verification suites, reports, config
files, and the resource-cap refusal paths."""

import functools
import hashlib
import json

import pytest

from cosetcode import cli, fixtures, sheaf
from cosetcode.cli import main
from cosetcode.complexes import Complex
from cosetcode.gf2 import BitMatrix, EchelonBasis
from cosetcode.group import GroupError, GroupTable
from cosetcode.local_codes import reed_muller
from cosetcode.sheaf import SheafError


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail any run that starts enumerating a group."""

    def enumerate_(*args):
        raise AssertionError("group enumeration started")

    monkeypatch.setattr(GroupTable, "_enumerate", enumerate_)


def test_build_q2_writes_artifacts(tmp_path):
    out = tmp_path / "build"
    assert main(["build", "--q", "2", "--out", str(out)]) == 0
    base = out / "q2_m1"
    for suffix in ("_hx.alist", "_hz.alist", "_hx.mtx", "_hz.mtx",
                   "_complex.txt", "_meta.json"):
        assert (out / ("q2_m1" + suffix)).exists() or (
            base.parent / (base.name + suffix)
        ).exists()
    meta = json.loads((out / "q2_m1_meta.json").read_text())
    assert meta["n"] == 168
    assert meta["k"] == 46
    assert meta["check_weights"]["x"] == {"8": 63}


# sha256 of the q=2 outputs: the build files, and stdout of verify and report
Q2_DIGESTS = {
    "q2_m1_hx.alist": "4cc2481f2f676959d88099e154330f75caa1206df7c863388f1a818b05866651",
    "q2_m1_hz.alist": "4cc2481f2f676959d88099e154330f75caa1206df7c863388f1a818b05866651",
    "q2_m1_hx.mtx": "c8fc75bf32443c864863fd1319fd4fef732224958d838598308a109ba90bcfd3",
    "q2_m1_hz.mtx": "c8fc75bf32443c864863fd1319fd4fef732224958d838598308a109ba90bcfd3",
    "q2_m1_meta.json": "8a9565c9a3baf0926d5cca1ae6c2e30052a37d71b6e30a70c47769f8a3170532",
    "q2_m1_complex.txt": "adea764addc85278fbc837d252b4bf13bb7bbd195e0a3ab58905a884615c112f",
    "verify": "275a4ede1e6a5a9b398013ea61fa94cc1bd06af39fbe7457f4e962c1d67697b0",
    "report": "8ccb679b62494bb3418e3d226a405820b47ebacc0694fbe55ec92743b82da9ec",
}


def test_q2_outputs_match_pinned_digests(tmp_path, capsys):
    def digest(data):
        return hashlib.sha256(data).hexdigest()

    assert main(["build", "--q", "2", "--out", str(tmp_path)]) == 0
    got = {p.name: digest(p.read_bytes()) for p in tmp_path.iterdir()}
    capsys.readouterr()
    for name, argv in (("verify", ["--suite", "all"]), ("report", [])):
        assert main([name, "--q", "2"] + argv) == 0
        got[name] = digest(capsys.readouterr().out.encode())
    assert got == Q2_DIGESTS


def test_q2_verify_all_induces_once_and_checks_nesting_once(monkeypatch, capsys):
    # RM(0,1) is self-dual, so the dual sheaf is the primal and no second
    # induction runs; every sheaf on the one complex shares its nesting check
    induced, checked = [], []
    induce = sheaf.induce_lower_codes
    for module in (sheaf, cli):
        monkeypatch.setattr(module, "induce_lower_codes", lambda s: induced.append(s) or induce(s))
    nesting = Complex.nesting_failure.func
    counted = functools.cached_property(lambda c: checked.append(c) or nesting(c))
    counted.__set_name__(Complex, "nesting_failure")
    monkeypatch.setattr(Complex, "nesting_failure", counted)
    assert main(["verify", "--q", "2", "--suite", "all"]) == 0
    assert json.loads(capsys.readouterr().out)["css"]["k"] == 46
    assert len(induced) == 1 and len(checked) == 1


def test_q2_css_and_report_do_no_repeated_elimination(monkeypatch, capsys):
    # pinned work counts: the unfolding check reads delta^1's rows and
    # builds no cocycle basis, the self-dual pair's logical family is
    # computed once, from one psi_T kernel per color type, and checked in
    # one product, and a matrix is ranked once however often it is asked
    counts = {}
    for owner, name, label in ((BitMatrix, "transpose", "transpose"),
                               (BitMatrix, "kernel_basis", "kernel_basis"),
                               (EchelonBasis, "__init__", "EchelonBasis")):
        original = getattr(owner, name)

        def counted(*args, label=label, original=original):
            counts[label] = counts.get(label, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    pinned = {
        "verify": ({"transpose": 4, "EchelonBasis": 76}, "k", 46),
        "report": ({"transpose": 8, "kernel_basis": 2, "EchelonBasis": 73}, "n", 168),
    }
    for command, (want, key, value) in pinned.items():
        argv = [command, "--q", "2"] + (["--suite", "css"] if command == "verify" else [])
        counts.clear()
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["css"] if command == "verify" else out)[key] == value
        assert counts == want, command


def test_floquet_suite_queries_no_vertex_operators(monkeypatch, capsys):
    # the suite's JSON carries no per-round record, so vertex operators
    # would be built and queried for nothing
    def vertex_x_operators(*args):
        raise AssertionError("vertex operators built")

    monkeypatch.setattr(cli, "vertex_x_operators", vertex_x_operators, raising=False)
    assert main(["verify", "--q", "2", "--suite", "floquet"]) == 0
    assert "per_round" not in json.loads(capsys.readouterr().out)["floquet"]


def test_sheaf_suite_checks_a_self_dual_sheaf_once(monkeypatch, capsys):
    # RM(0,1) gives a sheaf that is its own dual: one flasqueness check
    # serves both entries; RM(1,1) does not, and its dual is not flasque
    checked = []
    flasque = cli.check_flasque
    monkeypatch.setattr(cli, "check_flasque", lambda s: checked.append(s) or flasque(s))
    for rm, calls, code in (("0,1", 1, 0), ("1,1", 2, 1)):
        checked.clear()
        assert main(["verify", "--q", "2", "--rm", rm, "--suite", "sheaf"]) == code
        out = json.loads(capsys.readouterr().out)["sheaf"]
        assert len(checked) == calls and out["flasque"]
        assert out["dual_flasque"] == (calls == 1), rm


def test_build_local_only_q8(tmp_path, capsys):
    assert main([
        "build", "--q", "8", "--local-only", "--out", str(tmp_path)
    ]) == 0
    rep = json.loads((tmp_path / "local_report.json").read_text())
    assert rep["vertex_code_dimension"] == 76
    assert rep["rate_bound"] == "7/64"


def test_verify_fixture_octahedron_passes(capsys):
    assert main(["verify", "--fixture", "octahedron"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(ok for ok, _ in report.values())
    # flags left at their defaults, and the structure suite, are accepted
    assert main(["verify", "--fixture", "octahedron", "--suite", "structure", "--q", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == report


def test_verify_fixture_corrupted_fails(capsys):
    assert main(["verify", "--fixture", "corrupted_octahedron"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["disjoint_union"][0]


def test_verify_unknown_fixture_is_config_error(tmp_path, capsys):
    # only the names in fixtures.__all__ are fixtures: argparse refuses
    # the rest, and the config file checks the same choices
    cfg = tmp_path / "run.cfg"
    for name in ("nonexistent", "Complex", "corrupt_complex", "__name__"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fixture", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        cfg.write_text("fixture = %s\n" % name)
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_fixture_help_lists_every_fixture():
    usage = cli._build_parser().format_help()
    assert all(name in usage for name in fixtures.__all__)


def test_verify_structure_suite_q2(capsys):
    assert main(["verify", "--q", "2", "--suite", "structure"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["structure"]["disjoint_union"]
    assert report["structure"]["intersection"]


def _instance_without(monkeypatch, suites, *builders):
    """`build_instance` at q=2 for `suites`, with each named builder
    raising if it is called."""

    def fail(*args, **kwargs):
        raise AssertionError("built for %r" % (suites,))

    for name in builders:
        monkeypatch.setattr(cli, name, fail)
    parser = cli._build_parser()
    args = parser.parse_args(["verify", "--q", "2"])
    return cli.build_instance(args, cli._validate(args, parser), suites)


def test_structure_builds_no_sheaf(monkeypatch):
    builders = ("attach_local_codes", "induce_lower_codes", "dual_sheaf", "extract_css")
    inst = _instance_without(monkeypatch, ("structure",), *builders)
    assert inst["complex"].n_top == 168
    assert not {"sheaf", "dual", "code"} & set(inst)


def test_sheaf_suite_builds_no_css_code(monkeypatch):
    inst = _instance_without(monkeypatch, ("sheaf",), "extract_css")
    assert inst["sheaf"].level_dim(0) == inst["dual"].level_dim(0) == 63
    assert "code" not in inst


def test_config_errors_exit_two():
    assert main(["build", "--q", "6"]) == 2  # not a power of two
    assert main(["build", "--q", "16"]) == 2  # no default local code
    assert main(["build", "--q", "2", "--rm", "bogus"]) == 2
    assert main(["build", "--q", "2", "--rm", "0,3"]) == 2  # length mismatch
    assert main(["build", "--q", "2", "--x", "1"]) == 2  # x + z != D - 2
    assert main(["build", "--config", "/nonexistent/path.cfg"]) == 2


@pytest.mark.parametrize(
    "argv,config,flag",
    [
        (["verify", "--q", "2", "--suite", "gates", "--cap-tableau", "-1"], None, "cap-tableau"),
        (["verify", "--q", "2", "--cap-enumeration", "-5"], None, "cap-enumeration"),
        (["build", "--q", "2", "--cap-qubits", "0"], None, "cap-qubits"),
        (["verify", "--q", "2", "--suite", "floquet"], "cap_tableau = 0", "cap-tableau"),
        (["report", "--q", "2"], "cap-enumeration = -5", "cap-enumeration"),
        (["build", "--q", "2"], "cap_qubits = -1", "cap-qubits"),
    ],
)
def test_caps_below_one_exit_two(no_enumeration, tmp_path, argv, config, flag, capsys):
    # a cap below 1 is a config error, not a refusal of the work it caps
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: --%s must be at least 1\n" % flag


def test_transversal_h_is_informational_for_a_non_self_dual_local_code(capsys):
    # RM(1,1) is the whole space, whose dual is zero: H is not claimed
    main(["verify", "--q", "2", "--rm", "1,1", "--suite", "gates"])
    gates = json.loads(capsys.readouterr().out)["gates"]
    assert "info_transversal_h" in gates and "transversal_h" not in gates


@pytest.mark.parametrize(
    "argv,config",
    [
        (["report", "--fixture", "octahedron"], None),
        (["build", "--fixture", "octahedron", "--out", "OUT"], None),
        (["verify", "--q", "8", "--local-only"], None),
        (["report"], "fixture = octahedron"),
        (["build", "--out", "OUT"], "fixture = octahedron"),
        (["verify", "--q", "8"], "local_only = yes"),
        (["report", "--q", "2", "--suite", "gates"], None),
        (["build", "--q", "2", "--suite", "css", "--out", "OUT"], None),
        (["report", "--q", "2", "--out", "OUT"], None),
        (["verify", "--q", "2", "--out", "OUT"], None),
        (["report", "--q", "2"], "suite = gates"),
        (["build", "--q", "2", "--out", "OUT"], "suite = all"),
        (["verify", "--q", "2"], "out = OUT"),
        # a fixture run checks the structure of a built-in complex only
        (["verify", "--fixture", "octahedron", "--suite", "css", "--q", "8"], None),
        (["verify", "--fixture", "octahedron", "--suite", "all"], None),
        (["verify", "--fixture", "octahedron", "--q", "4"], None),
        (["verify", "--fixture", "octahedron", "--D", "3"], None),
        (["verify", "--fixture", "octahedron", "--m", "2"], None),
        (["verify", "--fixture", "octahedron", "--phi", "1,1"], None),
        (["verify", "--fixture", "octahedron", "--rm", "1,1"], None),
        (["verify", "--fixture", "octahedron", "--x", "0", "--z", "1"], None),
        (["verify", "--fixture", "octahedron", "--cap-enumeration", "5"], None),
        (["verify", "--fixture", "octahedron", "--cap-qubits", "5"], None),
        (["verify", "--fixture", "octahedron", "--cap-tableau", "5"], None),
        (["verify", "--fixture", "octahedron"], "suite = gates"),
        (["verify", "--fixture", "octahedron"], "q = 4"),
        # the vertex-link work reads no cap of the global build
        (["report", "--q", "8", "--local-only", "--cap-qubits", "5"], None),
        (["build", "--q", "8", "--local-only", "--cap-qubits", "5", "--out", "OUT"], None),
        (["report", "--q", "8", "--local-only", "--cap-tableau", "5"], None),
        (["build", "--q", "8", "--local-only", "--out", "OUT"], "cap_tableau = 5"),
    ],
)
def test_flags_the_command_ignores_exit_two(no_enumeration, tmp_path, argv, config, capsys):
    # refused before any work: no enumeration, no --out directory
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config.replace("OUT", str(out)) + "\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["periodic", "layout_ok", "half_dimension_ok"])
def test_floquet_verdict_is_every_bool(key):
    # run_schedule's anomalies is always 0, and a None half-dimension
    # check (no static k to halve) counts for nothing
    result = {
        "anomalies": 0,
        "periodic": True,
        "half_dimension_ok": True,
        "max_check_weight": 2,
        "layout_ok": True,
    }
    assert cli._suite_passed(result)
    assert cli._suite_passed(dict(result, half_dimension_ok=None))
    assert not cli._suite_passed(dict(result, **{key: False}))


def test_format_option_is_gone():
    # --format and --seed were parsed and never read; argparse now rejects them
    for flag in ("--format", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--q", "2", flag, "1"])
        assert exc.value.code == 2


def test_cap_refusals_exit_three():
    # group enumeration cap: q=8 full group has 16482816 elements
    assert main(["build", "--q", "8", "--cap-enumeration", "20000"]) == 3
    # qubit cap: q=4 gives 60480 tops
    assert main([
        "build", "--q", "4", "--cap-enumeration", "100000",
        "--cap-qubits", "1000",
    ]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # enumeration cap: q=8 full group has 16482816 elements
        ["report", "--q", "8", "--cap-enumeration", "400000", "--cap-qubits", "100000000"],
        # qubit cap: q=4 gives 60480 tops
        ["build", "--q", "4", "--cap-qubits", "1000"],
        # tableau cap: q=2 gives 168 qubits
        ["verify", "--q", "2", "--suite", "gates", "--cap-tableau", "100"],
        # the vertex link has q^3 = 4096 tops at q=16
        ["report", "--q", "16", "--rm", "1,4", "--local-only", "--cap-enumeration", "100"],
        ["build", "--q", "16", "--rm", "1,4", "--local-only", "--cap-enumeration", "100"],
        # the Floquet schedule tracks a tableau over the qubits too
        ["verify", "--q", "2", "--suite", "floquet", "--cap-tableau", "100"],
    ],
)
def test_caps_refuse_before_enumeration(no_enumeration, argv, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("refused: ")


def test_tableau_cap_names_the_suite(no_enumeration, capsys):
    for suite in ("gates", "floquet"):
        assert main(["verify", "--q", "2", "--suite", suite, "--cap-tableau", "100"]) == 3
        assert "for the %s suite" % suite in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["report"]] + [["verify", "--suite", s] for s in ("css", "floquet", "all")]
    + [["report", "--local-only", "--cap-enumeration", "1"]],
)
def test_d3_rate_and_floquet_work_refused_before_build(no_enumeration, argv):
    assert main(argv + ["--D", "3", "--q", "2"]) == 2


@pytest.mark.parametrize("suite", ["structure", "sheaf"])
def test_d3_structure_and_sheaf_go_on_to_build(no_enumeration, suite, capsys):
    assert main(["verify", "--suite", suite, "--D", "3", "--q", "2"]) == 4
    assert "group enumeration started" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--suite", "structure"], ["build"], ["report"]])
def test_generators_short_of_sl_refused_before_enumeration(no_enumeration, command, capsys):
    # q=2, m=2: t^3 = 1, so the generators close to a copy of SL_3(F_2)
    assert main(command + ["--q", "2", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "SL_3(F_2)" in err


NOTE = "type-cycle gate checks are skipped"


@pytest.mark.parametrize(
    "argv,code,noted",
    [
        # gcd(2^4 - 1, 3) = 3 and gcd(2^2 - 1, 3) = 3: neither is coprime;
        # every run but the fixture's is refused before it enumerates, so
        # none reaches the gates suite, which is where the note is printed
        (["report", "--q", "16", "--rm", "1,4", "--local-only", "--cap-enumeration", "100"], 3, False),
        (["build", "--q", "4", "--cap-qubits", "1000"], 3, False),
        (["verify", "--q", "4", "--suite", "structure", "--cap-qubits", "1000"], 3, False),
        (["verify", "--q", "4", "--fixture", "octahedron"], 2, False),
        (["verify", "--q", "4", "--suite", "gates"], 3, False),
        (["verify", "--q", "4", "--suite", "all"], 3, False),
    ],
)
def test_type_cycle_note_only_when_gates_run(no_enumeration, argv, code, noted, capsys):
    assert main(argv) == code
    assert (NOTE in capsys.readouterr().err) == noted


def test_gates_suite_notes_skipped_type_cycle_checks(code2, table2, capsys):
    inst = {
        "code": code2,
        "table": table2,
        "local_code": reed_muller(0, 1),
        "cfg": {"D": 2, "eta": 1, "m": 2, "type_cycle_coprime": False},
    }
    out = cli.suite_gates(inst)
    assert "cycle_phase_gate" not in out and "cycle_clifford_gate" not in out
    assert capsys.readouterr().err == "note: gcd(2^2 - 1, 3) != 1; %s\n" % NOTE


def test_unwritable_out_exits_two(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["build", "--q", "2", "--out", str(blocker / "x")]) == 2


def test_library_error_exits_four(monkeypatch, capsys):
    def fail(*args):
        raise SheafError("injected")

    monkeypatch.setattr(cli, "attach_local_codes", fail)
    assert main(["verify", "--q", "2", "--suite", "sheaf"]) == 4
    assert capsys.readouterr().err == "internal error: SheafError: injected\n"

    # a GroupError other than the generation refusal is no config error
    def fail_group(*args, **kwargs):
        raise GroupError("injected")

    monkeypatch.setattr(cli, "enumerate_group", fail_group)
    assert main(["verify", "--q", "2", "--suite", "structure"]) == 4
    assert capsys.readouterr().err == "internal error: GroupError: injected\n"


def test_config_file_parsing(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nq = 2\nsuite = structure\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"structure"}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("nonsense = 1", "seed = 1"):
        cfg.write_text(line + "\n")
        assert main(["verify", "--config", str(cfg)]) == 2


def test_config_file_values_are_typed(tmp_path, capsys):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text("q = 2\nz = 0\nsuite = structure\n")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"structure"}


@pytest.mark.parametrize("line", ["q = abc", "z = ", "suite = everything"])
def test_config_file_bad_value_exits_two(tmp_path, line):
    cfg = tmp_path / "bad_value.cfg"
    cfg.write_text(line + "\n")
    assert main(["verify", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["command = build", "config = other.cfg"])
def test_config_file_cannot_set_command_or_config(tmp_path, line):
    # a file cannot switch the command: `command = build` would write to --out
    cfg = tmp_path / "cmd.cfg"
    cfg.write_text(line + "\nq = 2\nsuite = structure\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("value,code", [("yes", 0), ("No", 3), ("maybe", 2), ("", 2)])
def test_config_file_booleans(tmp_path, capsys, value, code):
    # `maybe` is no boolean; read as false it would start the full q=8 build
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("local_only = %s\n" % value)
    assert main(["report", "--q", "8", "--config", str(cfg)]) == code


def test_ring_degree_below_one_exits_two(no_enumeration, capsys):
    # m = 0 has no default modulus: refused as configuration, not a crash
    assert main(["verify", "--q", "2", "--m", "0"]) == 2
    # one line: no type-cycle note ahead of the refusal
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize(
    "argv,config,m",
    [
        (["verify", "--m", "-1", "--suite", "structure"], None, -1),
        (["report", "--m", "-2", "--local-only"], None, -2),
        (["verify", "--suite", "structure"], "m = -1", -1),
        (["report", "--local-only"], "m = 0", 0),
    ],
)
def test_ring_degree_below_one_is_refused_before_use(
    no_enumeration, tmp_path, argv, config, m, capsys
):
    # a negative m used to reach the coprimality check and exit 4
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: ring extension degree m must be at least 1, got %d\n" % m
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--q", "2", "--rm", "5,1"],
        ["report", "--q", "4", "--local-only", "--rm", "3,2"],
        ["build", "--q", "2", "--rm=-1,1"],
    ],
)
def test_rm_order_outside_zero_to_eta_exits_two(no_enumeration, argv, capsys):
    # RM(r, eta) needs 0 <= r <= eta: refused before any build
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("config error: ")


@pytest.mark.parametrize("phi", ["x,y", "1,,1", ""])
def test_malformed_phi_exits_two(tmp_path, phi, capsys):
    assert main(["build", "--q", "2", "--phi", phi, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: --phi expects comma-separated integers\n"


def test_empty_phi_in_a_config_file_exits_two(tmp_path, capsys):
    # an empty value is given, not absent: it must not run the default ring
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phi =\n")
    assert main(["verify", "--suite", "structure", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: --phi expects comma-separated integers\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "structure", "--q", "4", "--phi", "6,1"],
        ["report", "--local-only", "--q", "4", "--phi", "6,1"],
        ["verify", "--q", "2", "--phi", "9,1"],
    ],
)
def test_phi_coefficient_outside_the_field_exits_two(no_enumeration, argv, capsys):
    # refused as configuration, naming the coefficient, before any build
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("config error: phi coefficient %s is not in F_" % argv[-1].split(",")[0])


def test_report_local_only(capsys):
    assert main(["report", "--q", "8", "--local-only"]) == 0
    out = capsys.readouterr().out
    assert "rho0 = 19/128" in out
    assert "7/64" in out


def test_report_q2(capsys):
    assert main(["report", "--q", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 168 and rep["k"] == 46
    assert rep["darboux_pairing_identity"] == 46
    assert rep["floquet_max_check_weight"] == 2
    assert set(rep["logical_color_census"].values()) == {23}

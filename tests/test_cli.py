"""CLI harness: subcommands, exit codes, JSON round-trips, determinism."""

import json

import pytest

from affcluster import cli, seeds
from affcluster.cli import main
from affcluster.poly import NotPointed
from affcluster.seeds import initial_seed, mutate_seed_word, principal_extension
from affcluster.theta import ThetaEngine
from reference import g_vector_of
from test_affine import AFFINE_TYPES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mutate_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "mutate", "--matrix", "a1t22", "--word", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["matrix"]["rows"][0] == [0, -2]
    # feed the emitted matrix back in
    path = tmp_path / "m.json"
    path.write_text(json.dumps(blob["matrix"]))
    code, out2 = run(capsys, "mutate", "--matrix", str(path), "--word", "1", "--format", "json")
    assert code == 0
    assert json.loads(out2)["matrix"]["rows"][0] == [0, 2]


def test_mutate_involution_word(capsys):
    code, out = run(capsys, "mutate", "--matrix", "a2t", "--word", "1,2,2,1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["matrix"]["rows"]
    assert rows[:3] == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]


def test_gvec(capsys):
    code, out = run(capsys, "gvec", "--matrix", "a1t22", "--word", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["gvectors"] == [[-1, 2], [0, 1]]


def test_gvec_matches_pointed_forms_of_replayed_seeds(rng, tmp_path, capsys):
    # the integer G-matrix recursion against the g-vectors read off the
    # Laurent cluster variables of the seed the word reaches
    sources = list(cli.BUNDLED)
    for name, (b, _, _) in sorted(AFFINE_TYPES.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli.matrix_json(principal_extension(b))))
        sources.append(str(path))
    for source in sources:
        matrix = cli.load_matrix(source)
        for _ in range(10):
            word = [rng.randrange(matrix.n) for _ in range(rng.randint(0, 8))]
            seed = mutate_seed_word(initial_seed(matrix), word)
            want = [list(g_vector_of(seed, i).coords) for i in range(matrix.n)]
            argv = ("gvec", "--matrix", source, "--word", ",".join(str(k + 1) for k in word))
            code, out = run(capsys, *argv, "--format", "json")
            assert (code, json.loads(out)) == (0, {"gvectors": want})
            assert run(capsys, *argv) == (0, f"gvectors: {want}\n")


def test_gvec_runs_no_laurent_mutation(monkeypatch, capsys):
    def laurent(seed, k):
        raise AssertionError("gvec mutated a Laurent seed")

    monkeypatch.setattr(seeds, "mutate_seed", laurent)
    # 49 letters, then back: mutation is an involution, so G is the identity
    coxeter = ",".join(["1,2,3,4,5,6,7"] * 7)
    code, out = run(capsys, "gvec", "--matrix", "e6t", "--word", f"{coxeter},{coxeter[::-1]}")
    ident = [[int(i == j) for j in range(7)] for i in range(7)]
    assert (code, out) == (0, f"gvectors: {ident}\n")


def test_malformed_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "mutate", "--matrix", str(bad), "--word", "1")
    assert code == 2
    code, _ = run(capsys, "mutate", "--matrix", "nosuchfixture", "--word", "1")
    assert code == 2
    # a path that exists but holds no text: a directory, and bytes that no
    # JSON encoding reads as a matrix
    undecodable = tmp_path / "bom.json"
    undecodable.write_bytes(b"\xff\xfe")
    for path, reason in [(tmp_path, "cannot read"), (undecodable, "malformed matrix file")]:
        assert main(["report", "--matrix", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"configuration error: {reason}")


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"n": 0, "m": 0, "rows": []}', "need n >= 1"),
        ('{"n": 2, "m": 7, "rows": [[0,2],[-2,0],[1,0],[0,1]]}', '"m" is 7 but the file has 2'),
        # entries must be JSON integers, not truncated floats or bools
        ('{"n": 2, "m": 2, "rows": [[0, 2.9], [-2, 0], [1, 0], [0, true]]}', "2.9 is not an integer"),
        ('{"n": 2, "m": 2, "rows": [[0, 2], [-2, 0], [1, 0], [0, true]]}', "true is not an integer"),
        ('{"n": "2", "m": 2, "rows": [[0,2],[-2,0],[1,0],[0,1]]}', '"2" is not an integer'),
        ('{"n": 2, "m": 2.0, "rows": [[0,2],[-2,0],[1,0],[0,1]]}', "2.0 is not an integer"),
    ],
)
def test_inconsistent_matrix_file_exits_2(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["mutate", "--word", "1"], ["report"]):
        assert main([*argv, "--matrix", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: malformed matrix file: ")
        assert reason in err


def test_tube_info_has_no_height_bound():
    # tubes are always found among the roots below delta
    with pytest.raises(SystemExit) as exc:
        main(["tube-info", "--matrix", "a2t", "--height-bound", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "--matrix", "d4t", "--target", "delta", "--depth", "8"),
        ("verify", "--matrix", "a2t", "--depth", "8"),
    ],
)
def test_theta_and_verify_have_no_depth_flag(argv):
    # the g-vector search depth is the constant theta.SEARCH_DEPTH
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_verify_refuses_an_unknown_identity_before_any_engine(monkeypatch, capsys):
    def no_engine(self, b_rows):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(ThetaEngine, "__init__", no_engine)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--matrix", "e6t", "--identity", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_run_identity_refuses_an_unknown_identity():
    with pytest.raises(cli.ConfigError, match="unknown identity bogus"):
        cli.run_identity(ThetaEngine(cli.load_matrix("a2t").top()), "bogus", kmax=4)


def test_report_a1t_deterministic(capsys):
    code, out1 = run(capsys, "report", "--matrix", "a1t22", "--format", "json")
    assert code == 0
    blob = json.loads(out1)
    assert blob["delta"] == [1, 1]
    assert blob["tubes"] == []  # Simples empty in rank 2
    code, out2 = run(capsys, "report", "--matrix", "a1t22", "--format", "json")
    assert out1 == out2


def test_report_a2t_lists_tubes(capsys):
    code, out = run(capsys, "report", "--matrix", "a2t", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["tubes"]) == 1
    assert blob["tubes"][0]["size"] == 2
    assert blob["tubes"][0]["max_compatible_sets"] == 2


def test_verify_cheby(capsys):
    code, out = run(capsys, "verify", "--identity", "cheby", "--matrix", "a1t22")
    assert code == 0
    assert "cheby: ok" in out


def test_verify_imexch(capsys):
    code, out = run(capsys, "verify", "--identity", "imexch", "--matrix", "a2t")
    assert code == 0


def test_verify_prints_text_under_format_json(capsys):
    # verify takes --format, as every subcommand does, but prints its
    # "name: ok" lines either way; the benchmark's sweep passes --format json
    for fixture in ("a1t22", "a2t", "c2t"):
        argv = ("verify", "--matrix", fixture, "--kmax", "2")
        assert run(capsys, *argv, "--format", "json") == run(capsys, *argv, "--format", "text")


def test_verify_all_on_c2t(capsys):
    code, out = run(capsys, "verify", "--matrix", "c2t")
    assert code == 0
    assert "FAIL" not in out


def test_theta_subcommand(capsys):
    code, out = run(capsys, "theta", "--matrix", "a1t22", "--target", "delta", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["label"] == [-1, 1]
    assert len(blob["json"]["terms"]) == 3


def test_theta_target_spellings(capsys):
    for target, label in [
        ("delta", [-1, 1]),
        (" delta ", [-1, 1]),
        ("1*delta", [-1, 1]),
        ("2*delta", [-2, 2]),
        (" 2 * delta", [-2, 2]),
        ("2*  delta", [-2, 2]),
    ]:
        code, out = run(capsys, "theta", "--matrix", "a1t22", "--target", target, "--format", "json")
        assert code == 0 and json.loads(out)["label"] == label


def test_scatter2_and_theta2(tmp_path, capsys):
    dump = tmp_path / "walls.json"
    code, out = run(
        capsys, "scatter2", "--matrix", "a1t22", "--order", "4",
        "--dump", str(dump), "--format", "json",
    )
    assert code == 0
    walls = json.loads(dump.read_text())["walls"]
    assert any(w["normal"] == [1, 1] for w in walls)
    code, out = run(capsys, "theta2", "--matrix", "a1t22", "--lambda=-1,1", "--order", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["theta"].count("+") == 2


def test_scatter2_and_theta2_on_the_zero_matrix(tmp_path, capsys):
    # B = 0: no outgoing direction, the initial walls commute and the diagram
    # is its two lines at every order; theta2 bends once on each line
    path = tmp_path / "zero.json"
    path.write_text('{"n": 2, "m": 2, "rows": [[0, 0], [0, 0], [1, 0], [0, 1]]}')
    line = "{{'normal': [{}], 'direction': [{}], 'line': True, 'series': {{'vars': " \
        "['x1', 'x2', 'u1', 'u2'], 'terms': [{{'c': '1', 'e': [{}]}}, {{'c': '1', 'e': [0, 0, 0, 0]}}]}}}}"
    walls = f"[{line.format('1, 0', '0, 1', '0, 0, 1, 0')}, {line.format('0, 1', '1, 0', '0, 0, 0, 1')}]"
    for order in (0, 1, 2, 6):
        assert main(["scatter2", "--matrix", str(path), "--order", str(order)]) == 0
        assert capsys.readouterr() == (f"order: {order}\nwalls: {walls}\n", "")
    expected = {
        "1,0": ("[{'c': '1', 'e': [1, 0, 0, 0]}]", "x1"),
        "-1,1": ("[{'c': '1', 'e': [-1, 1, 1, 0]}, {'c': '1', 'e': [-1, 1, 0, 0]}]",
                 "x1^-1*x2*u1 + x1^-1*x2"),
        "-2,3": ("[{'c': '1', 'e': [-2, 3, 2, 0]}, {'c': '2', 'e': [-2, 3, 1, 0]}, "
                 "{'c': '1', 'e': [-2, 3, 0, 0]}]", "x1^-2*x2^3*u1^2 + 2*x1^-2*x2^3*u1 + x1^-2*x2^3"),
    }
    for lam, (terms, theta) in expected.items():
        assert main(["theta2", "--matrix", str(path), f"--lambda={lam}", "--order", "6"]) == 0
        assert capsys.readouterr() == (
            f"json: {{'vars': ['x1', 'x2', 'u1', 'u2'], 'terms': {terms}}}\n"
            f"lambda: [{lam.replace(',', ', ')}]\ntheta: {theta}\n",
            "",
        )


def test_scatter2_order_zero_keeps_initial_binomials(capsys):
    # at order 0 nothing is completed, and the initial walls print their
    # untruncated functions 1 + yhat1 and 1 + yhat2
    code, out = run(capsys, "scatter2", "--matrix", "a1t22", "--order", "0", "--format", "json")
    assert code == 0
    names = ["x1", "x2", "u1", "u2"]

    def series(*terms):
        return {"vars": names, "terms": [{"c": "1", "e": list(e)} for e in terms]}

    assert json.loads(out) == {
        "order": 0,
        "walls": [
            {"normal": [1, 0], "direction": [0, 1], "line": True,
             "series": series((0, 0, 0, 0), (0, -2, 1, 0))},
            {"normal": [0, 1], "direction": [1, 0], "line": True,
             "series": series((2, 0, 0, 1), (0, 0, 0, 0))},
        ],
    }


def test_expand_subcommand(capsys):
    code, out = run(capsys, "expand", "--matrix", "a3t", "--root", "1,1,2,1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["m_delta"] == 1
    assert blob["arcs"] == [{"tube": 0, "start": 0, "length": 1, "mult": 1}]


def test_gca_graph_and_verify(tmp_path, capsys):
    out_path = tmp_path / "graph.json"
    code, out = run(
        capsys, "gca-graph", "--matrix", "a3t", "--tube", "0",
        "--json", str(out_path), "--format", "json",
    )
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["vertices"] == 6
    code, out = run(capsys, "gca-verify", "--matrix", "a2t", "--format", "json")
    assert code == 0


def test_tube_info(capsys):
    code, out = run(capsys, "tube-info", "--matrix", "a4t", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["tubes"][0]["size"] == 4
    assert len(blob["tubes"][0]["arcs"]) == 12


def test_non_affine_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "not_affine.json"
    for b, message in [
        ([[0, 1], [-1, 0]], "Cartan determinant is nonzero"),
        # Kronecker + A1
        ([[0, 0, 2], [0, 0, 0], [-2, 0, 0]], "kernel vector is not strictly positive"),
        # Kronecker + Kronecker
        ([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]], "Cartan corank is not 1"),
        # connected, with a kernel vector of mixed sign
        ([[0, 0, 0, 3], [0, 0, 3, 0], [0, -2, 0, 1], [-2, 0, -1, 0]], "kernel vector is not strictly positive"),
    ]:
        path.write_text(json.dumps(cli.matrix_json(principal_extension(b))))
        assert main(["report", "--matrix", str(path)]) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("gvec", "--matrix", "a2t", "--word", "5"),
        ("theta", "--matrix", "a3t", "--target", "1,2"),
        ("theta2", "--matrix", "a1t22", "--lambda", "1"),
        ("gca-graph", "--matrix", "a3t", "--tube", "-1"),
        ("theta", "--matrix", "a3t", "--target", "x*delta"),
        ("verify", "--matrix", "a2t", "--kmax", "1"),
        ("verify", "--matrix", "a2t", "--kmax", "0"),
        ("verify", "--matrix", "a2t", "--kmax", "-3"),
        ("scatter2", "--matrix", "a1t22", "--order", "-1"),
        ("theta2", "--matrix", "a1t22", "--lambda", "1,1", "--order", "-1"),
        ("gvec", "--matrix", "a2t", "--word", "0"),
        ("scatter2", "--matrix", "a2t", "--order", "2"),
        ("scatter2", "--matrix", "a1t22", "--order", "2", "--dump", "/nonexistent/x.json"),
        ("gca-graph", "--matrix", "a3t", "--json", "/nonexistent/x.json"),
        # every integer is ASCII digits with an optional '-': no '_', no
        # non-ASCII digit, no empty token
        ("expand", "--matrix", "a2t", "--root", "\u0661,1,1"),
        ("gvec", "--matrix", "a2t", "--word", "1,,2"),
        ("gvec", "--matrix", "a2t", "--word", "0_1"),
        ("scatter2", "--matrix", "a1t22", "--order", "1_2"),
        ("verify", "--matrix", "a2t", "--identity", "cheby", "--kmax", "0_2"),
        ("gca-graph", "--matrix", "a3t", "--tube", "0_0"),
        # a target on the imaginary ray is exactly delta or k*delta
        ("theta", "--matrix", "a3t", "--target", "*delta"),
        ("theta", "--matrix", "a3t", "--target", "2**delta"),
        ("theta", "--matrix", "a3t", "--target", "2delta"),
        ("theta", "--matrix", "a3t", "--target", "2 delta"),
    ],
)
def test_malformed_word_vector_or_index_exits_2(capsys, argv):
    assert main(list(argv)) == 2
    assert "configuration error" in capsys.readouterr().err


def test_gvec_without_principal_coefficients_exits_2(tmp_path, capsys):
    path = tmp_path / "coefficient_free.json"
    path.write_text('{"n": 2, "m": 0, "rows": [[0,2],[-2,0]]}')
    code, _ = run(capsys, "gvec", "--matrix", str(path), "--word", "1")
    assert code == 2


def test_engine_bug_is_not_a_configuration_error(monkeypatch):
    def broken(args):
        raise NotPointed("engine bug")

    monkeypatch.setattr(cli, "cmd_report", broken)
    with pytest.raises(NotPointed):
        main(["report", "--matrix", "a2t"])


def test_expand_outside_wall_exits_2(capsys):
    code, _ = run(capsys, "expand", "--matrix", "a3t", "--root", "1,0,0,0")
    assert code == 2


def test_verify_kmax_option(capsys):
    code, out = run(capsys, "verify", "--identity", "cheby", "--matrix", "a2t", "--kmax", "2")
    assert code == 0 and "cheby: ok" in out

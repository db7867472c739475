"""Command-line behavior: formats, exit codes, determinism."""

import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from griesmer.bounds import bound_report
from griesmer.cli import main
from griesmer.search import SearchOutcome


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_json_exact_bytes(capsys):
    code, out, err = _run(capsys, ["bound", "--q", "2", "--k", "3", "--d", "5", "--format", "json"])
    assert code == 0
    assert out == '{"q":2,"k":3,"d":5,"griesmer":10,"singleton":7,"terms":[5,3,2]}\n'
    assert err == ""


def test_bound_text(capsys):
    code, out, _ = _run(capsys, ["bound", "--q", "2", "--k", "3", "--d", "5"])
    assert code == 0
    assert out == "q=2 k=3 d=5\ngriesmer = 10\nsingleton = 7\nterms = 5 3 2\n"


def test_bound_json_roundtrip(capsys):
    _, out, _ = _run(capsys, ["bound", "--q", "3", "--k", "4", "--d", "7", "--format", "json"])
    assert json.loads(out) == bound_report(3, 4, 7).to_dict()


def test_table_csv(capsys):
    code, out, _ = _run(capsys, ["table", "--q", "2", "--kmax", "1", "--dmax", "2", "--format", "csv"])
    assert code == 0
    assert out == "q,k,d,griesmer,singleton\n2,1,1,1,1\n2,1,2,2,2\n"


def test_table_text_and_json(capsys):
    code, out, _ = _run(capsys, ["table", "--q", "2", "--kmax", "2", "--dmax", "2"])
    assert code == 0
    assert out.splitlines()[0].split() == ["q", "k", "d", "griesmer", "singleton"]
    code, out, _ = _run(capsys, ["table", "--q", "2", "--kmax", "2", "--dmax", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0] == bound_report(2, 1, 1).to_dict()


def test_search_tail_infeasible(tmp_path, capsys):
    ws = tmp_path / "ws.txt"
    ws.write_text("# three prefixes\n2 2\n00\n01\n10\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        ["search-tail", "--d", "3", "--tail-len", "2", "--prefixes", str(ws), "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["exhausted"] is True
    assert "witness" not in payload


def test_search_tail_feasible_text(tmp_path, capsys):
    ws = tmp_path / "ws.txt"
    ws.write_text("2 2\n00\n01\n10\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        ["search-tail", "--d", "3", "--tail-len", "3", "--prefixes", str(ws)],
    )
    assert code == 0
    assert "feasible = true" in out
    assert "witness:" in out
    assert "  01110" in out


def test_search_tail_byte_order_mark(tmp_path, capsys):
    argv = ["search-tail", "--d", "3", "--tail-len", "3", "--format", "json", "--prefixes"]
    plain = tmp_path / "plain.txt"
    plain.write_text("2 2\n00\n01\n10\n", encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    result = _run(capsys, [*argv, str(marked)])
    assert result == _run(capsys, [*argv, str(plain)])
    assert result[0] == 0 and '"feasible":true' in result[1]


def test_search_tail_rejects_q(tmp_path, capsys):
    # the witness file's header gives q; the option that repeated it is gone
    ws = tmp_path / "ws.txt"
    ws.write_text("2 2\n00\n01\n", encoding="utf-8")
    code, out, err = _run(
        capsys,
        ["search-tail", "--q", "2", "--d", "2", "--tail-len", "1", "--prefixes", str(ws)],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1


def test_search_tail_header_k_mismatch(tmp_path, capsys):
    ws = tmp_path / "ws.txt"
    ws.write_text("2 3\n00\n01\n", encoding="utf-8")
    code, out, err = _run(capsys, ["search-tail", "--d", "2", "--tail-len", "1", "--prefixes", str(ws)])
    assert code == 1
    assert out == ""
    assert err == "error: the first content line gives k=3, but the prefixes have length 2\n"


def test_search_tail_header_not_ascii_decimal(tmp_path, capsys):
    ws = tmp_path / "ws.txt"
    ws.write_text("+2 +1\n0\n1\n", encoding="utf-8")
    code, out, err = _run(capsys, ["search-tail", "--d", "2", "--tail-len", "1", "--prefixes", str(ws)])
    assert code == 1
    assert out == ""
    assert err == "error: first content line must be 'q k', got '+2 +1'\n"


def test_search_tail_missing_file(capsys):
    code, _, err = _run(
        capsys,
        ["search-tail", "--d", "2", "--tail-len", "1", "--prefixes", "/nonexistent/ws.txt"],
    )
    assert code == 1
    assert err.startswith("error:")


def test_search_full_json(capsys):
    code, out, _ = _run(
        capsys, ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert len(payload["witness"]) == 4


def test_search_full_node_limited_exit_2(capsys):
    code, out, _ = _run(
        capsys,
        ["search-full", "--q", "2", "--n", "18", "--k", "4", "--d", "9", "--node-limit", "50", "--format", "json"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["exhausted"] is False
    assert payload["nodes_explored"] == 50


def test_search_full_guard_violation(capsys):
    # the second input's q**k has over 4,300 digits, too many to print as an int
    for n, k in ((14, 13), (15000, 14300)):
        code, _, err = _run(capsys, ["search-full", "--q", "2", "--n", str(n), "--k", str(k), "--d", "2"])
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1  # single-line diagnostic
        assert "exhaustive-prefix guard 4096" in err and len(err) < 200


def _run_capped(cli_env, argv, megabytes=512):
    # the child gets 512 MB of address space (or megabytes) and 60 s, so a
    # missing guard fails here with a MemoryError or a timeout instead of
    # filling the machine
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    return subprocess.run(
        [sys.executable, "-m", "griesmer.cli", *argv],
        capture_output=True,
        text=True,
        env=cli_env,
        timeout=60,
        preexec_fn=cap_memory,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--q", "2", "--k", str(10**12), "--d", "3"],
        ["table", "--q", "2", "--kmax", str(10**6), "--dmax", str(10**6), "--format", "json"],
        # without the guard these would build prefixes for hours
        ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "5", "--k", str(10**8)],
        ["verify-all", "--kmax", str(10**8), "--format", "json"],
        # 3 * (10**7 - 2) tail symbols: the DFS's work per cell grows with m,
        # so this would run for hours
        ["search-full", "--q", "2", "--n", str(10**7), "--k", "2", "--d", "3"],
    ],
)
def test_bound_guard_violation(cli_env, argv):
    # a report lists its k terms, a case its prefixes' symbols and a search
    # its tail symbols, so these must fail on the guard before building any
    proc = _run_capped(cli_env, argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "over the guard 1000000" in proc.stderr and len(proc.stderr) < 200


def test_search_full_prefix_guard_builds_no_power(cli_env):
    # q**k here would have about 3 * 10**11 digits; the guard must not build it
    argv = ["search-full", "--q", "2", "--n", str(10**12 + 1), "--k", str(10**12), "--d", "2"]
    proc = _run_capped(cli_env, argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "exhaustive-prefix guard 4096" in proc.stderr and len(proc.stderr) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "q_ge_d", "--q", str(10**9), "--d", "3", "--k", "5"],
        ["verify", "--theorem", "d12", "--q", str(10**8), "--d", "2", "--k", "40"],
    ],
)
def test_verify_large_alphabet(cli_env, argv):
    # one-hot prefixes as wide as q would take gigabytes here
    proc = _run_capped(cli_env, [*argv, "--format", "json"], megabytes=256)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["confirmed"] is True


@pytest.mark.parametrize("q", [10**6, 10**9])
def test_search_tail_large_alphabet(cli_env, tmp_path, q):
    # two prefixes over q >= 2 symbols: no search runs, and each word gets
    # its own symbol in every tail column
    path = tmp_path / "pair.txt"
    path.write_text(f"{q} 1\n0\n1\n", encoding="utf-8")
    argv = ["search-tail", "--d", "2", "--tail-len", "10", "--prefixes", str(path)]
    proc = _run_capped(cli_env, [*argv, "--format", "json"], megabytes=256)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "feasible": True,
        "exhausted": True,
        "nodes_explored": 0,
        "witness": [" ".join("0" * 11), " ".join("1" * 11)],
    }


def test_search_tail_prefix_guard(cli_env, tmp_path):
    # the pre-check's pair table grows as the square of the prefixes; 4,096
    # take most of a minute, so 60,000 would take hours
    path = tmp_path / "wide.txt"
    path.write_text("2 16\n" + "".join(f"{x:016b}\n" for x in range(60_000)), encoding="utf-8")
    argv = ["search-tail", "--d", "3", "--tail-len", "10", "--prefixes", str(path)]
    proc = _run_capped(cli_env, argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "60000 prefixes, over the guard 4096" in proc.stderr and len(proc.stderr) < 200


def test_search_tail_one_prefix_guard(cli_env, tmp_path):
    # one prefix leaves the DFS nothing to place, but the witness still
    # holds the zero word's tail: 10**8 symbols of it would not fit
    path = tmp_path / "one.txt"
    path.write_text("2 2\n00\n", encoding="utf-8")
    argv = ["search-tail", "--d", "1", "--tail-len", str(10**8), "--prefixes", str(path)]
    proc = _run_capped(cli_env, [*argv, "--format", "json"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "over the guard 1000000" in proc.stderr and len(proc.stderr) < 200


def test_search_full_long_tail_memory(cli_env):
    # 95,994 DFS cells: a cell whose state does not move shares its
    # predecessor's tuple and no table of masks is kept per column, so this
    # fits in 192 MB; one 64,000-bit integer kept per cell needs about 800 MB
    argv = ["search-full", "--q", "2", "--n", "32000", "--k", "2", "--d", "3", "--format", "json"]
    proc = _run_capped(cli_env, argv, megabytes=192)
    assert proc.returncode == 0, proc.stderr
    assert '"feasible":true' in proc.stdout


def test_verify_confirmed(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "6", "--k", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["confirmed"] is True
    assert payload["id"] == "d56_k3"
    assert payload["griesmer"] == 11
    assert payload["critical_n"] == 10


def test_verify_text_table(capsys):
    code, out, _ = _run(capsys, ["verify", "--theorem", "d34", "--q", "3", "--d", "4", "--k", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["id", "q", "k", "d", "griesmer", "critical_n", "confirmed", "nodes"]
    assert lines[1].split()[0] == "d34"
    assert "true" in lines[1]


def test_verify_node_limit_cannot_cut_a_precheck_refutation_short(capsys):
    # the pre-check refutes this case before the DFS, so the limit is never reached
    code, out, _ = _run(
        capsys,
        ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "5", "--k", "3", "--node-limit", "10",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["confirmed"] is True
    assert payload["nodes_explored"] == 0


def test_verify_exit_2_when_a_search_is_cut_short(monkeypatch, capsys):
    # every catalogue case is refuted with 0 nodes, so no node
    # limit binds there; a search that stops unexhausted stands in for one
    monkeypatch.setattr("griesmer.theorems.tail_search", lambda *args: SearchOutcome(None, 7, False))
    argv = ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "5", "--k", "3", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 2 and '"confirmed":false,"nodes_explored":7' in out
    assert _run(capsys, ["verify-all", "--kmax", "2"])[0] == 2


def test_verify_inadmissible_exit_1(capsys):
    code, _, err = _run(capsys, ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "4", "--k", "3"])
    assert code == 1
    assert err.startswith("error:")


def test_verify_all_json(capsys):
    code, out, _ = _run(capsys, ["verify-all", "--kmax", "2", "--format", "json"])
    assert code == 0
    verdicts = json.loads(out)
    assert isinstance(verdicts, list)
    assert all(v["confirmed"] for v in verdicts)
    assert {v["id"] for v in verdicts} == {"q_ge_d", "d12", "d34", "d56_k2"}


@pytest.mark.parametrize(
    "kmax, fmt, name",
    [("12", "json", "verify_all_kmax12.json"), ("13", "text", "verify_all_kmax13.txt")],
    ids=["kmax12-json", "kmax13-text"],
)
def test_verify_all_output_is_pinned(capsys, kmax, fmt, name):
    # every id, value and row, in order; rewrite a file only for an
    # intended change to the catalogue.  At kmax 13 the d12 cap of
    # k <= 12 at q = 2 binds, and the text table is pinned too
    code, out, err = _run(capsys, ["verify-all", "--kmax", kmax, "--format", fmt])
    assert code == 0 and err == ""
    assert out == (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")


def test_verify_all_text_has_one_row_per_verdict(capsys):
    code, out, _ = _run(capsys, ["verify-all", "--kmax", "2"])
    assert code == 0
    _, json_out, _ = _run(capsys, ["verify-all", "--kmax", "2", "--format", "json"])
    assert len(out.splitlines()) == 1 + len(json.loads(json_out))


def test_usage_errors(capsys):
    for argv in (
        [],
        ["bogus"],
        ["bound", "--q", "2", "--k", "3"],
        ["bound", "--q", "2", "--k", "3", "--d", "x"],
        ["bound", "--q", "2", "--k", "3", "--d", "5", "--format", "xml"],
        ["bound", "--q", "2", "--k", "3", "--d", "5", "--unknown"],
        ["table", "--q", "2", "--kmax", "1", "--dmax", "1", "--format", "csvv"],
        ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3", "--format", "csv"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:")


def test_validation_errors_exit_1(capsys):
    code, _, err = _run(capsys, ["bound", "--q", "1", "--k", "3", "--d", "5"])
    assert code == 1 and err.startswith("error:")
    code, _, err = _run(capsys, ["verify-all", "--kmax", "1"])
    assert code == 1 and err.startswith("error:")
    code, _, err = _run(
        capsys, ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3", "--node-limit", "0"]
    )
    assert code == 1 and err.startswith("error:")
    code, _, err = _run(capsys, ["verify-all", "--kmax", "2", "--nondeterministic"])
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    # the DFS always applies its symmetry reductions; the switch is gone
    code, _, err = _run(capsys, ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3", "--no-symmetry"])
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1


_VALID_ARGV = {
    "--q": ["bound", "--q", "2", "--k", "3", "--d", "5"],
    "--k": ["bound", "--q", "2", "--k", "3", "--d", "5"],
    "--d": ["bound", "--q", "2", "--k", "3", "--d", "5"],
    "--kmax": ["table", "--q", "2", "--kmax", "2", "--dmax", "2"],
    "--dmax": ["table", "--q", "2", "--kmax", "2", "--dmax", "2"],
    "--n": ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3"],
    "--tail-len": ["search-tail", "--d", "3", "--tail-len", "1", "--prefixes", "ws.txt"],
    "--node-limit": ["search-full", "--q", "2", "--n", "5", "--k", "2", "--d", "3", "--node-limit", "9"],
}


@pytest.mark.parametrize("option", list(_VALID_ARGV))
def test_integer_options_read_ascii_decimals_only(capsys, option):
    # int() reads each of these too; an integer option is a plain run of the digits 0 to 9
    argv = _VALID_ARGV[option]
    at = argv.index(option) + 1
    for bad in ("1_0", "\u0662", "+3", "-3", " 3", "0x3", "3.0", ""):
        code, out, err = _run(capsys, argv[:at] + [bad] + argv[at + 1 :])
        assert code == 1 and out == "", (option, bad)
        assert err == f"error: argument {option}: not a decimal integer: {bad!r}\n"


def test_deterministic_output_is_byte_identical(capsys):
    argv = ["verify", "--theorem", "d56_k3", "--q", "2", "--d", "5", "--k", "3", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_console_entry_point(cli_env):
    proc = subprocess.run(
        [sys.executable, "-m", "griesmer.cli", "bound", "--q", "2", "--k", "3", "--d", "5", "--format", "json"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"q":2,"k":3,"d":5,"griesmer":10,"singleton":7,"terms":[5,3,2]}\n'


def test_cli_import_loads_no_slow_stdlib_modules(cli_env):
    # each CLI call pays its imports again; dataclasses alone pulls in
    # inspect, ast, dis and tokenize.  -S skips site, whose .pth files may
    # import any of these before the package does
    script = (
        "import sys; before = set(sys.modules); import griesmer.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=cli_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "griesmer.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib"}

import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from treeburn import admissible as adm, burning, cli
from treeburn.cli import run
from treeburn.topology import LengthAssignment, expand, make_chain_topology

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parent.parent


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_burn_number_path(capsys):
    code, out = capture(capsys, ["burn", "number", "path:9"])
    assert code == 0
    assert out.startswith("b=3 sources=")


def test_burn_number_spider_shorthand(capsys):
    code, out = capture(capsys, ["burn", "number", "spider:8,9,11"])
    assert code == 0
    assert out.startswith("b=5")


def test_burn_number_large_spider(capsys):
    # the scan starts at b, and the witness and its check stay within the
    # sources' neighbourhoods
    start = time.perf_counter()
    code, out = capture(capsys, ["burn", "number", "spider:10000,10000,10000"])
    assert code == 0
    assert out.startswith("b=173 sources=")
    assert time.perf_counter() - start < 5.0


def test_burn_check(capsys):
    code, out = capture(capsys, ["burn", "check", "path:9", "--seq", "6,2,0"])
    assert code == 0
    assert "valid=true" in out


def test_burn_burnable_witness_format(capsys):
    code, out = capture(capsys, ["burn", "burnable", "path:9", "-m", "3"])
    assert code == 0
    assert out.startswith("burn m=3 sources=")


def test_burn_burnable_tsv(capsys):
    code, out = capture(
        capsys, ["--format", "tsv", "burn", "burnable", "path:9", "-m", "3"]
    )
    assert code == 0
    assert out == "burn\tm=3\tsources=2,6,8\n"


def test_burn_burnable_failure_exit(capsys):
    code, out = capture(capsys, ["burn", "burnable", "path:9", "-m", "2"])
    assert code == 1
    assert "burnable=false" in out


def test_burn_burnable_matches_golden(tmp_path, monkeypatch, capsys):
    # a yes prints burning_number's witness, a no prints m back; the chain
    # tree is the order-39 chain(3,3,3,3) tree of length vector
    # (4,5,6,7,4,5,3,2,2), read from an edge file
    chain, _ = make_chain_topology(3, 3, 3, 3)
    v = (4, 5, 6, 7, 4, 5, 3, 2, 2)
    lengths = LengthAssignment(
        dict(zip(chain.arms(), v[:6])), dict(zip(chain.internal_edges(), v[6:]))
    )
    tree = expand(chain, lengths)
    (tmp_path / "chain.txt").write_text("".join(f"edge {a} {b}\n" for a, b in tree.edges))
    monkeypatch.chdir(tmp_path)
    cases = (GOLDEN / "burn_burnable.txt").read_text().split("$ treeburn ")[1:]
    assert len(cases) == 9
    for case in cases:
        argv, rest = case.split("\n", 1)
        out, code = rest.rsplit("exit ", 1)
        assert capture(capsys, shlex.split(argv)) == (int(code), out), argv


HUGE_M = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from treeburn.burning import is_m_burnable
from treeburn.cli import run
from treeburn.tree import Tree, make_path, make_spider
if sys.argv[1:]:
    sys.exit(run(sys.argv[1:]))
trees = [make_path(9), make_spider([2, 3, 4]), Tree([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])]
print([is_m_burnable(t, 10**9) for t in trees])
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 0, "[True, True, True]\n", ""),
        (
            ["burn", "maximal", "path:9", "-m", "1000000000"],
            1,
            "",
            "error: tree has burning number 3, not 1000000000\n",
        ),
        (
            ["forest", "burnable", "--paths", "5,3", "-m", "1000000000"],
            0,
            "burnable=true m=1000000000\n",
            "",
        ),
        (["burn", "burnable", "path:9", "-m", "1000000000"], 0, "burn m=3 sources=2,6,8\n", ""),
    ],
    ids=["is_m_burnable", "burn-maximal", "forest-burnable", "burn-burnable"],
)
def test_huge_m_is_capped_at_the_order(argv, code, out, err):
    # every tree of order n is n-burnable and every forest of N vertices is
    # N-burnable, so no radii list longer than that is built; the run is
    # limited to 1 GiB of address space, far below a list of 10**9 radii
    proc = run_in_one_gib(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def run_in_one_gib(argv):
    """`HUGE_M` in a fresh interpreter limited to 1 GiB of address space."""
    return subprocess.run(
        [sys.executable, "-c", HUGE_M] + argv,
        capture_output=True,
        text=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )


def test_adm_order_at_huge_m_is_closed_form():
    # the Stage-2 total is (m - L)^2 plus the empty blocks' segments, so no
    # list of m rounds is built
    proc = run_in_one_gib(["adm", "order", "chain3333", "--seq", "A_B,C_D", "-m", "1000000000"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "order=1000000003999999992\n", "")


def test_ext_search_at_huge_m_builds_no_tree():
    # the winner's order is the search's, so the tree of order about 10**10
    # that it induces is never built
    proc = run_in_one_gib(["ext", "search", "chain3333", "-m", "100000"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "order=10000399993 seq=B_AC,D\n", "")


def readme_induce_cap():
    """The `adm induce` cap as the README's CLI section states it."""
    text = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    found = re.search(r"more than 10([⁰¹²³⁴⁵⁶⁷⁸⁹]+) vertices \(`cli\.MAX_INDUCED_ORDER`", text)
    return 10 ** int(found.group(1).translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))


def test_adm_induce_refuses_a_huge_tree():
    # the tree of order 10000399992 would print one edge a line; its order
    # is read off the closed form and refused before any path is laid out
    assert readme_induce_cap() == cli.MAX_INDUCED_ORDER
    start = time.monotonic()
    proc = run_in_one_gib(["adm", "induce", "chain3333", "--seq", "A_B,C_D", "-m", "100000"])
    assert time.monotonic() - start < 30
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: induced tree has 10000399992 vertices, more than the "
        f"{cli.MAX_INDUCED_ORDER} adm induce prints\n"
    )


def test_adm_induce_cap_is_inclusive(monkeypatch, capsys):
    argv = ["adm", "induce", "chain3333", "--seq", "A_B,C_D", "-m", "6"]
    monkeypatch.setattr(cli, "MAX_INDUCED_ORDER", 52)
    code, out = capture(capsys, argv)
    assert code == 0 and out.startswith("order=52\n")
    monkeypatch.setattr(cli, "MAX_INDUCED_ORDER", 51)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: induced tree has 52 vertices, more than the 51")


def test_python_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "treeburn.cli", "burn", "number", "path:9"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "b=3 sources=2,6,8\n", "")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["burn", "number", "spider:1000000000,1,1"],
            "tree has 1000000003 vertices, more than the 1000000 a spider: spec builds",
        ),
        (
            ["spider", "balanced", "-n", "3", "-m", "1000000000"],
            "extremal spider has 1000000000999999999 vertices, more than the "
            "1000000 spider balanced builds",
        ),
        (
            ["ext", "search", "chain3333", "-m", "100000", "--verify"],
            "extremal tree has 10000399993 vertices, more than the "
            "1000000 ext search --verify builds",
        ),
    ],
    ids=["huge-tree", "huge-answer", "huge-winner"],
)
def test_huge_input_is_refused_before_it_is_built(argv, err):
    # a tree of 10**9 vertices, or an answer of 10**9 sources, would not fit
    # in 1 GiB: its order is read off the input and refused with exit 1 and
    # one error line, no traceback; the winner of `ext search` has its order
    # from the memoised search, which builds nothing
    assert readme_induce_cap() == cli.MAX_INDUCED_ORDER == 10**6
    start = time.monotonic()
    proc = run_in_one_gib(argv)
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {err}\n" and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, order, command",
    [
        (["burn", "number", "path:52"], 52, "a path: spec builds"),
        (["burn", "burnable", "spider:20,20,11", "-m", "9"], 52, "a spider: spec builds"),
        (["spider", "balanced", "-n", "3", "-m", "6"], 41, "spider balanced builds"),
        (["spider", "witness", "-n", "3", "-m", "5"], 29, "spider witness builds"),
        (["ext", "search", "chain3333", "-m", "6", "--verify"], 53, "ext search --verify builds"),
    ],
    ids=["path", "spider", "balanced", "witness", "ext-search-verify"],
)
def test_tree_order_cap_is_inclusive(monkeypatch, capsys, argv, order, command):
    monkeypatch.setattr(cli, "MAX_INDUCED_ORDER", order)
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_INDUCED_ORDER", order - 1)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f" has {order} vertices, more than the {order - 1} {command}\n"
    )


def test_spider_witness_names_its_range_before_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_INDUCED_ORDER", 1)
    assert run(["spider", "witness", "-n", "3", "-m", "6"]) == 1
    assert capsys.readouterr().err == "error: min diameter formula needs 3 <= m <= 2n - 1\n"


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def huge(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_burn_number", huge)
    assert run(["burn", "number", "path:9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: the input is too large for this command\n"


def test_recursion_error_is_one_error_line(monkeypatch, capsys):
    def deep(_args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_burn_number", deep)
    assert run(["burn", "number", "path:9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: recursion too deep: the input is too large for this command\n"


def test_burn_maximal(capsys):
    code, out = capture(capsys, ["burn", "maximal", "path:9", "-m", "3"])
    assert code == 0
    assert "maximal=true" in out


def test_forest_commands(capsys):
    code, out = capture(
        capsys, ["forest", "burnable", "--paths", "paths:5,3,1", "-m", "3"]
    )
    assert code == 0
    assert "burnable=true" in out
    code, out = capture(capsys, ["forest", "ln", "-n", "2", "--m-range", "2..3"])
    assert code == 0
    assert "m=2" in out and "m=3" in out


def test_forest_burnable_deep_search(capsys):
    # a thousand radii placed one after another, each a level of the search
    for paths, answer, exit_code in (
        ("1000000", "true", 0),
        ("400000,400000", "true", 0),
        ("500000,500001", "false", 1),
    ):
        code, out = capture(capsys, ["forest", "burnable", "--paths", paths, "-m", "1000"])
        assert out == f"burnable={answer} m=1000\n"
        assert code == exit_code


def test_forest_burnable_rejects_an_empty_forest(capsys):
    for paths in (",", "paths:", ""):
        assert run(["forest", "burnable", "--paths", paths, "-m", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a path forest needs at least one path\n"



@pytest.mark.parametrize("m", [0, -5])
def test_forest_burnable_refuses_m_below_one(capsys, m):
    assert run(["forest", "burnable", "--paths", "3,3", "-m", str(m)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m must be positive\n"

def test_forest_ln_empty_range_is_domain_error(capsys):
    for spec in ("5..2", "3..2"):
        assert run(["forest", "ln", "-n", "2", "--m-range", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: empty m-range")


@pytest.mark.parametrize("spec, m", [("-3..-1", -3), ("0..2", 0), ("-1..1", -1)])
def test_forest_ln_refuses_m_below_one(capsys, spec, m):
    assert run(["forest", "ln", "-n", "2", f"--m-range={spec}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: m must be positive, got {m}\n"


def test_adm_order_example(capsys):
    code, out = capture(
        capsys, ["adm", "order", "chain3333", "--seq", "A_B,C_D", "-m", "6"]
    )
    assert code == 0
    assert out.strip() == "order=52"


def test_adm_validate_and_canon(capsys):
    code, out = capture(capsys, ["adm", "validate", "chain3333", "--seq", "B_AC,D"])
    assert code == 0 and out.strip() == "valid"
    code, out = capture(capsys, ["adm", "canon", "chain3333", "--seq", "A_BC,~,~,D"])
    assert code == 0
    assert "form=A_BCD" in out


@pytest.mark.parametrize("action", ["sig", "canon"])
@pytest.mark.parametrize(
    "seq, error",
    [
        ("A_B,C", "error: not a partition: [3] unassigned"),
        ("A_BD", "error: block 1 not connected; not a partition: [2] unassigned"),
    ],
)
def test_adm_sig_and_canon_reject_invalid_sequence(capsys, action, seq, error):
    # the validation inside signature / canonicalize reports the sequence
    assert run(["adm", action, "chain3333", "--seq", seq]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error + "\n"


@pytest.mark.parametrize("action", ["order", "induce"])
def test_adm_order_and_induce_reject_invalid_sequence(capsys, action):
    # one validation, inside induced_order / induced_plan
    assert run(["adm", action, "chain3333", "--seq", "A_BD", "-m", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: block 1 not connected; not a partition: [2] unassigned\n"
    )
    # without -m, that is reported before the sequence is validated
    assert run(["adm", action, "chain3333", "--seq", "A_BD"]) == 1
    assert capsys.readouterr().err == f"error: adm {action} requires -m\n"


@pytest.mark.parametrize("action", ["validate", "sig", "canon", "order", "induce"])
def test_adm_block_file_with_unknown_vertex_is_reported(tmp_path, capsys, action):
    # vertex 99 is not in the topology at all, not only not a branch vertex
    f = tmp_path / "seq.txt"
    f.write_text("block 1 root 99 members 99\n")
    assert run(["adm", action, "chain3333", "--seq", str(f), "-m", "6"]) == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert any(
        l.startswith(("invalid:", "error:")) and "vertex 99 " in l for l in lines
    ), lines


@pytest.mark.parametrize(
    "argv",
    [["ext", "search", "TOPO", "-m", "4"], ["adm", "canon", "TOPO", "--seq", "SEQ"]],
    ids=["ext-search", "adm-canon"],
)
def test_unlabelled_branch_vertex_is_an_error_when_printing(tmp_path, capsys, argv):
    topo = tmp_path / "topo.txt"
    topo.write_text("edge 0 1\nedge 0 2\nedge 0 3\nedge 1 4\nedge 1 5\n")
    blocks = tmp_path / "seq.txt"
    blocks.write_text("block 1 root 0 members 0,1\n")
    argv = [{"TOPO": str(topo), "SEQ": str(blocks)}.get(a, a) for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no label for branch vertices [0, 1]\n"


def test_adm_induce_outputs_tree(capsys):
    code, out = capture(
        capsys, ["adm", "induce", "star3", "--seq", "H", "-m", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order=19"
    assert lines[1].startswith("burn m=4 sources=")
    assert sum(1 for l in lines if l.startswith("edge ")) == 18
    # the edge lines, in order, as recorded when plans still held edge lists
    assert out == (GOLDEN / "adm_induce_star3.txt").read_text()
    code, out = capture(
        capsys, ["adm", "induce", "chain3333", "--seq", "B_AC,D", "-m", "6"]
    )
    assert code == 0
    assert out == (GOLDEN / "adm_induce_chain3333.txt").read_text()


def test_ext_search(capsys):
    code, out = capture(capsys, ["ext", "search", "chain3333", "-m", "6"])
    assert code == 0
    assert "order=53" in out and "seq=B_AC,D" in out


def test_ext_search_verify(capsys):
    code, out = capture(capsys, ["ext", "search", "chain3333", "-m", "6", "--verify"])
    assert code == 0
    assert out.strip().endswith("b=6 maximal=true")


def test_ext_search_above_branch_cap_is_domain_error(tmp_path, capsys):
    from treeburn.admissible import MAX_BRANCH_VERTICES

    k = MAX_BRANCH_VERTICES + 1
    edges = [(i - 1, i) for i in range(1, k)]  # branch skeleton: a path
    edges += [(0, k), (0, k + 1), (k - 1, k + 2), (k - 1, k + 3)]
    edges += [(i, k + 3 + i) for i in range(1, k - 1)]
    f = tmp_path / "topo.txt"
    f.write_text("".join(f"edge {u} {v}\n" for u, v in edges))
    start = time.perf_counter()
    code = run(["ext", "search", str(f), "-m", str(k + 1)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"limited to {MAX_BRANCH_VERTICES} branch vertices" in capsys.readouterr().err


def test_bare_block_line_is_malformed(tmp_path, capsys):
    f = tmp_path / "seq.txt"
    f.write_text("block\n")
    assert run(["adm", "sig", "chain3333", "--seq", str(f)]) == 1
    assert "error: malformed line" in capsys.readouterr().err


def test_repeated_or_out_of_range_block_is_an_error(tmp_path, capsys):
    f = tmp_path / "seq.txt"
    for text, named in (
        ("block 1 root 0 members 0,1,2,3\nblock 1 root 3 members 0,1,2,3\n", "block 1 given twice"),
        ("block 1 root 0 members 0,1,2,3\nblock 1 root 3 members 3\n", "block 1 given twice"),
        ("block 0 root 0 members 0,1,2,3\n", "block 0 out of range"),
    ):
        f.write_text(text)
        assert run(["adm", "sig", "chain3333", "--seq", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {named}" in captured.err


def test_spider_witness_fields(capsys):
    code, out = capture(capsys, ["spider", "witness", "-n", "3", "-m", "5"])
    assert code == 0
    assert out.startswith("spider:")
    assert "diameter=20" in out and "order=29" in out and "b=5" in out


def test_spider_balanced(capsys):
    code, out = capture(capsys, ["spider", "balanced", "-n", "3", "-m", "8"])
    assert code == 0
    assert out.startswith("spider:23,23,24")
    assert "order=71" in out


def test_spider_verify_min_diameter(capsys):
    code, out = capture(capsys, ["spider", "verify-min-diameter", "-n", "3", "-m", "3"])
    assert code == 0
    assert "confirmed=true" in out


def test_spider_verify_min_diameter_reports_the_walk_size(capsys):
    code = run(["spider", "verify-min-diameter", "-n", "3", "-m", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "min_diameter=14 confirmed=true\n"
    # the 27 partitions of 18 (extremal order 19, less the head) into 3 legs
    assert captured.err == "partitions 27\n"


def test_spider_verify_min_diameter_refuses_a_huge_walk():
    # p(1204) ~ 5.3e34 partitions of 2404 into 1200 legs are refused at
    # once, before a count is printed, and so are those of 200004 into
    # 100000 legs, whose full count would take about 5e9 steps; the 2,611
    # of -n 5 -m 6 are under the cap and still walked
    assert readme_partition_cap("spider verify-min-diameter") == burning.MAX_PARTITIONS
    for n in (1200, 100000):
        start = time.monotonic()
        proc = run_in_one_gib(["spider", "verify-min-diameter", "-n", str(n), "-m", "3"])
        assert time.monotonic() - start < 5
        assert burning._partition_count(2 * n + 4, n) == burning.MAX_PARTITIONS + 1
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", PARTITION_REFUSAL % "leg")
    proc = run_in_one_gib(["spider", "verify-min-diameter", "-n", "5", "-m", "6"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "min_diameter=26 confirmed=true\n",
        "partitions 2611\n",
    )


PARTITION_REFUSAL = (
    f"error: more than {burning.MAX_PARTITIONS} %s-length partitions to test, the most allowed\n"
)


def readme_partition_cap(command):
    """The partition cap as the README's CLI section states it for `command`."""
    text = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    paragraph = next(p for p in text.split("\n\n") if p.startswith(f"`{command}`"))
    found = re.search(
        r"more than\s+10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)\s+partitions[^(]*\(`burning\.MAX_PARTITIONS`", paragraph
    )
    return 10 ** int(found.group(1).translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))


def test_forest_ln_refuses_a_huge_walk(capsys):
    # 2.9e11 partitions of 400 into 10 paths at m = 20; and at n = 3 every
    # m of 3..45 is under the cap, but the whole range is not
    assert readme_partition_cap("forest ln") == burning.MAX_PARTITIONS
    start = time.monotonic()
    proc = run_in_one_gib(["forest", "ln", "-n", "10", "--m-range", "20..20"])
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", PARTITION_REFUSAL % "path")
    counts = [burning._partition_count(m * m, 3) for m in range(3, 46)]
    assert max(counts) <= burning.MAX_PARTITIONS < sum(counts)
    assert run(["forest", "ln", "-n", "3", "--m-range", "3..45"]) == 1
    assert capsys.readouterr() == ("", PARTITION_REFUSAL % "path")


def test_tsv_format(capsys):
    code, out = capture(capsys, ["--format", "tsv", "burn", "number", "path:9"])
    assert code == 0
    assert out.strip() == "b=3\tsources=2,6,8"


def test_parse_error_exit_2():
    assert run(["burn", "number"]) == 2
    assert run(["nonsense"]) == 2


def test_domain_error_exit_1(capsys):
    assert run(["burn", "number", "/no/such/file"]) == 1
    assert run(["adm", "order", "chain3333", "--seq", "A_B,C_D"]) == 1
    assert run(["spider", "witness", "-n", "3", "-m", "9"]) == 1


def test_tree_file_input(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("# tiny path\nedge 0 1\nedge 1 2\n")
    code, out = capture(capsys, ["burn", "number", str(f)])
    assert code == 0
    assert out.startswith("b=2")


def test_topology_file_with_labels(tmp_path, capsys):
    f = tmp_path / "topo.txt"
    f.write_text(
        "edge 0 1\nedge 0 2\nedge 0 3\nlabel H 0\n"
    )
    code, out = capture(capsys, ["adm", "order", str(f), "--seq", "H", "-m", "4"])
    assert code == 0
    assert out.strip() == "order=19"


@pytest.mark.parametrize(
    "lines, error",
    [
        ("label B1 0\nlabel B2 3", "error: bad label on line 6: 'B1'"),
        ("label 0 0\nlabel ~ 3", "error: bad label on line 6: '0'"),
        ("label A 0\nlabel ~ 3", "error: bad label on line 7: '~'"),
        ("label A 0\nlabel _ 3", "error: bad label on line 7: '_'"),
        ("label , 0\nlabel B 3", "error: bad label on line 6: ','"),
        ("label A 0\nlabel A 3", "error: label 'A' given twice, again on line 7"),
        ("label A 0\nlabel B x", "error: malformed line 7: 'label B x'"),
    ],
)
def test_label_the_compact_syntax_cannot_read_is_refused(tmp_path, capsys, lines, error):
    f = tmp_path / "topo.txt"
    f.write_text("edge 0 1\nedge 0 2\nedge 0 3\nedge 3 4\nedge 3 5\n" + lines + "\n")
    argvs = (["ext", "search", str(f), "-m", "3"], ["adm", "validate", str(f), "--seq", "A_B"])
    for argv in argvs:
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(error)


def test_ext_search_sequence_reads_back(tmp_path, capsys):
    f = tmp_path / "topo.txt"
    f.write_text("edge 0 1\nedge 0 2\nedge 0 3\nedge 3 4\nedge 3 5\nlabel x 0\nlabel 7 3\n")
    for topology in ("chain3333", "tshape5333", "star4", str(f)):
        code, out = capture(capsys, ["ext", "search", topology, "-m", "6"])
        assert code == 0
        fields = dict(item.split("=") for item in out.split())
        seq = fields["seq"]
        code, out = capture(capsys, ["adm", "validate", topology, "--seq", seq])
        assert (code, out) == (0, "valid\n"), (topology, seq)
        code, out = capture(capsys, ["adm", "order", topology, "--seq", seq, "-m", "6"])
        assert (code, out) == (0, f"order={fields['order']}\n"), (topology, seq)


def test_output_determinism(capsys):
    a = capture(capsys, ["ext", "search", "chain3333", "-m", "6"])
    b = capture(capsys, ["ext", "search", "chain3333", "-m", "6"])
    assert a == b


def test_golden_tables(capsys):
    for i in range(1, 7):
        code, out = capture(capsys, ["ext", "tables", "--emit-table", str(i)])
        assert code == 0
        assert out == (GOLDEN / f"table{i}.txt").read_text()


def test_ext_tables_grid(capsys):
    code, out = capture(
        capsys,
        [
            "ext",
            "tables",
            "--shape",
            "tshape",
            "--degrees-grid",
            "3,3,3,3;5,3,3,3",
            "--m-grid",
            "6",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["degrees", "m", "winner", "B_ACD", "A_BD,C", "A,C_B,D"]
    assert "B_ACD" in lines[1] and "A_BD,C" in lines[2]


@pytest.mark.parametrize(
    "shape, grid, m_grid, error",
    [
        ("chain", "3,3,3,3", "4", "m must exceed the branch-vertex count 4"),
        ("chain", "3,3,3,3", "6,3", "m must exceed the branch-vertex count 4"),
        ("tshape", "3,4,5,3", "6", "tshape requires arm degrees sorted a >= c >= d"),
        ("chain", "3,3,3,3;3,2,3,3", "6", "branch degrees must be at least 3"),
    ],
)
def test_ext_tables_bad_input_prints_nothing(capsys, shape, grid, m_grid, error):
    # every m and degree tuple is checked before the header is printed
    code = run(
        ["ext", "tables", "--shape", shape, "--degrees-grid", grid, "--m-grid", m_grid]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert error in captured.err


def readme_cli_examples():
    """(argv, expected output pattern) for each `$ treeburn ...` line of the
    README's CLI block that is followed by output; a `...` line stands for
    any number of output lines."""
    text = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    block = text.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []  # (command line, shown output lines)
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line, []))
        elif line:
            examples[-1][1].append(line)
    out = []
    for command, shown in examples:
        if shown:
            pattern = "".join(
                r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n" for line in shown
            )
            out.append((shlex.split(command[len("$ treeburn "):], comments=True), pattern))
    return out


README_EXAMPLES = readme_cli_examples()


@pytest.mark.parametrize(
    "argv, pattern", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_cli_example(capsys, argv, pattern):
    code, out = capture(capsys, argv)
    assert code == 0
    assert re.fullmatch(pattern, out), out


def test_readme_block_file_example():
    text = (REPO / "README.md").read_text()
    example = text.split("```text\n# B_AC,~,D on chain3333\n", 1)[1].split("```", 1)[0]
    _, labels = make_chain_topology(3, 3, 3, 3)
    assert adm.parse_block_lines(example) == adm.parse_compact("B_AC,~,D", labels)


def declared_console_script(name):
    """Return the ``module:function`` that pyproject.toml declares for the
    console script ``name`` under ``[project.scripts]``."""
    text = (REPO / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read that one table by line
        scripts, table = {}, None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and "=" in line:
                key, value = line.split("=", 1)
                scripts[key.strip()] = value.strip().strip("\"'")
        return scripts[name]
    return tomllib.loads(text)["project"]["scripts"][name]


def test_console_script_installed(tmp_path):
    # The declared entry point runs from src/ in a fresh interpreter, the way
    # an installed wrapper would call it; an installed script on PATH runs too,
    # in the inherited environment, so that it imports the installed package.
    module, func = declared_console_script("treeburn").split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    runs = [([sys.executable, "-c", wrapper], env)]
    installed = shutil.which("treeburn")
    if installed:
        runs.append(([installed], None))
    for command, command_env in runs:
        proc = subprocess.run(
            command + ["burn", "number", "path:4"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=command_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("b=2")

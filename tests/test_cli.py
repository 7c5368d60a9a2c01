import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gpmop
from gpmop import cli, parse_edge_list, recognize, verify
from gpmop.cli import main

import test_dual


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def generate(tmp_path, family, *params):
    out = tmp_path / f"{family}_{'_'.join(map(str, params))}.txt"
    rc = main(["generate", family, *map(str, params), "--out", str(out)])
    assert rc == 0
    return str(out)


class TestGp:
    def test_fan(self, tmp_path, capsys):
        f = generate(tmp_path, "fan", 9)
        assert main(["gp", f]) == 0
        out = capsys.readouterr().out
        assert "gp=6" in out
        assert "witness=0 1 3 4 6 7" in out

    def test_path(self, tmp_path, capsys):
        f = generate(tmp_path, "path", 6)
        assert main(["gp", f]) == 0
        assert "gp=2" in capsys.readouterr().out

    def test_disconnected_is_usage_error(self, tmp_path, capsys):
        f = write_graph(tmp_path, "disc.txt", "4\n0 1\n2 3\n")
        assert main(["gp", f]) == 2

    def test_missing_file(self, capsys):
        assert main(["gp", "/nonexistent/file.txt"]) == 2

    def test_huge_declared_order(self, tmp_path, capsys):
        f = write_graph(tmp_path, "huge.txt", "999999999\n")
        assert main(["gp", f]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cap_exceeded(self, tmp_path, capsys):
        lines = ["45"] + [f"{i} {i + 1}" for i in range(44)]
        f = write_graph(tmp_path, "long.txt", "\n".join(lines) + "\n")
        assert main(["gp", f]) == 2
        err = capsys.readouterr().err
        assert "search cap 40" in err and "--force" in err
        assert main(["gp", f, "--force"]) == 0
        assert "gp=2" in capsys.readouterr().out

    def test_mop_cap_exceeded(self, tmp_path, capsys):
        # A fan has 2n - 3 edges and is a MOP, so its own cap applies.
        cap = gpmop.solve.MOP_SEARCH_CAP
        f = generate(tmp_path, "fan", cap + 1)
        assert main(["gp", f]) == 2
        err = capsys.readouterr().err
        assert f"order {cap + 1} exceeds the search cap {cap};" in err and "--force" in err
        assert main(["gp", generate(tmp_path, "fan", 60)]) == 0
        assert "gp=40" in capsys.readouterr().out


class TestVerify:
    def test_yes_with_partition(self, tmp_path, capsys):
        f = generate(tmp_path, "fan", 9)
        assert main(["verify", f, "0", "1", "3", "4", "6", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes")
        assert "partition: {0,1} {3,4} {6,7}" in out

    def test_no_with_violation(self, tmp_path, capsys):
        f = generate(tmp_path, "path", 4)
        assert main(["verify", f, "0", "1", "3"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("no")
        assert "violation: (0,1,3)" in out

    def test_bad_ids(self, tmp_path, capsys):
        f = generate(tmp_path, "path", 4)
        assert main(["verify", f, "0", "99"]) == 2

    def test_disconnected_is_usage_error(self, tmp_path, capsys):
        f = write_graph(tmp_path, "disc.txt", "4\n0 1\n2 3\n")
        assert main(["verify", f, "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: general position tests require a connected graph\n"

    def test_disagreeing_tests_exit_70(self, tmp_path, capsys, monkeypatch):
        f = generate(tmp_path, "path", 4)
        real = cli.is_gp_naive
        monkeypatch.setattr(cli, "is_gp_naive", lambda *a: replace(real(*a), is_gp=True))
        assert main(["verify", f, "0", "1", "3"]) == 70
        assert "the two general-position tests disagree on [0, 1, 3]" in capsys.readouterr().err

    def test_characterized_rejecting_a_naive_pass_exit_70(self, tmp_path, capsys, monkeypatch):
        f = generate(tmp_path, "path", 4)
        monkeypatch.setattr(verify, "_clique_partition", lambda *a: None)
        assert main(["verify", f, "0", "1"]) == 70
        assert "the two general-position tests disagree on [0, 1]" in capsys.readouterr().err

    def test_characterized_passing_a_naive_failure_exit_70(self, tmp_path, capsys, monkeypatch):
        f = generate(tmp_path, "path", 4)
        monkeypatch.setattr(verify, "_clique_partition", lambda dist, members: ((0, 1, 3),))
        assert main(["verify", f, "0", "1", "3"]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the two general-position tests disagree on [0, 1, 3]" in captured.err


class TestRecognize:
    def test_accept_prints_certificate(self, tmp_path, capsys):
        f = generate(tmp_path, "fan", 6)
        assert main(["recognize", f]) == 0
        assert capsys.readouterr().out == "cycle: 0 1 2 3 4 5\nchords: (1,5) (2,5) (3,5)\n"

    def test_relabelled_hull_is_printed_from_zero(self, tmp_path, capsys):
        # gsf(7) relabelled so that its hull runs 0 2 5 3 1 6 4: the cycle
        # starts at 0 and turns toward the smaller of 0's hull neighbours.
        edges = "0 2\n0 3\n0 4\n0 5\n0 6\n1 3\n1 6\n2 5\n3 5\n3 6\n4 6\n"
        f = write_graph(tmp_path, "gsf7.txt", "7\n" + edges)
        assert main(["recognize", f]) == 0
        assert capsys.readouterr().out == "cycle: 0 2 5 3 1 6 4\nchords: (0,3) (0,5) (0,6) (3,6)\n"

    def test_reject_names_evidence(self, tmp_path, capsys):
        f = generate(tmp_path, "complete", 4)
        assert main(["recognize", f]) == 1
        assert "rejected: WrongEdgeCount" in capsys.readouterr().out

    def test_sunflower_rejected(self, tmp_path, capsys):
        f = generate(tmp_path, "sunflower", 4)
        assert main(["recognize", f]) == 1

    def test_order_two_without_edges_is_disconnected(self, tmp_path, capsys):
        # Disconnected comes before the order, as in gp; K2 is connected, so
        # its order is the error.
        assert main(["recognize", write_graph(tmp_path, "two.txt", "2\n")]) == 1
        assert capsys.readouterr().out == "rejected: Disconnected: graph is not connected\n"
        assert main(["recognize", write_graph(tmp_path, "k2.txt", "2\n0 1\n")]) == 1
        assert capsys.readouterr().out == "rejected: WrongEdgeCount: order 2 is below the minimum of 3\n"


class TestGenerate:
    def test_gsf_header(self, tmp_path):
        f = generate(tmp_path, "gsf", 8)
        text = open(f).read()
        assert "# label=gsf(8)" in text
        assert "# predicted_gp=4" in text
        assert "role_map=" in text
        g = parse_edge_list(text)
        assert g.order == 8
        recognize(g)

    def test_every_family_round_trips_through_recognition(self, tmp_path):
        cases = [
            ("fan", (7,)),
            ("quasi_fan", (2, 8)),
            ("g1", (1, 2, 9)),
            ("g2", (2, 2, 9)),
            ("slt", (8,)),
            ("gsf", (9,)),
        ]
        for family, params in cases:
            f = generate(tmp_path, family, *params)
            recognize(parse_edge_list(open(f).read()))

    def test_unknown_family(self, capsys):
        assert main(["generate", "petersen", "10"]) == 2

    def test_chords_feed_a_claim_line_back_to_gp(self, tmp_path, capsys):
        # The order-16 class that attains the cap, as a failed claim names it
        # (chords=a-b;c-d;...), through generate chords and then gp.
        chords = test_dual.TestOrderSixteenCapClass.CHORDS
        ends = [v for chord in chords.split(";") for v in chord.split("-")]
        out = tmp_path / "chords16.txt"
        assert main(["generate", "chords", "16", *ends, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[:4]
        assert header == ["# label=chords(16)", f"# params=n=16 chords={chords}", "# role_map=", "# predicted_gp=unknown"]
        assert main(["gp", str(out)]) == 0
        assert capsys.readouterr().out == "gp=10\nwitness=0 1 3 5 6 8 9 11 13 14\n"
        assert main(["recognize", str(out)]) == 0

    def test_chords_reject_an_odd_count_of_endpoints(self, capsys):
        for argv in (["6", "0", "2", "0"], []):
            assert main(["generate", "chords", *argv]) == 2
            assert capsys.readouterr().err == "error: chords takes n and then two endpoints per chord\n"
        # The order is checked before any edge is built, and build_graph
        # names a bad chord.
        assert main(["generate", "chords", "70000", "0", "2"]) == 2
        assert "chords needs 3 <= n <= 65535, got 70000" in capsys.readouterr().err
        assert main(["generate", "chords", "6", "0", "6"]) == 2
        assert "edge (0,6) has an endpoint outside 0..5" in capsys.readouterr().err
        assert main(["generate", "chords", "6", "0", "1"]) == 2
        assert "duplicate edge (0,1)" in capsys.readouterr().err

    def test_bad_params(self, capsys):
        assert main(["generate", "fan", "2"]) == 2
        assert main(["generate", "fan"]) == 2
        assert main(["generate", "quasi_fan", "9", "7"]) == 2


class TestCensusCommand:
    def test_dedupe_row_count(self, capsys):
        assert main(["census", "6", "--dedupe"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4

    def test_jobs_byte_identical(self, tmp_path):
        paths = []
        for i, jobs in enumerate(("1", "2", "3")):
            p = tmp_path / f"census{i}.csv"
            assert main(["census", "7", "--jobs", jobs, "--out", str(p)]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_dedupe_jobs_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["census", "8", "--dedupe", "--out", str(a)]) == 0
        assert main(["census", "8", "--dedupe", "--jobs", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_order(self, capsys):
        assert main(["census", "2"]) == 2

    def test_bad_jobs(self, capsys):
        assert main(["census", "5", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestCheckCommand:
    def test_all_pass_over_small_range(self, capsys):
        assert main(["check", "5", "6"]) == 0
        out = capsys.readouterr().out
        assert "status=fail" not in out
        assert out.count("CLAIM") == 30

    def test_bad_range(self, capsys):
        assert main(["check", "3", "6"]) == 2

    def test_bad_jobs(self, capsys):
        assert main(["check", "4", "13", "--jobs", "-1"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestFileErrors:
    @pytest.mark.parametrize("command", ["census", "check", "generate", "recognize", "rejected"])
    def test_out_into_missing_directory(self, tmp_path, capsys, command):
        argv = {
            "census": ["census", "5"],
            "check": ["check", "5", "5"],
            "generate": ["generate", "fan", "5"],
            "recognize": ["recognize", generate(tmp_path, "fan", 5)],
            "rejected": ["recognize", generate(tmp_path, "complete", 4)],
        }[command]
        out = tmp_path / "missing" / "x.txt"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [["census", "12"], ["check", "4", "13"]], ids=["census", "check"])
    def test_missing_out_directory_stops_the_work(self, tmp_path, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("the command ran before its --out was checked")

        monkeypatch.setattr(cli, "run_census", never)
        monkeypatch.setattr(cli, "verify_paper_claims", never)
        assert main([*argv, "--out", str(tmp_path / "missing" / "x.txt")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [["census", "12"], ["check", "4", "13"]], ids=["census", "check"])
    def test_directory_out_stops_the_work(self, tmp_path, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("the command ran before its --out was checked")

        monkeypatch.setattr(cli, "run_census", never)
        monkeypatch.setattr(cli, "verify_paper_claims", never)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21]")

    @pytest.mark.parametrize("command,extra", [("gp", []), ("verify", ["0", "1"]), ("recognize", [])])
    def test_undecodable_file(self, tmp_path, capsys, command, extra):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe\x00")
        assert main([command, str(f), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""


def _child_env():
    # The child imports the same gpmop as this process, installed or not.
    src = str(Path(gpmop.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _limit_address_space():
    # About 1 GB: a generator that built its edge list before checking the
    # order would die of MemoryError here instead of exhausting the host.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "family,order",
    [pytest.param(f, "100000000", id=f) for f in ("path", "fan", "cycle", "gsf", "sunflower")]
    # Below the order cap, but with about 2e8 edges.
    + [pytest.param("complete", "20000", id="complete")],
)
def test_hostile_family_order_fails_fast(family, order):
    proc = subprocess.run(
        [sys.executable, "-m", "gpmop.cli", "generate", family, order],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_verify_on_a_large_sparse_graph(tmp_path):
    # A 20,000-vertex path: an all-pairs table would not fit in 1 GB.
    n = 20000
    f = write_graph(tmp_path, "path.txt", f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "gpmop.cli", "verify", f, "0", "5", "9"],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert (proc.stdout, proc.returncode) == ("no\nviolation: (0,5,9)\n", 1), proc.stderr


def test_verify_refuses_rows_above_the_entry_cap_before_building_one(tmp_path):
    # 5,000 ids on a 20,000-vertex path would need 1e8 row entries, more
    # than 1 GB holds; the refusal comes before the first row.
    n = 20000
    f = write_graph(tmp_path, "path.txt", f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    proc = subprocess.run(
        [sys.executable, "-m", "gpmop.cli", "verify", f, *map(str, range(5000))],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert (proc.stdout, proc.returncode) == ("", 2), proc.stderr
    assert proc.stderr.startswith("error: 5000 ids on order 20000 need 100000000 BFS row entries")


def test_verify_entry_cap_counts_distinct_ids(tmp_path, capsys, monkeypatch):
    # Three distinct ids on a 10-vertex path fill a cap of 30 exactly, however
    # often they are given; a fourth id goes over it.
    monkeypatch.setattr(cli, "VERIFY_ENTRY_CAP", 30)
    f = generate(tmp_path, "path", 10)
    assert main(["verify", f, "0", "5", "9", "5"]) == 1
    assert capsys.readouterr().out == "no\nviolation: (0,5,9)\n"
    assert main(["verify", f, "0", "5", "9", "1"]) == 2
    assert capsys.readouterr().err == "error: 4 ids on order 10 need 40 BFS row entries, above the cap of 30\n"


def test_console_script_entry_point(tmp_path):
    env = _child_env()
    out = tmp_path / "fan5.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "gpmop.cli", "generate", "fan", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "gpmop.cli", "gp", str(out)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "gp=3" in proc.stdout

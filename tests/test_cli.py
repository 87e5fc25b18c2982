"""End-to-end tests of the command-line front-end."""

import collections
import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import make_encoder, seeded_gates

import pearlmem
import pearlmem.cli
import pearlmem.gf2
import pearlmem.selftest
from pearlmem import corpus_path, render
from pearlmem.cli import main
from pearlmem.selftest import random_encoder

EXAMPLE1 = str(corpus_path("example1.pne"))
EXAMPLE3 = str(corpus_path("example3.pne"))
COMMUTING = str(corpus_path("commuting.pne"))
CORPUS = ["commuting", "example1", "example2", "example3"]
GOLDEN = Path(__file__).parent / "golden"


def test_analyze_human_readable(capsys):
    assert main(["analyze", EXAMPLE1]) == 0
    out = capsys.readouterr().out
    assert "memory: 3 frames (9 qubits)" in out
    assert "longest path: START" in out


def test_analyze_json_schema(capsys):
    assert main(["analyze", "--json", EXAMPLE1]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "input",
        "memory_frames",
        "memory_qubits",
        "gates",
        "longest_path",
        "graph",
    }
    assert data["memory_frames"] == 3
    assert data["memory_qubits"] == 9
    assert data["input"]["qubits"] == 3
    assert data["input"]["gate_strings"][0] == "CNOT(2,3)(D)"
    assert data["gates"][0] == {"k": 1, "a": 2, "b": 3, "l": 1, "sigma": 1, "tau": 0, "w": 0}
    assert data["longest_path"]["weight"] == 3
    assert data["graph"] == {"vertex_count": 7, "edge_count": 16}


def test_analyze_json_is_byte_deterministic(capsys):
    main(["analyze", "--json", EXAMPLE3])
    first = capsys.readouterr().out
    main(["analyze", "--json", EXAMPLE3])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.pne"
    empty.write_text("# nothing here\n")
    assert main(["analyze", "--json", str(empty)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["memory_frames"] == 0
    assert data["gates"] == []


def test_parse_error_exit_code_and_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.pne"
    bad.write_text("CNOT(1,2)(D)\nCNOT(1,1)(1)\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2:1" in err
    assert "single qubit" in err


def test_signed_zero_exponent_is_a_positioned_error(tmp_path, capsys):
    bad = tmp_path / "bad.pne"
    bad.write_text("CNOT(1,2)(D)\nCNOT(1,2)(D^-0)\n")
    assert main(["analyze", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{bad}:2:13: exponent '-0' is a signed zero; write 'D^0' or '1'\n"
    )


def test_missing_file_is_reported(capsys):
    assert main(["analyze", "does-not-exist.pne"]) == 1
    assert "does-not-exist.pne" in capsys.readouterr().err


def test_dot_to_stdout(capsys):
    assert main(["dot", EXAMPLE1]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '3 -> 4 [label="2"];' in out


def test_dot_to_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main(["dot", EXAMPLE3, "--output", str(target)]) == 0
    first = target.read_bytes()
    assert main(["dot", EXAMPLE3, "--output", str(target)]) == 0
    assert target.read_bytes() == first


def test_empty_dot_path_is_an_error(capsys):
    for argv in (["analyze", EXAMPLE1, "--dot", ""], ["dot", EXAMPLE1, "-o", ""]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


def test_analyze_writes_dot_side_output(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main(["analyze", EXAMPLE1, "--dot", str(target)]) == 0
    assert target.read_text().startswith("digraph")
    direct = tmp_path / "direct.dot"
    for name in CORPUS:
        path = str(corpus_path(f"{name}.pne"))
        assert main(["analyze", path, "--dot", str(target)]) == 0
        assert main(["dot", path, "--output", str(direct)]) == 0
        assert target.read_bytes() == direct.read_bytes(), name


@pytest.mark.parametrize("name", CORPUS)
def test_outputs_match_golden_files(name, capsys):
    # The golden files pin the bytes of every rendering across changes to the
    # analysis core; regenerate them only for a deliberate format change.
    path = str(corpus_path(f"{name}.pne"))
    runs = {
        "analyze.json": ["analyze", "--json", path],
        "analyze.txt": ["analyze", path],
        "dot": ["dot", path],
        "verify.json": ["verify", "--frames", "12", "--json", path],
        "verify.txt": ["verify", "--frames", "12", path],
        "brute.json": ["brute-check", "--json", path],
        "brute.txt": ["brute-check", path],
    }
    for suffix, argv in runs.items():
        assert pearlmem.cli._read_args(argv) is not None, suffix  # argparse is not needed
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / f"{name}.{suffix}").read_bytes(), suffix


def test_analysis_subcommands_never_build_the_graph(monkeypatch, tmp_path, capsys):
    # DOT output streams from the collision enumerator, so no subcommand
    # holds the graph's edge list.
    def refuse(enc):
        raise AssertionError("build_graph called")

    monkeypatch.setattr(pearlmem.graph, "build_graph", refuse)
    monkeypatch.setattr(pearlmem.report, "build_graph", refuse)
    enc = pearlmem.parse(Path(EXAMPLE1).read_text())
    assert pearlmem.analyze(enc).assignment.memory == 3
    target = str(tmp_path / "graph.dot")
    for argv in (
        ["analyze", EXAMPLE1],
        ["analyze", "--json", EXAMPLE3],
        ["analyze", EXAMPLE1, "--dot", target],
        ["dot", EXAMPLE1],
        ["dot", EXAMPLE3, "-o", target],
        ["verify", EXAMPLE3, "--frames", "12"],
        ["brute-check", EXAMPLE1],
    ):
        assert main(argv) == 0, argv


def test_no_subcommand_lists_the_constraint_pairs(monkeypatch):
    # constraint_set is the all-pairs specification the tests check against;
    # brute force reads each string's lower offset off a per-qubit key.
    def refuse(enc):
        raise AssertionError("constraint_set called")

    monkeypatch.setattr(pearlmem.model, "constraint_set", refuse)
    binders = [
        name
        for name, module in sys.modules.items()
        if name.startswith("pearlmem.") and name != "pearlmem.model"
        and hasattr(module, "constraint_set")
    ]
    assert not binders and not hasattr(pearlmem, "constraint_set"), binders
    for name in CORPUS:
        path = str(corpus_path(f"{name}.pne"))
        for argv in (
            ["analyze", path],
            ["dot", path],
            ["verify", path],
            ["brute-check", path],
            ["brute-check", "--json", path],
        ):
            assert main(argv) == 0, argv
    assert main(["selftest", "--count", "50"]) == 0


def test_dot_refuses_a_graph_over_budget(monkeypatch, tmp_path, capsys):
    # Mirrors test_verify_refuses_before_simulating: example1 has 16 edges,
    # and the refusal comes before any byte of the report or the graph.
    def refuse(*args):
        raise AssertionError("DOT writer started")

    monkeypatch.setattr(pearlmem.cli, "write_dot", refuse)
    monkeypatch.setattr(pearlmem.graph, "MAX_DOT_EDGES", 15)
    target = tmp_path / "graph.dot"
    for argv in (
        ["dot", EXAMPLE1],
        ["dot", EXAMPLE1, "-o", str(target)],
        ["analyze", EXAMPLE1, "--dot", str(target)],
        ["analyze", "--json", EXAMPLE1, "--dot", str(target)],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: DOT graph of 16 edges exceeds the limit of 15\n"
        assert not target.exists()
    monkeypatch.setattr(pearlmem.graph, "MAX_DOT_EDGES", 16)
    with pytest.raises(AssertionError, match="DOT writer started"):
        main(["dot", EXAMPLE1])


def test_verify_reports_true(capsys):
    assert main(["verify", EXAMPLE3, "--frames", "12"]) == 0
    out = capsys.readouterr().out
    assert "interior_equal=TRUE" in out


def test_verify_json_payload(capsys):
    assert main(["verify", EXAMPLE3, "--frames", "12", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verification"]["interior_equal"] is True
    assert data["verification"]["frames"] == 12


def test_verify_detects_boundary_mismatch_with_zero_margin(monkeypatch, capsys):
    # Margin 0 keeps the truncation boundary in view, where the two
    # realizations legitimately differ; the mismatch must be loud.
    monkeypatch.setattr(pearlmem.gf2, "fitted_margin", lambda enc, memory, frames: 0)
    complaint = (
        f"{COMMUTING}: convolutional realization does not match the "
        "pearl-necklace encoder on the GF(2) interior\n"
    )
    argv = ["verify", COMMUTING, "--frames", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "interior_equal=FALSE (frames=4, margin=0, memory=1)\n"
    assert captured.err == complaint
    assert main([*argv, "--json"]) == 2
    captured = capsys.readouterr()
    golden = (GOLDEN / "commuting.verify.json").read_text()
    assert captured.out == golden.replace(
        '"frames": 12,\n    "interior_equal": true,\n    "margin": 3',
        '"frames": 4,\n    "interior_equal": false,\n    "margin": 0',
    )
    assert captured.out != golden
    assert captured.err == complaint


def test_verify_window_must_fit(capsys):
    assert main(["verify", EXAMPLE1, "--frames", "2"]) == 1
    assert "does not fit" in capsys.readouterr().err


def test_verify_default_window_fits_the_encoder(tmp_path, capsys):
    # The window of 3 x the default margin that selftest checks; a fixed
    # --frames 12 refuses memory >= 12 and caps the margin too low on others.
    rng = random.Random(5)
    source = tmp_path / "seeded.pne"
    fixed = collections.Counter()
    for _ in range(60):
        source.write_text(render(random_encoder(rng, 6, 4, (-8, 8))))
        assert main(["verify", str(source)]) == 0, source.read_text()
        fixed[main(["verify", str(source), "--frames", "12"])] += 1
    assert fixed[1] > 10 and fixed[2] > 10, fixed


def test_verify_refuses_a_simulation_over_budget(tmp_path, capsys):
    wide = tmp_path / "wide.pne"
    wide.write_text("qubits 100000\nCNOT(1,2)(D)\n")
    assert main(["verify", str(wide)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: GF(2) simulation of 9 frames x 100000 qubits = 900000 qubits "
        "exceeds the limit of 32768\n"
    )


def test_verify_refuses_before_simulating(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("simulation started")

    # realization_check simulates through these two builders.
    monkeypatch.setattr(pearlmem.gf2, "_pearl_matrix", refuse)
    monkeypatch.setattr(pearlmem.gf2, "_conv_matrix", refuse)
    # example1 has memory 3 and frame width 3: no frames, the qubit budget
    # and the block window are each refused.
    cases = [
        (["--frames", "0"], "frames must be >= 1, got 0"),
        (
            ["--frames", "20000", "--json"],
            "GF(2) simulation of 20000 frames x 3 qubits = 60000 qubits "
            "exceeds the limit of 32768",
        ),
        (["--frames", "3"], "window of 4 frames does not fit in 3 frames"),
    ]
    for options, message in cases:
        assert main(["verify", EXAMPLE1, *options]) == 1, options
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_brute_check_refuses_an_encoder_over_budget(tmp_path, capsys):
    long = tmp_path / "long.pne"
    long.write_text("qubits 2\n" + "CNOT(1,2)(D)\n" * 19)
    assert main(["brute-check", str(long)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: brute force over 19 gate strings exceeds the limit of 18\n"
    )


def test_brute_check_ok_line(capsys):
    assert main(["brute-check", EXAMPLE3]) == 0
    assert capsys.readouterr().out == "graph=3 brute=3 OK\n"


def test_brute_check_default_bound(capsys):
    assert main(["brute-check", EXAMPLE1]) == 0
    assert capsys.readouterr().out == "graph=3 brute=3 OK\n"


def test_brute_check_detects_a_mismatch(monkeypatch, capsys):
    real = pearlmem.gf2.brute_force_min_memory

    def overcounted(enc, bound):
        return real(enc, bound) + 1

    monkeypatch.setattr(pearlmem.gf2, "brute_force_min_memory", overcounted)
    complaint = f"{EXAMPLE1}: brute-force memory disagrees with the graph analysis\n"
    assert main(["brute-check", EXAMPLE1]) == 2
    captured = capsys.readouterr()
    assert captured.out == "graph=3 brute=4 MISMATCH\n"
    assert captured.err == complaint
    assert main(["brute-check", "--json", EXAMPLE1]) == 2
    captured = capsys.readouterr()
    golden = (GOLDEN / "example1.brute.json").read_text()
    assert captured.out == golden.replace(
        '"brute_force_frames": 3,\n    "match": true',
        '"brute_force_frames": 4,\n    "match": false',
    )
    assert captured.out != golden
    assert captured.err == complaint


def test_brute_check_finding_nothing_is_a_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(pearlmem.gf2, "brute_force_min_memory", lambda enc, bound: None)
    assert main(["brute-check", EXAMPLE1]) == 2
    captured = capsys.readouterr()
    assert captured.out == "graph=3 brute=exceeds-bound(4) MISMATCH\n"
    assert captured.err == (
        f"{EXAMPLE1}: brute-force memory disagrees with the graph analysis\n"
    )


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # Each `pearlmem ...` line of README's "Command line" block, on the
    # corpus files it names, in a scratch working directory for its outputs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 7 and all(c[0] == "pearlmem" for c in commands), block
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = [str(corpus_path(a)) if a.endswith(".pne") else a for a in command[1:]]
        assert main(argv) == 0, command
    assert (tmp_path / "g.dot").read_text().startswith("digraph commutativity {")
    capsys.readouterr()


def test_selftest_runs_clean(capsys):
    assert main(["selftest", "--seed", "1", "--count", "10"]) == 0
    assert "10: OK" in capsys.readouterr().out


def test_selftest_json(capsys):
    assert main(["selftest", "--seed", "2", "--count", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"count": 5, "failures": [], "seed": 2}


def test_selftest_reports_rejected_assignment_per_instance(monkeypatch, capsys):
    real = pearlmem.selftest.longest_path_linear

    def corrupted(enc):
        lp = real(enc)
        return lp._replace(end_weight=lp.end_weight + 1)

    monkeypatch.setattr(pearlmem.selftest, "longest_path_linear", corrupted)
    assert main(["selftest", "--seed", "1", "--count", "3"]) == 2
    out = capsys.readouterr().out
    assert "3 FAILED" in out
    assert out.count("assignment rejected: longest-path weight") == 3


def test_selftest_reports_disagreement_with_the_graph(monkeypatch, capsys):
    real = pearlmem.selftest.longest_path_weights

    def miscounted(g):
        lp = real(g)
        return lp._replace(edge_count=lp.edge_count + 1)

    monkeypatch.setattr(pearlmem.selftest, "longest_path_weights", miscounted)
    assert main(["selftest", "--seed", "1", "--count", "3"]) == 2
    out = capsys.readouterr().out
    assert "3 FAILED" in out
    assert out.count("linear core edge_count") == 3


SELFTEST_SEED1 = (
    "qubits 2 CNOT(1,2)(D^-3) CNOT(2,1)(D^-3) CNOT(2,1)(D^3) CNOT(2,2)(D)",
    "qubits 1 CNOT(1,1)(D^2) CNOT(1,1)(D^-1) CNOT(1,1)(D^-3) CNOT(1,1)(D^2) CNOT(1,1)(D^2)",
    "qubits 1 CNOT(1,1)(D^-2) CNOT(1,1)(D^-1) CNOT(1,1)(D^3) CNOT(1,1)(D^2)",
)


def test_selftest_reports_oracle_failures(monkeypatch, capsys):
    real = pearlmem.gf2.brute_force_min_memory

    def overcounted(enc, bound):
        return real(enc, bound) + 1

    def failed(reasons):
        pairs = enumerate(zip(reasons, SELFTEST_SEED1))
        lines = "".join(f"  instance {i}: {r} [{src}]\n" for i, (r, src) in pairs)
        return "selftest seed=1 count=3: 3 FAILED\n" + lines

    argv = ["selftest", "--seed", "1", "--count", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(pearlmem.gf2, "brute_force_min_memory", overcounted)
        assert main(argv) == 2
        reasons = [f"brute force found {m + 1}, linear core found {m}" for m in (6, 7, 7)]
        assert capsys.readouterr().out == failed(reasons)
    with monkeypatch.context() as patch:
        patch.setattr(pearlmem.gf2, "_conv_matrix", lambda *args: ())  # no rows
        assert main(argv) == 2
        reasons = [f"GF(2) interiors differ (frames={3 * m}, margin={m})" for m in (10, 11, 11)]
        assert capsys.readouterr().out == failed(reasons)


def test_run_selftest_returns_its_failures(monkeypatch):
    assert pearlmem.selftest.run_selftest(seed=3, count=2) == ()
    monkeypatch.setattr(pearlmem.selftest, "check_instance", lambda enc: "wrong")
    failures = pearlmem.selftest.run_selftest(seed=1, count=2)
    assert failures == tuple(f"instance {i}: wrong [{SELFTEST_SEED1[i]}]" for i in (0, 1))


def test_selftest_rejects_negative_count(capsys):
    assert main(["selftest", "--count", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count must be >= 0" in captured.err


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def exhausted(enc):
        raise MemoryError

    monkeypatch.setattr(pearlmem.cli, "analyze", exhausted)
    assert main(["analyze", EXAMPLE1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def _run_cli(argv, stdout, unbuffered, stderr=subprocess.PIPE, entry=("-m", "pearlmem.cli")):
    """Run ``pearlmem argv`` in a fresh interpreter with stdout at ``stdout``,
    block-buffered as it is on a pipe, or unbuffered; ``entry`` may be a
    ``-c`` script that calls ``main(sys.argv[1:])``."""
    env = {**os.environ, "PYTHONPATH": str(Path(pearlmem.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, *entry, *argv]
    return subprocess.Popen(command, stdout=stdout, stderr=stderr, env=env)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_leaves_early_is_no_error(unbuffered, tmp_path):
    # `pearlmem dot big.pne | head -1`: the DOT text is far larger than a pipe.
    big = tmp_path / "big.pne"
    big.write_text(render(make_encoder(seeded_gates(random.Random(1), 1000, 4, 3), 4)))
    with _run_cli(["dot", str(big)], subprocess.PIPE, unbuffered) as proc:
        assert proc.stdout.readline() == b"digraph commutativity {\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0
    # A reader that left before the first byte; small output stays in the
    # buffer until main flushes it.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["analyze", EXAMPLE1], ["analyze", "--json", EXAMPLE1], ["dot", EXAMPLE1]):
            with _run_cli(argv, write_end, unbuffered) as proc:
                assert proc.stderr.read() == b"", argv
                assert proc.wait(timeout=60) == 0, argv
    finally:
        os.close(write_end)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_dot_file_whose_reader_leaves_early_is_an_error(tmp_path):
    # The user named the DOT file, so unlike stdout its reader may not leave.
    big = tmp_path / "big.pne"
    big.write_text(render(make_encoder(seeded_gates(random.Random(1), 1000, 4, 3), 4)))
    fifo = tmp_path / "graph.fifo"
    os.mkfifo(fifo)
    for argv in (["analyze", str(big), "--dot", str(fifo)], ["dot", str(big), "-o", str(fifo)]):
        # A non-blocking reader opens at once, so the CLI's open cannot block.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        with _run_cli(argv, subprocess.PIPE, False) as proc:
            try:
                deadline, head = time.monotonic() + 60, b""
                while len(head) < 100 and time.monotonic() < deadline:
                    try:
                        head += os.read(reader, 100 - len(head))
                    except BlockingIOError:
                        pass
                    time.sleep(0.01)
            finally:
                os.close(reader)
            assert head.startswith(b"digraph commutativity {\n"), argv
            assert proc.wait(timeout=60) == 1, argv
            assert proc.stdout.read() == b"", argv
            assert proc.stderr.read() == f"error: {fifo}: Broken pipe\n".encode(), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_dot_file_that_cannot_be_written_names_it(capsys):
    # The same device as stdout gives a line that says which stream failed.
    for argv in (["analyze", EXAMPLE1, "--dot", "/dev/full"], ["dot", EXAMPLE1, "-o", "/dev/full"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: /dev/full: No space left on device\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_full_stdout_is_one_error_line(unbuffered):
    # Block-buffered, the text fails at main's flush and would fail again at
    # exit; main drops it, so one line and exit 1 is all that is left.
    with open("/dev/full", "wb") as full:
        for argv in (
            ["analyze", EXAMPLE1],
            ["analyze", "--json", EXAMPLE1],
            ["dot", EXAMPLE1],
            ["verify", EXAMPLE1],
            ["selftest", "--count", "1"],
        ):
            with _run_cli(argv, full, unbuffered) as proc:
                assert proc.stderr.read() == b"error: [Errno 28] No space left on device\n", argv
                assert proc.wait(timeout=60) == 1, argv


_MISMATCH_SCRIPT = """
import sys
import pearlmem.gf2
from pearlmem.cli import main
real = pearlmem.gf2.brute_force_min_memory
pearlmem.gf2.brute_force_min_memory = lambda enc, bound: real(enc, bound) + 1
pearlmem.gf2._conv_matrix = lambda *args: ()  # no rows, so never equal
sys.exit(main(sys.argv[1:]))
"""


def test_a_mismatch_complaint_follows_the_result_on_one_stream():
    # stdout and stderr on one pipe, stdout block-buffered: the result is
    # written and flushed before the complaint.
    brute = f"{EXAMPLE1}: brute-force memory disagrees with the graph analysis\n"
    verify = (
        f"{EXAMPLE1}: convolutional realization does not match the "
        "pearl-necklace encoder on the GF(2) interior\n"
    )
    for argv, result, complaint in (
        (["brute-check", EXAMPLE1], "graph=3 brute=4 MISMATCH\n", brute),
        (
            ["brute-check", "--json", EXAMPLE1],
            (GOLDEN / "example1.brute.json").read_text().replace(
                '"brute_force_frames": 3,\n    "match": true',
                '"brute_force_frames": 4,\n    "match": false',
            ),
            brute,
        ),
        (
            ["verify", "--frames", "12", EXAMPLE1],
            (GOLDEN / "example1.verify.txt").read_text().replace("TRUE", "FALSE"),
            verify,
        ),
        (
            ["verify", "--frames", "12", "--json", EXAMPLE1],
            (GOLDEN / "example1.verify.json").read_text().replace(
                '"interior_equal": true', '"interior_equal": false'
            ),
            verify,
        ),
    ):
        script = ("-c", _MISMATCH_SCRIPT)
        with _run_cli(argv, subprocess.PIPE, False, subprocess.STDOUT, script) as proc:
            assert proc.stdout.read() == (result + complaint).encode(), argv
            assert proc.wait(timeout=60) == 2, argv


class _GoneReader:
    """A stdout whose reader has gone: ``failing`` ("write" or "flush") raises
    EPIPE.  Its descriptor is a file the test owns."""

    def __init__(self, fd, failing):
        self.fd, self.failing = fd, failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_mismatch_exits_2_after_the_reader_has_gone(failing, monkeypatch, tmp_path, capsys):
    real = pearlmem.gf2.brute_force_min_memory
    monkeypatch.setattr(pearlmem.gf2, "brute_force_min_memory", lambda e, b: real(e, b) + 1)
    monkeypatch.setattr(pearlmem.gf2, "_conv_matrix", lambda *args: ())  # no rows
    complaint = f"{EXAMPLE1}: brute-force memory disagrees with the graph analysis\n"
    unequal = (
        f"{EXAMPLE1}: convolutional realization does not match the "
        "pearl-necklace encoder on the GF(2) interior\n"
    )
    for argv, status, err in (
        (["brute-check", EXAMPLE1], 2, complaint),
        (["brute-check", "--json", EXAMPLE1], 2, complaint),
        (["verify", EXAMPLE1], 2, unequal),
        (["selftest", "--seed", "1", "--count", "3"], 2, ""),
        (["analyze", EXAMPLE1], 0, ""),
    ):
        with open(tmp_path / "stdout", "w") as file, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _GoneReader(file.fileno(), failing))
            assert main(argv) == status, argv
            if failing == "flush":  # fd 1 now writes to os.devnull, so the exit flush succeeds
                assert os.path.samestat(os.fstat(file.fileno()), os.stat(os.devnull)), argv
        assert capsys.readouterr() == ("", err), argv


def test_other_write_errors_stay_errors(monkeypatch, capsys):
    class Full(_GoneReader):
        def write(self, text):
            raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", Full(-1, None))
        assert main(["dot", EXAMPLE1]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")


USAGE_ERRORS = {
    "analyze-no-file": ["analyze"],
    "bogus-command": ["bogus"],
    "no-command": [],
    "frames-abc": ["verify", EXAMPLE1, "--frames", "abc"],
    "margin": ["verify", EXAMPLE1, "--margin", "0"],
    "bound": ["brute-check", EXAMPLE1, "--bound", "4"],
}


@pytest.mark.parametrize("args", list(USAGE_ERRORS.values()))
def test_usage_errors(args, capsys):
    # Exit code 2 is reserved for a correctness mismatch.
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pearlmem")
    assert ": error: " in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pearlmem verify")


# The golden file tests/golden/usage/NAME.txt holds what each case prints:
# stdout for help, stderr otherwise.  NAME+TAG.txt files hold the same text
# as other argparse versions print it.
USAGE_TEXTS = {
    "help": (["--help"], 0),
    **{f"help-{c}": ([c, "--help"], 0) for c in ("analyze", "dot", "verify", "brute-check", "selftest")},
    **{name: (argv, 1) for name, argv in USAGE_ERRORS.items()},
    "frames-negative": (["verify", EXAMPLE1, "--frames", "-3"], 1),
    "output-no-value": (["dot", EXAMPLE1, "-o"], 1),
}


def _run_main(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


@pytest.mark.parametrize("name", USAGE_TEXTS)
def test_help_and_usage_texts_match_golden_files(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse fits help to the terminal
    argv, status = USAGE_TEXTS[name]
    assert _run_main(argv) == status
    out, err = capsys.readouterr()
    printed, silent = (out, err) if name.startswith("help") else (err, out)
    assert silent == ""
    usage = GOLDEN / "usage"
    goldens = [usage / f"{name}.txt", *usage.glob(f"{name}+*.txt")]
    assert printed in {path.read_text() for path in goldens}, printed


def test_an_abbreviated_option_still_works(capsys):
    # argparse expands --js to --json; the golden run spells it out.
    assert _run_main(["analyze", EXAMPLE1, "--js"]) == 0
    assert capsys.readouterr() == ((GOLDEN / "example1.analyze.json").read_text(), "")


def test_non_utf8_input_is_a_positioned_error(tmp_path, capsys):
    bad = tmp_path / "bad.pne"
    bad.write_bytes(b"qubits 2\nCNOT(1,2)(\xff)")
    assert main(["analyze", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{bad}:2:11: byte 0xff is not UTF-8 (invalid start byte)\n"
    )
    # Columns count characters, and CRLF and CR end lines as in text mode.
    bad.write_bytes("qubits 2\r\n# é\rCNOT(1,2)(D) # \u00e9".encode() + b"\xc3(")
    assert main(["analyze", str(bad)]) == 1
    assert f"{bad}:3:17: byte 0xc3 is not UTF-8" in capsys.readouterr().err


def test_line_endings_read_as_in_text_mode(tmp_path, capsys):
    crlf = tmp_path / "crlf.pne"
    crlf.write_bytes(b"qubits 3\r\nCNOT(2,3)(D)\rCNOT(1,1)(1)\r\n")
    assert main(["analyze", str(crlf)]) == 1
    assert capsys.readouterr().err.startswith(f"{crlf}:3:1: ")


def _assert_cli_leaves_out(*unwanted: str, argv: list[str] | None = None) -> None:
    """Import the CLI in a fresh interpreter, run ``main(argv)`` if given, and
    check that none of the ``unwanted`` modules was loaded."""
    src = str(Path(pearlmem.__file__).resolve().parents[1])
    run = "" if argv is None else f"pearlmem.cli.main({argv!r}); "
    subprocess.run(
        [
            sys.executable,
            "-c",
            f"import pearlmem.cli, sys; {run}loaded = set({unwanted!r}) & set(sys.modules); "
            "assert not loaded, loaded",
        ],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
        timeout=60,
        check=True,
    )


def test_cli_start_up_does_not_import_numpy():
    # Nor dataclasses and inspect, whose import and code generation would
    # cost about as much as the rest of the package.
    _assert_cli_leaves_out("numpy", "dataclasses", "inspect")


def test_cli_start_up_does_not_import_json():
    # Only JSON output needs it; like argparse, which only help and usage
    # errors need, it is one of the largest imports that start-up skips.
    _assert_cli_leaves_out("json")


def test_analyze_json_does_not_import_json():
    # The report is written from templates.
    _assert_cli_leaves_out("json", argv=["analyze", EXAMPLE1, "--json"])


@pytest.mark.parametrize("command", ["verify", "brute-check"])
def test_check_json_does_not_import_json(command):
    # A check's flat result is written from templates too.
    _assert_cli_leaves_out("json", argv=[command, EXAMPLE1, "--json"])


def _argparse_vars(parser, argv: list[str]) -> dict | None:
    """vars() of what argparse reads from ``argv``, or None where it prints
    help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


# The benchmark's shapes and others that the reader must take; every golden
# run takes it too (test_outputs_match_golden_files).
USUAL_ARGV = [
    ["analyze", EXAMPLE1, "--json"],
    ["analyze", EXAMPLE1],
    ["dot", EXAMPLE1],
    ["verify", EXAMPLE1, "--frames", "45"],
    ["brute-check", EXAMPLE1],
    ["dot", EXAMPLE1, "-o", "graph.dot"],
    ["verify", EXAMPLE1, "--json", "--frames", "744"],
    ["brute-check", EXAMPLE1, "--json"],
    ["analyze", EXAMPLE1, "--dot", "g.dot"],
    ["selftest", "--seed", "1", "--count", "2000", "--json"],
]


def test_the_usual_argv_take_the_reader():
    parser = pearlmem.cli._build_parser()
    for argv in USUAL_ARGV:
        args = pearlmem.cli._read_args(argv)
        assert args is not None, argv
        assert vars(args) == _argparse_vars(parser, argv), argv


def test_the_reader_leaves_other_spellings_to_argparse():
    for argv in (
        ["analyze", EXAMPLE1, "--js"],
        ["analyze", EXAMPLE1, "--dot=g.dot"],
        ["dot", EXAMPLE1, "-og.dot"],
        ["analyze", "--", EXAMPLE1],
        ["analyze", EXAMPLE1, "-h"],
        ["analyze", EXAMPLE1, "--json", "--json"],
        ["dot", EXAMPLE1, "-o", "a.dot", "--output", "b.dot"],
        ["verify", EXAMPLE1, "--frames", "-1"],
        ["analyze", EXAMPLE1, "--dot", "-g.dot"],
        ["analyze", "-f.pne"],
        ["dot", EXAMPLE1, "-o"],
        ["analyze", EXAMPLE1, "--dot"],
        ["verify", EXAMPLE1, "--frames", "abc"],
        ["analyze", EXAMPLE1, EXAMPLE3],
        ["analyze"],
        ["selftest", EXAMPLE1],
        ["bogus", EXAMPLE1],
        [],
        ["--help"],
    ):
        assert pearlmem.cli._read_args(argv) is None, argv


def test_the_reader_agrees_with_argparse_wherever_it_reads():
    # Seeded argv of every subcommand and option, mixed with the spellings the
    # reader must leave to argparse: abbreviations, =value, --, -h, repeats,
    # values that start with "-", odd ints and extra or missing positionals.
    options = {
        "analyze": ["--json", "--dot"],
        "dot": ["--output", "-o"],
        "verify": ["--frames", "--json"],
        "brute-check": ["--json"],
        "selftest": ["--seed", "--count", "--json"],
    }
    switches = {"--json"}
    values = ["3", "0", "12", "abc", "1e3", "g.dot", "-1", "-", "-x", " -1", "+3", "1_0", "٣", ""]
    odd = [
        "--js", "--fr", "--out", "--co", "--json=1", "--frames=3", "-ox", "--", "-h",
        "--help", "-1", "-", " -1", "", "f.pne", "bogus", "--dot", "--frames", "--seed", "-o",
    ]
    rng = random.Random(27)
    parser = pearlmem.cli._build_parser()
    read = []
    for _ in range(4000):
        command = rng.choice([*options, "bogus"])
        groups = [["f.pne"]] if rng.random() < 0.8 else []
        for flag in options.get(command, []):
            if rng.random() < 0.6:
                groups.append([flag] if flag in switches else [flag, rng.choice(values)])
        groups += [[rng.choice(odd)] for _ in range(rng.choice([0, 0, 0, 1, 2]))]
        rng.shuffle(groups)
        argv = [command, *(word for group in groups for word in group)]
        args = pearlmem.cli._read_args(argv)
        if args is not None:
            assert vars(args) == _argparse_vars(parser, argv), argv
            read.append(argv)
    assert len(read) > 1000, len(read)
    words = {word for argv in read for word in argv}
    assert words >= {*options, *switches, "--dot", "-o", "--output", "--frames", "--seed"}
    assert words >= {"--count", " -1", "+3", "1_0", "٣", ""}, words


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["analyze", EXAMPLE1],
        ["analyze", EXAMPLE1, "--json"],
        ["dot", EXAMPLE1],
        ["verify", EXAMPLE1],
        ["verify", EXAMPLE1, "--json"],
        ["brute-check", EXAMPLE1],
        ["brute-check", EXAMPLE1, "--json"],
        ["selftest", "--count", "1"],
    ],
)
def test_usual_calls_do_not_import_argparse(argv):
    # Building the parser, with argparse and the gettext it loads, cost about
    # as much as pearlmem's own imports; only help and usage errors need it.
    _assert_cli_leaves_out("argparse", "gettext", argv=argv)


def test_the_module_entry_reads_sys_argv():
    # main() reads sys.argv[1:], for the usual argv and for help alike.
    with _run_cli(["analyze", "--json", EXAMPLE1], subprocess.PIPE, False) as proc:
        assert proc.communicate(timeout=60) == ((GOLDEN / "example1.analyze.json").read_bytes(), b"")
    assert proc.returncode == 0
    with _run_cli(["--help"], subprocess.PIPE, False) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"") and out.startswith(b"usage: pearlmem [-h]"), out

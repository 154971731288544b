import hashlib
import json
import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from quditid import cli, jsonio, montecarlo
from quditid.detection import build_povm

# SHA-256 of `build --d N --out FILE`, pinned so that faster rendering
# cannot change a single output byte.
BUILD_SHA256 = {
    2: "81c142fb642909a0a2850a5c3dbecad0407cc1feb62bdd549eeba6999a86f8e7",
    3: "145be0dfbd834078d12b41cec2f83929d17cee20a84c6cd52fa6ac3cc85d7b31",
    4: "fad37e72211b1d256d7697f881ef1770f34bcaf7574288b6e59be517923ff7ff",
    5: "1530affc06e8405a915cc89d22adc2ebd30d2aee5eca46bc747aa50d699d109c",
}

# SHA-256 of `verify --d N --out FILE`, pinned so that every key and
# every exactly computed value of the report stays as it is.
VERIFY_SHA256 = {
    2: "72b3aa6209acbb0a5050571aa9cef2e2691f7298d878f277f37ffaee54d0bf53",
    3: "7e3623cd0ea55db590c4a0a4af97dc1e88098c4b8739e9a19a5ffecdfba77c5c",
    4: "2be79b18ec1018b75652e1bbe156941656a92bc8f0508b4691d9ae487c0246d9",
    5: "1ebcc48741539c1657fdd40427646cd8b97a91ed4b9b0e62da86a84574488518",
}

VERIFY_KEYS = [
    "d", "p_succ", "p_succ_closed_form", "max_offdiag", "checks", "failed_checks", "ok",
]
VERIFY_CHECKS = ["success_matches_closed_form", "no_misidentification", "primal_feasible"]

# SHA-256 of `optimize --mode grid --out FILE` for (d, resolution),
# pinned so that a faster grid search returns the same weights and total.
OPTIMIZE_SHA256 = {
    (2, "0.01"): "7caa0865fcece996cc694047462e03c74bbd7434eeb774d71a119c029f0effd2",
    (2, "0.001"): "927b997585558080fa01f8a9825a6a0e67fee7a13af69801fbe2d595ac516463",
    (3, "0.01"): "0e665ff758d0209620cc87745cad428c67495a1852992f25581afc5a2e2d51ed",
    (3, "0.005"): "2fcca8dba818710ff11a3c3e1e1ccf00b5fac05b48802b000a96228a0bd95918",
    (3, "0.001"): "937fe80ab0cc5fc47177caa2645a54984980a12f09dfbff68a8162cd3647c29c",
}

# SHA-256 of `simulate --format csv --out FILE` for (d, trials, seed),
# pinned so that batch rendering keeps every byte of the format_float
# form.  Each trial count crosses a batch boundary (3413 trials at d = 2,
# 2048 at d = 3, 787 at d = 5).
CSV_SHA256 = {
    (5, 20000, 1001): "55d22ce2dcdb48d5e95ab60728a8a334ee7cc1b5e0a3548d2a8e03a106ab98b3",
    (2, 4099, 11): "2c0da4bebecddab1dd865835e1cf4ac3bd5a1c06892889e42cba41a19265d8cb",
    (3, 2049, 0): "2c06b550969afb117e9f62d9b8781e6ebd3c67c1b94b3e2157cf6fdad643c5a1",
}


def _complex(pairs):
    """The (re, im) pairs of a JSON vector as one complex array."""
    return np.array(pairs, dtype=np.float64).view(np.complex128).ravel()


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_verify_d3(capsys):
    rc, out = run_cli(capsys, "verify", "--d", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failed_checks"] == []
    assert report["p_succ"] == report["p_succ_closed_form"] == 1.0 / 36.0


def test_verify_d5(capsys):
    rc, out = run_cli(capsys, "verify", "--d", "5")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failed_checks"] == []


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_verify_bytes_are_pinned(capsys, tmp_path, d):
    path = tmp_path / "report.json"
    rc, out = run_cli(capsys, "verify", "--d", str(d), "--out", str(path))
    assert rc == 0
    assert out == ""
    data = path.read_bytes()
    report = json.loads(data)
    assert list(report) == VERIFY_KEYS
    assert list(report["checks"]) == VERIFY_CHECKS
    assert hashlib.sha256(data).hexdigest() == VERIFY_SHA256[d]


def test_verify_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out = run_cli(capsys, "verify", "--d", "2", "--out", str(path))
    assert rc == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["d"] == 2
    assert report["ok"] is True


def test_verify_exit_code_2_on_failure(capsys, monkeypatch):
    fake = {"ok": False, "failed_checks": ["primal_feasible"], "d": 2}
    monkeypatch.setattr(cli, "verify_report", lambda d: fake)
    rc, out = run_cli(capsys, "verify", "--d", "2")
    assert rc == 2
    assert json.loads(out)["failed_checks"] == ["primal_feasible"]


def test_output_fault_raises_instead_of_a_usage_error(capsys, monkeypatch, tmp_path):
    """A non-finite value in a report is a fault of the output, not of the
    input: the JSON is rendered after main's usage-error path, so it
    raises, and before --out is opened, so no file is left."""
    fake = {"d": 2, "p_succ": float("nan"), "ok": True}
    monkeypatch.setattr(cli, "verify_report", lambda d: fake)
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="non-finite value nan in output"):
        cli.main(["verify", "--d", "2", "--out", str(path)])
    assert not path.exists()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize(
    "argv", [["verify", "--d", "2"], ["simulate", "--d", "2", "--trials", "3", "--format", "csv"]],
    ids=" ".join,
)
def test_out_that_cannot_be_opened_is_a_usage_error(capsys, tmp_path, argv, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert f"quditid {argv[0]}: error: cannot open --out: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_emit_writes_long_pieces_in_slices(monkeypatch, tmp_path):
    # Over 2 MiB of varied text, so a slice lost, repeated or shifted at
    # either boundary changes the bytes.
    piece = "".join(f"{i}," for i in range(400_000))
    small = "short"
    assert len(piece) > 2 * cli._SLICE
    path = tmp_path / "out.txt"
    cli._emit([piece, small], str(path), pytest.fail)
    assert path.read_bytes() == (piece + small + "\n").encode("utf-8")

    writes = []
    monkeypatch.setattr("sys.stdout", types.SimpleNamespace(write=writes.append))

    def emitted(pieces):
        """The writes of _emit(pieces) to stdout, checked to be the text in
        blocks of one slice each, the last one shorter."""
        writes.clear()
        cli._emit(pieces, None, pytest.fail)
        text = "".join(pieces) + "\n"
        assert "".join(writes) == text
        assert len(writes) == math.ceil(len(text) / cli._SLICE)
        assert all(len(w) == cli._SLICE for w in writes[:-1])
        return writes

    # Short pieces before and after a long one share its first and last blocks.
    assert max(map(len, emitted([small, piece, small]))) == cli._SLICE
    # Many tiny pieces are gathered: no write per piece, none above a slice.
    tiny = [f"{i}," for i in range(100_000)]
    total = sum(map(len, tiny)) + 1
    assert len(emitted(tiny)) <= math.ceil(total / cli._SLICE) + 1
    # A piece of one slice that starts a block is written as it is, not copied.
    full = piece[: cli._SLICE]
    assert emitted([full, small])[0] is full
    # Below glibc's 128 KiB mmap threshold, a slice and its copy reuse heap memory.
    assert sys.getsizeof(full) < 128 << 10 and len(full.encode("utf-8")) < 128 << 10


def test_emit_writes_every_finished_piece_when_rendering_fails(tmp_path):
    """A piece that fails to render ends the output after every piece
    before it, whole, and its error reaches the caller."""
    def pieces():
        yield "header"
        yield "x" * (cli._SLICE + 10)
        yield "rows"
        raise ValueError("non-finite value nan in output")

    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="non-finite"):
        cli._emit(pieces(), str(path), pytest.fail)
    assert path.read_text(encoding="utf-8") == "header" + "x" * (cli._SLICE + 10) + "rows"


def test_build_writes_no_copy_of_the_whole_text(tmp_path):
    """`build --d 5` writes its 25.8 MB report from the rendered pieces:
    at no point does it hold a second string of the whole text, so its
    traced peak stays below the report's length."""
    path = tmp_path / "povm.json"
    cli.main(["build", "--d", "2", "--out", str(path)])  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert cli.main(["build", "--d", "5", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize(
    "argv",
    [[command, "--d", str(d)] for command in ("build", "verify", "optimize") for d in (2, 3, 4)],
    ids=" ".join,
)
def test_reports_are_written_without_joining(capsys, monkeypatch, tmp_path, argv):
    """The CLI writes the bytes of jsonio.dumps(report) and a newline, to
    stdout and to --out, without ever calling dumps."""
    args = cli._build_parser().parse_args(argv)
    want = jsonio.dumps(args.run(args)[0]) + "\n"

    def refuse(obj):
        raise AssertionError("the CLI joined the whole report")

    monkeypatch.setattr(jsonio, "dumps", refuse)
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert out == want
    path = tmp_path / "report.json"
    rc, out = run_cli(capsys, *argv, "--out", str(path))
    assert (rc, out) == (0, "")
    assert path.read_text(encoding="utf-8") == want


def test_build_round_trips(capsys):
    rc, out = run_cli(capsys, "build", "--d", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["d"] == 2
    assert obj["scale"] == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert [e["n"] for e in obj["elements"]] == [1, 2]
    assert all(len(e["vectors"]) == 2 for e in obj["elements"])
    for entry, elem in zip(obj["elements"], build_povm(2).elements, strict=True):
        for got, want in zip(entry["vectors"], elem.vectors, strict=True):
            assert got["d"] == 2
            np.testing.assert_array_equal(_complex(got["amps"]), want.amps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_build_bytes_are_pinned(capsys, tmp_path, d):
    path = tmp_path / "povm.json"
    rc, out = run_cli(capsys, "build", "--d", str(d), "--out", str(path))
    assert rc == 0
    assert out == ""
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == BUILD_SHA256[d]
    obj = json.loads(data)
    want = build_povm(d)
    assert obj["d"] == d
    assert obj["scale"] == want.scale
    for entry, elem in zip(obj["elements"], want.elements, strict=True):
        assert entry["n"] == elem.label
        for got, ref in zip(entry["vectors"], elem.vectors, strict=True):
            # Bit patterns, so signed zeros must survive too.
            np.testing.assert_array_equal(
                _complex(got["amps"]).view(np.uint64), ref.amps.view(np.uint64)
            )


def test_simulate_json_summary(capsys):
    rc, out = run_cli(capsys, "simulate", "--d", "2", "--trials", "2000", "--seed", "11")
    assert rc == 0
    summary = json.loads(out)
    assert summary["trials"] == 2000
    assert summary["seed"] == 11
    assert summary["error_rate"] == 0.0
    assert summary["error_count"] == 0
    counts = (
        summary["success_count"]
        + summary["error_count"]
        + summary["inconclusive_count"]
    )
    assert counts == 2000
    assert 0.0 < summary["success_rate"] < 1.0


def test_simulate_csv(capsys):
    rc, out = run_cli(
        capsys, "simulate", "--d", "2", "--trials", "50", "--seed", "0",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,truth,outcome,p_success,p_inconclusive"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in {"1", "2"}
    assert first[2] in {"0", "1", "2"}
    total = float(first[3]) + float(first[4])
    assert total <= 1.0 + 1e-10
    # trial indices are sequential
    assert [row.split(",")[0] for row in lines[1:]] == [str(i) for i in range(50)]


@pytest.mark.parametrize("d, trials, seed", sorted(CSV_SHA256))
def test_simulate_csv_bytes_are_pinned(capsys, tmp_path, d, trials, seed):
    path = tmp_path / "trials.csv"
    rc, out = run_cli(
        capsys, "simulate", "--d", str(d), "--trials", str(trials),
        "--seed", str(seed), "--format", "csv", "--out", str(path),
    )
    assert rc == 0
    assert out == ""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CSV_SHA256[d, trials, seed]


def _oracle_rows(start, truths, outcomes, p):
    """Each row built from jsonio.format_float, one call per value."""
    return "".join(
        f"\n{start + k},{t},{o},{jsonio.format_float(x)},{jsonio.format_float(1.0 - x)}"
        for k, (t, o, x) in enumerate(zip(truths.tolist(), outcomes.tolist(), p.tolist()))
    )


def test_csv_rows_equal_format_float():
    rng = np.random.default_rng(7)
    edges = [
        0.0, -0.0, 1.0, 1e-17, 2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53,
        5e-324, 2.2250738585072014e-308, 3.0, 1e17, 1.5e300,
    ]
    # 1 - p rounds to exactly 1.0 for p <= 2**-54, so "%.17g" prints "1".
    assert 1.0 - 2.0**-54 == 1.0 and 1.0 - 2.0**-53 < 1.0
    p = np.concatenate([
        edges,
        1.0 - rng.random(10_000),
        1e-8 * (1.0 - rng.random(10_000)),
    ])
    truths = rng.integers(1, 6, size=p.size)
    outcomes = np.where(rng.random(p.size) < 0.5, truths, 0)
    batches = [(0, truths[:100], outcomes[:100], p[:100]),
               (100, truths[100:], outcomes[100:], p[100:])]
    text = "".join(jsonio.csv_blocks(batches))
    header = "trial,truth,outcome,p_success,p_inconclusive"
    want = header + "".join(_oracle_rows(*batch) for batch in batches)
    assert text == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_csv_rows_reject_non_finite(bad):
    p = np.array([0.25, bad, 0.5])
    batch = (0, np.array([1, 2, 3]), np.array([1, 0, 3]), p)
    blocks = jsonio.csv_blocks([batch])
    assert next(blocks) == "trial,truth,outcome,p_success,p_inconclusive"
    with pytest.raises(ValueError, match="non-finite"):
        next(blocks)


def test_threads_hint_does_not_change_output(capsys, monkeypatch):
    """At d = 4 the batches run on the calling thread alone, and the report
    is the same with QID_THREADS unset, set to a count and set to garbage."""
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    argv = ["simulate", "--d", "4", "--trials", str(2 * montecarlo._batch_size(4) + 1)]
    reports = []
    for hint in (None, "4", "not-a-number"):
        if hint is None:
            monkeypatch.delenv("QID_THREADS", raising=False)
        else:
            monkeypatch.setenv("QID_THREADS", hint)
        rc, out = run_cli(capsys, *argv, "--seed", "4")
        assert rc == 0
        report = json.loads(out)
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
    assert started == []


def test_optimize_eigen(capsys):
    rc, out = run_cli(capsys, "optimize", "--d", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "eigen"
    assert abs(payload["alpha_opt"] - 2.0 / 3.0) <= 1e-12
    assert abs(payload["S_opt"] - 4.0 / 3.0) <= 1e-12
    assert len(payload["spectrum"]) == 2
    assert abs(payload["spectrum"][0] - 0.5) <= 1e-12
    assert abs(payload["spectrum"][1] - 1.5) <= 1e-12


def test_optimize_grid(capsys):
    rc, out = run_cli(
        capsys, "optimize", "--d", "3", "--mode", "grid", "--resolution", "0.05"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "grid"
    assert payload["resolution"] == 0.05
    assert len(payload["alpha_opt"]) == 3
    assert 9.0 / 4.0 - 0.15 <= payload["S_opt"] <= 9.0 / 4.0 + 1e-9


@pytest.mark.parametrize("d, resolution", sorted(OPTIMIZE_SHA256))
def test_optimize_grid_bytes_are_pinned(capsys, tmp_path, d, resolution):
    path = tmp_path / "optimize.json"
    rc, out = run_cli(
        capsys, "optimize", "--d", str(d), "--mode", "grid",
        "--resolution", resolution, "--out", str(path),
    )
    assert rc == 0
    assert out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OPTIMIZE_SHA256[d, resolution]


@pytest.mark.parametrize("d", [6, 14])
def test_optimize_eigen_takes_the_library_dimension_bound(capsys, d):
    """optimize --d restates no bound: past build's 2..5, up to check_dim's
    14, the eigen route gives d/(d+1)."""
    rc, out = run_cli(capsys, "optimize", "--d", str(d))
    assert rc == 0
    assert abs(json.loads(out)["alpha_opt"] - d / (d + 1)) <= 1e-12


def test_optimize_eigen_ignores_resolution(capsys):
    # Eigen mode never reads --resolution, so a value the grid refuses
    # changes nothing.
    rc, out = run_cli(capsys, "optimize", "--d", "4", "--resolution", "0.0005")
    assert rc == 0
    assert out == run_cli(capsys, "optimize", "--d", "4")[1]


# Usage errors that no option's row in test_boundaries.CLI_OPTIONS makes.
@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["build"]])
def test_usage_errors_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--d", "2", "--seed", "-1"], "seed must lie in 0..18446744073709551615, got -1"),
        (["simulate", "--d", "2", "--trials", "0", "--format", "csv"], "trials must lie in 1.."),
        (["optimize", "--d", "4", "--mode", "grid"], "dimension of a grid search must lie in 2..3, got 4"),
        (["simulate", "--d", "2", "--trials", "0"], "trials must lie in 1.."),
        (
            ["optimize", "--d", "2", "--mode", "grid", "--resolution", "nan"],
            "resolution must lie in [0.001, 0.1], got nan",
        ),
        (["build", "--d", "6"], "dimension of a dense d**(d+1)-entry vector must lie in 2..5, got 6"),
        (["verify", "--d", "1"], "dimension of a dense d**(d+1)-entry vector must lie in 2..5, got 1"),
        (["optimize", "--d", "1"], "dimension must lie in 2..14, got 1"),
        (["optimize", "--d", "15"], "dimension must lie in 2..14, got 15"),
    ],
)
def test_usage_error_is_the_library_message_and_writes_no_file(capsys, tmp_path, argv, message):
    """The library's bounds are checked before --out is opened."""
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 1
    assert f"quditid {argv[0]}: error: {message}" in capsys.readouterr().err
    assert not path.exists()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "build" in out and "simulate" in out

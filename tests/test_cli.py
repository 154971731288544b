import hashlib
import json

import numpy as np
import pytest

from quditid import cli, jsonio
from quditid.detection import build_povm, povm_from_dict, povm_to_dict

# SHA-256 of `build --d N --out FILE`, pinned so that faster rendering
# cannot change a single output byte.
BUILD_SHA256 = {
    2: "81c142fb642909a0a2850a5c3dbecad0407cc1feb62bdd549eeba6999a86f8e7",
    3: "145be0dfbd834078d12b41cec2f83929d17cee20a84c6cd52fa6ac3cc85d7b31",
    4: "fad37e72211b1d256d7697f881ef1770f34bcaf7574288b6e59be517923ff7ff",
    5: "1530affc06e8405a915cc89d22adc2ebd30d2aee5eca46bc747aa50d699d109c",
}

# SHA-256 of `simulate --format csv --out FILE` for (d, trials, seed),
# pinned so that batch rendering keeps every byte of the format_float
# form.  The trial counts cross 2048-trial batch boundaries.
CSV_SHA256 = {
    (5, 20000, 1001): "b7963c93680b3385734401b307b60f93d74e27a1cbf47eb06a2a9567129f659c",
    (2, 4099, 11): "7df72bd46a2058452a72b99d9a3d8cf03df6e4f1dbacaffdec972a402f65b30e",
    (3, 2049, 0): "56917059274b13381f3c4ded3c561bfda49f37ea880997fa1a98ade6375dae6d",
}


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_verify_d3(capsys):
    rc, out = run_cli(capsys, "verify", "--d", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failed_checks"] == []
    assert abs(report["p_succ"] - 1.0 / 36.0) <= 1e-12
    assert abs(report["p_succ"] - report["p_succ_closed_form"]) <= 1e-12


def test_verify_d5(capsys):
    rc, out = run_cli(capsys, "verify", "--d", "5")
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["failed_checks"] == []


def test_verify_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out = run_cli(capsys, "verify", "--d", "2", "--out", str(path))
    assert rc == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["d"] == 2
    assert report["ok"] is True


def test_verify_exit_code_2_on_failure(capsys, monkeypatch):
    fake = {"ok": False, "failed_checks": ["inconclusive_psd"], "d": 2}
    monkeypatch.setattr(cli, "verify_report", lambda d: fake)
    rc, out = run_cli(capsys, "verify", "--d", "2")
    assert rc == 2
    assert json.loads(out)["failed_checks"] == ["inconclusive_psd"]


def test_build_round_trips(capsys):
    rc, out = run_cli(capsys, "build", "--d", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["d"] == 2
    assert obj["scale"] == pytest.approx(2.0 / 3.0, abs=1e-16)
    assert [e["n"] for e in obj["elements"]] == [1, 2]
    assert all(len(e["vectors"]) == 2 for e in obj["elements"])
    povm = povm_from_dict(obj)
    assert povm.d == 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_build_bytes_are_pinned(capsys, tmp_path, d):
    path = tmp_path / "povm.json"
    rc, out = run_cli(capsys, "build", "--d", str(d), "--out", str(path))
    assert rc == 0
    assert out == ""
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == BUILD_SHA256[d]
    want = build_povm(d)
    for back in (povm_from_dict(json.loads(data)), povm_from_dict(povm_to_dict(want))):
        assert back.d == d
        assert back.scale == want.scale
        for got_elem, want_elem in zip(back.elements, want.elements, strict=True):
            assert got_elem.label == want_elem.label
            for got, ref in zip(got_elem.vectors, want_elem.vectors, strict=True):
                # Bit patterns, so signed zeros must survive too.
                np.testing.assert_array_equal(
                    got.amps.view(np.uint64), ref.amps.view(np.uint64)
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
    text = "".join(cli._csv_blocks(batches))
    header = "trial,truth,outcome,p_success,p_inconclusive"
    want = header + "".join(_oracle_rows(*batch) for batch in batches)
    assert text == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_csv_rows_reject_non_finite(bad):
    p = np.array([0.25, bad, 0.5])
    batch = (0, np.array([1, 2, 3]), np.array([1, 0, 3]), p)
    blocks = cli._csv_blocks([batch])
    assert next(blocks) == "trial,truth,outcome,p_success,p_inconclusive"
    with pytest.raises(ValueError, match="non-finite"):
        next(blocks)


def test_simulate_threads_hint_does_not_change_output(capsys, monkeypatch):
    monkeypatch.delenv("QID_THREADS", raising=False)
    rc1, out1 = run_cli(capsys, "simulate", "--d", "2", "--trials", "9000", "--seed", "4")
    monkeypatch.setenv("QID_THREADS", "4")
    rc2, out2 = run_cli(capsys, "simulate", "--d", "2", "--trials", "9000", "--seed", "4")
    assert rc1 == rc2 == 0
    a = json.loads(out1)
    b = json.loads(out2)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_simulate_bad_threads_hint_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("QID_THREADS", "not-a-number")
    rc, out = run_cli(capsys, "simulate", "--d", "2", "--trials", "100", "--seed", "0")
    assert rc == 0
    assert json.loads(out)["trials"] == 100


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["build"],
        ["build", "--d", "9"],
        ["verify", "--d", "6"],
        ["simulate", "--d", "2", "--trials", "0"],
        ["simulate", "--d", "2", "--seed", "-1"],
        ["simulate", "--d", "2", "--seed", str(2**64)],
        ["optimize", "--d", "4", "--mode", "grid"],
        ["optimize", "--d", "2", "--resolution", "0.5"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "build" in out and "simulate" in out

import dataclasses
import json

import numpy as np
import pytest

from schoenberg import RealSchoenbergSequence, random_real_sequence
from schoenberg import selftest
from schoenberg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poisson_coeffs_match_fourier_oracle(capsys, tmp_path):
    out = tmp_path / "poisson.json"
    code, _, _ = run(
        capsys,
        "coeffs", "--family", "poisson", "--r", "0.5", "--d", "1", "--N", "20",
        "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["space"] == "real" and data["d"] == 1
    got = np.array(data["coeffs"])
    expected = np.array([1.0 / 3.0] + [(2.0 / 3.0) * 0.5**n for n in range(1, 21)])
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_walk_roundtrip_through_files(capsys, tmp_path):
    seq = random_real_sequence(2, 12, seed=42, pad=2)
    src = tmp_path / "seq.json"
    seq.save(src)
    mid = tmp_path / "up.json"
    back = tmp_path / "back.json"
    code, _, _ = run(capsys, "walk-up", "--in", str(src), "--out", str(mid))
    assert code == 0
    code, _, _ = run(
        capsys, "walk-down", "--in", str(mid), "--N-out", "14", "--out", str(back)
    )
    assert code == 0
    original = json.loads(src.read_text())["coeffs"]
    recovered = json.loads(back.read_text())["coeffs"]
    assert len(original) == len(recovered)
    assert max(abs(a - b) for a, b in zip(original, recovered)) <= 1e-13


def test_project_command(capsys, tmp_path):
    seq = random_real_sequence(5, 8, seed=7)
    src = tmp_path / "seq.json"
    seq.save(src)
    out = tmp_path / "proj.json"
    code, _, _ = run(capsys, "project", "--in", str(src), "--d-prime", "2", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["d"] == 2


def test_complex_walk_pipeline(capsys, tmp_path):
    from schoenberg import ComplexSchoenbergSequence, random_complex_sequence

    base = random_complex_sequence(2, 6, seed=5)
    mix = tmp_path / "mix.json"
    ComplexSchoenbergSequence(2, base.entries, 8).save(mix)
    up = tmp_path / "up.json"
    back = tmp_path / "back.json"
    assert run(capsys, "cwalk-up", "--in", str(mix), "--out", str(up))[0] == 0
    assert run(capsys, "cwalk-down", "--in", str(up), "--out", str(back))[0] == 0
    first = {tuple(e[:2]): e[2] for e in json.loads(mix.read_text())["entries"]}
    second = {tuple(e[:2]): e[2] for e in json.loads(back.read_text())["entries"]}
    keys = set(first) | set(second)
    assert max(abs(first.get(k, 0.0) - second.get(k, 0.0)) for k in keys) <= 1e-10


def test_ccoeffs_mixture_runs(capsys, tmp_path):
    out = tmp_path / "mix.json"
    code, _, _ = run(
        capsys,
        "ccoeffs", "--family", "disk-mixture", "--q", "3", "--M", "5", "--seed", "2",
        "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["space"] == "complex" and data["q"] == 3
    assert abs(sum(e[2] for e in data["entries"]) - 1.0) <= 1e-9


def test_spd_check_diagonal_monomial(capsys, tmp_path):
    seqfile = tmp_path / "zsq.json"
    code, _, _ = run(
        capsys,
        "ccoeffs", "--family", "disk-monomial", "--m", "1", "--n", "1",
        "--q", "2", "--M", "4", "--out", str(seqfile),
    )
    assert code == 0
    code, out, _ = run(capsys, "spd-check", "--in", str(seqfile), "--K", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pattern"]["diffs"] == [0]
    assert [2, 1] in report["verdicts"]["violations"]
    assert report["verdicts"]["summary"] == "violates-at-(2,1)"


def test_reconstruct_real(capsys, tmp_path):
    src = tmp_path / "seq.json"
    RealSchoenbergSequence(2, np.array([0.0, 1.0])).save(src)
    code, out, _ = run(capsys, "reconstruct", "--in", str(src), "--grid", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == pytest.approx(np.cos(payload["theta"]).tolist())


def test_reconstruct_complex(capsys, tmp_path):
    src = tmp_path / "seq.json"
    src.write_text(
        '{"space": "complex", "q": 2, "max_degree": 2, '
        '"entries": [[1, 0, 1.0]], "valid_mass": true}'
    )
    code, out, _ = run(capsys, "reconstruct", "--in", str(src), "--grid", "4")
    assert code == 0
    payload = json.loads(out)
    # the expansion of the single (1, 0) entry is the identity function
    for point, value in zip(payload["points"], payload["values"]):
        assert value == pytest.approx(point, abs=1e-12)


def test_under_resolved_coeffs_exits_2(capsys, tmp_path):
    out = tmp_path / "bad.json"
    code, _, err = run(
        capsys,
        "coeffs", "--family", "poisson", "--r", "0.9", "--d", "1", "--N", "40",
        "--nodes", "16", "--out", str(out),
    )
    assert code == 2
    assert "under-resolved" in err
    # the flagged output is still written for inspection
    assert out.exists()


def test_malformed_json_exits_1_and_names_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": "real", "d": 2, "truncation": 1, "valid_mass": true}')
    code, _, err = run(capsys, "walk-up", "--in", str(bad))
    assert code == 1
    assert "coeffs" in err


def test_walk_down_negative_n_out_exits_1(capsys, tmp_path):
    src = tmp_path / "seq.json"
    random_real_sequence(4, 8, seed=1).save(src)
    code, _, err = run(capsys, "walk-down", "--in", str(src), "--N-out", "-1")
    assert code == 1
    assert "n_out" in err


def test_validity_contradiction_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"space": "real", "d": 2, "truncation": 1, '
        '"coeffs": [0.9, -0.5], "valid_mass": true}'
    )
    code, _, err = run(capsys, "walk-up", "--in", str(bad))
    assert code == 2


def test_spd_check_rejects_invalid_mass(capsys, tmp_path):
    bad = tmp_path / "heavy.json"
    bad.write_text(
        '{"space": "complex", "q": 2, "max_degree": 2, '
        '"entries": [[0, 0, 2.0]], "valid_mass": false}'
    )
    code, _, err = run(capsys, "spd-check", "--in", str(bad))
    assert code == 2


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "walk-up", "--in", str(tmp_path / "nope.json"))
    assert code == 1


def test_selftest_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "selftest", "--seed", "7")
    code_b, out_b, _ = run(capsys, "selftest", "--seed", "7")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "checks passed" in out_a


def test_selftest_negative_seed_exits_1_and_names_seed(capsys):
    code, _, err = run(capsys, "selftest", "--seed", "-1")
    assert code == 1
    assert "seed" in err


def test_selftest_crashing_check_fails_and_exits_2(capsys, monkeypatch):
    def boom(rng, tol):
        raise RuntimeError("boom")

    broken = dataclasses.replace(selftest.CHECKS[0], body=boom)
    monkeypatch.setattr(selftest, "CHECKS", (broken, *selftest.CHECKS[1:]))
    code, out, _ = run(capsys, "selftest")
    assert code == 2
    assert f"[FAIL] {broken.name}: raised RuntimeError: boom" in out
    assert "14/15 checks passed" in out


def test_json_floats_roundtrip_exactly(capsys, tmp_path):
    seq = random_real_sequence(3, 9, seed=11)
    src = tmp_path / "seq.json"
    seq.save(src)
    dumped = json.loads(src.read_text())["coeffs"]
    assert dumped == [float(c) for c in seq.coeffs]

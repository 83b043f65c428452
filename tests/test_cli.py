import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schoenberg
from schoenberg import RealSchoenbergSequence, random_real_sequence
from schoenberg import selftest
from schoenberg.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, reported by argparse
        code = exc.code
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


def test_ccoeffs_nodes_sets_the_radial_count(capsys, tmp_path):
    # --nodes K is the library's nodes: the radial count, with the angles
    # those of the default rule, 4 M + 8
    out = tmp_path / "mix.json"
    for q, M, K in ((3, 6, 11), (5, 2, 1)):
        code, _, _ = run(
            capsys,
            "ccoeffs", "--family", "disk-mixture", "--q", str(q), "--M", str(M), "--seed", "2",
            "--nodes", str(K), "--out", str(out),
        )
        phi = schoenberg.make_disk("disk-mixture", m=None, n=None, q=q, max_degree=M, seed=2)
        want = schoenberg.compute_complex_coeffs(phi, q, M, nodes=K)
        assert code == 0
        assert json.loads(out.read_text()) == want.to_dict()


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
    # a rule made too small by --nodes, and the default rule at d = 51
    for i, argv in enumerate((
        ("--r", "0.9", "--d", "1", "--N", "40", "--nodes", "16"),
        ("--r", "0.5", "--d", "51", "--N", "64"),
    )):
        out = tmp_path / f"bad{i}.json"
        code, _, err = run(capsys, "coeffs", "--family", "poisson", *argv, "--out", str(out))
        assert code == 2, argv
        assert "under-resolved" in err
        # the flagged output is still written for inspection
        assert out.exists()


def test_malformed_json_exits_1_and_names_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": "real", "d": 2, "truncation": 1, "valid_mass": true}')
    code, _, err = run(capsys, "walk-up", "--in", str(bad))
    assert code == 1
    assert "coeffs" in err


def test_boolean_complex_entry_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"space": "complex", "q": 2, "max_degree": 2, '
        '"entries": [[true, 0, 0.5]], "valid_mass": true}'
    )
    code, _, err = run(capsys, "cwalk-up", "--in", str(bad))
    assert code == 1
    assert "entries" in err and "item 0" in err


@pytest.mark.parametrize("grid", ["-1", "0"])
def test_reconstruct_grid_below_one_exits_1(capsys, tmp_path, grid):
    src = tmp_path / "seq.json"
    RealSchoenbergSequence(2, np.array([0.0, 1.0])).save(src)
    code, out, err = run(capsys, "reconstruct", "--in", str(src), "--grid", grid)
    assert code == 1 and out == ""
    assert "--grid" in err


def test_walk_down_negative_n_out_exits_1(capsys, tmp_path):
    src = tmp_path / "seq.json"
    random_real_sequence(4, 8, seed=1).save(src)
    code, _, err = run(capsys, "walk-down", "--in", str(src), "--N-out", "-1")
    assert code == 1
    assert "--N-out" in err


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


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
def test_spd_check_refuses_bad_threshold(capsys, tmp_path, threshold):
    # |z|^2 at q = 2 has roundoff entries of about 1e-17 off its diagonal
    seqfile = tmp_path / "zz.json"
    run(capsys, "ccoeffs", "--family", "disk-monomial", "--m", "1", "--n", "1",
        "--q", "2", "--M", "4", "--out", str(seqfile))
    code, out, err = run(capsys, "spd-check", "--in", str(seqfile), "--K", "4",
                         "--threshold", threshold)
    assert code == 1
    assert out == "" and "threshold" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "walk-up", "--in", str(tmp_path / "nope.json"))
    assert code == 1


def test_selftest_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "selftest", "--seed", "7")
    code_b, out_b, _ = run(capsys, "selftest", "--seed", "7")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "checks passed" in out_a


def test_selftest_default_seed_is_the_registry_seed(capsys):
    code_a, out_a, _ = run(capsys, "selftest")
    code_b, out_b, _ = run(capsys, "selftest", "--seed", str(selftest.SEED))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_cli_import_leaves_the_selftest_registry_unloaded():
    script = (
        "import sys, schoenberg.cli\n"
        "assert 'schoenberg.selftest' not in sys.modules\n"
        "from schoenberg import run_selftest\n"
        "assert run_selftest.__module__ == 'schoenberg.selftest'\n"
    )
    src = str(Path(schoenberg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        schoenberg.no_such_name


def test_cli_import_loads_only_the_package_and_the_standard_library():
    # import cost is what a one-shot CLI process pays; numpy is imported first
    # because the package cannot avoid it, everything after must be cheap
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import schoenberg.cli\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(tops - {'schoenberg'} - set(sys.stdlib_module_names)))\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    src = str(Path(schoenberg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "False"], done.stdout


def test_selftest_negative_seed_exits_1_and_names_seed(capsys):
    code, _, err = run(capsys, "selftest", "--seed", "-1")
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_bad_seed_exits_1_naming_seed(capsys, tmp_path, seed):
    # the seed once reached numpy unchecked, whose error named no option
    out = tmp_path / "o.json"
    for argv in (
        ("coeffs", "--family", "gegenbauer-mixture", "--d", "3", "--N", "8"),
        ("ccoeffs", "--family", "disk-mixture", "--q", "3", "--M", "4"),
    ):
        code, stdout, err = run(capsys, *argv, "--seed", seed, "--out", str(out))
        assert code == 1, argv
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in err, argv
        assert stdout == "" and not out.exists(), argv


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


def test_zero_nodes_exits_1(capsys, tmp_path):
    # --nodes 0 is a usage error naming --nodes, and writes no output
    out = tmp_path / "o.json"
    for argv in (
        ("coeffs", "--family", "poisson", "--r", "0.5", "--d", "3", "--N", "8"),
        ("ccoeffs", "--family", "disk-monomial", "--m", "1", "--n", "1", "--q", "3", "--M", "4"),
    ):
        code, _, err = run(capsys, *argv, "--nodes", "0", "--out", str(out))
        assert code == 1, argv
        assert "error:" in err
        assert "--nodes" in err
        assert not out.exists()


def test_usage_errors_exit_1(capsys, tmp_path):
    # a usage error is a malformed option, not a validity failure (exit 2)
    src = tmp_path / "seq.json"
    random_real_sequence(4, 8, seed=1).save(src)
    out = tmp_path / "o.json"
    coeffs = ("coeffs", "--family", "poisson", "--r", "0.5")
    ccoeffs = ("ccoeffs", "--family", "disk-monomial", "--m", "1", "--n", "1")
    for argv in (
        ("spd-check", "--in", str(src), "--K", "2.5"),
        ("spd-check", "--in", str(src), "--K", "0"),
        ("spd-check", "--in", str(src), "--K", "-3"),
        ("project", "--in", str(src), "--d-prime", "2", "--nodes", "8"),
        ("project", "--in", str(src), "--d-prime", "0"),
        ("walk-down", "--in", str(src), "--N-out", "-1"),
        (*coeffs, "--d", "3", "--N", "-1"),
        (*coeffs, "--N", "8", "--d", "0"),
        (*ccoeffs, "--q", "3", "--M", "-1"),
        (*ccoeffs, "--M", "4", "--q", "1"),
        (*ccoeffs, "--q", "3", "--M", "4", "--nodes", "2.5"),
        (*ccoeffs, "--q", "3", "--M", "4", "--m", "-1"),
        (*ccoeffs, "--q", "3", "--M", "4", "--n", "-2"),
        ("spd-check", "--in", str(src), "--q-prime", "1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--out", str(out), *argv[1:]])
        assert exc.value.code == 1, argv
        err = capsys.readouterr().err
        assert "error:" in err
        assert argv[-2] in err, argv  # the message names the option
        assert not out.exists(), argv


def test_directory_paths_exit_1(capsys, tmp_path):
    # a path that cannot be read or written is an error by name, not a traceback
    for argv in (
        ("walk-up", "--in", str(tmp_path)),
        ("coeffs", "--family", "constant", "--d", "2", "--N", "3", "--out", str(tmp_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and str(tmp_path) in err, argv
        assert "Traceback" not in err and out == "", argv


def test_unwritable_out_exits_1_before_the_command_runs(capsys, tmp_path, monkeypatch):
    # a directory, or a file in a missing directory, is refused before the
    # transform runs, and nothing is created on the way
    def must_not_run(*args):
        pytest.fail("the transform ran")

    monkeypatch.setattr(schoenberg.cli, "compute_real_coeffs", must_not_run)
    for out in (tmp_path, tmp_path / "missing" / "c.json"):
        argv = ("coeffs", "--family", "constant", "--d", "2", "--N", "3", "--out", str(out))
        code, stdout, err = run(capsys, *argv)
        assert code == 1, out
        assert err.startswith("error: --out ") and str(out) in err, err
        assert "Traceback" not in err and stdout == "", out
    assert list(tmp_path.iterdir()) == []


# command -> (reads --in, writes --out)
FILE_OPTIONS = {
    "coeffs": (False, True),
    "ccoeffs": (False, True),
    "reconstruct": (True, True),
    "walk-up": (True, True),
    "walk-down": (True, True),
    "project": (True, True),
    "cwalk-up": (True, True),
    "cwalk-down": (True, True),
    "spd-check": (True, True),
    "selftest": (False, False),
}


@pytest.mark.parametrize("command", FILE_OPTIONS)
def test_help_lists_file_options(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    reads, writes = FILE_OPTIONS[command]
    assert ("--in IN" in out) == reads
    assert ("--out OUT" in out) == writes


def test_file_options_cover_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(FILE_OPTIONS) + "}" in out

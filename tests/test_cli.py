import json

import numpy as np
import pytest

from lpmphf import load_structure
from lpmphf.cli import main

from conftest import (basic_layout_patches, ef_header_patches, layout_patches,
                      mphf_header_patches)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen-spss", "-o", str(d / "in.fa"), "--length", "20000",
                 "-k", "31", "--seed", "3"]) == 0
    assert main(["build", "-i", str(d / "in.fa"), "-o", str(d / "f.lph"),
                 "-k", "31", "-m", "15", "--seed", "5",
                 "--variant", "partitioned"]) == 0
    return d


def test_gen_spss_deterministic(tmp_path, capsys):
    for name in ("a.fa", "b.fa"):
        code, _, _ = run(capsys, "gen-spss", "-o", str(tmp_path / name),
                         "--length", "5000", "-k", "21", "--seed", "9")
        assert code == 0
    assert (tmp_path / "a.fa").read_bytes() == (tmp_path / "b.fa").read_bytes()


def test_build_prints_report(workdir, capsys, tmp_path):
    code, out, _ = run(capsys, "build", "-i", str(workdir / "in.fa"),
                       "-o", str(tmp_path / "g.lph"), "-k", "31", "-m", "15",
                       "--variant", "basic")
    assert code == 0
    assert "bits/k-mer" in out and "epsilon" in out and "n (k-mers)" in out


def test_build_default_m(workdir, capsys, tmp_path):
    code, out, _ = run(capsys, "build", "-i", str(workdir / "in.fa"),
                       "-o", str(tmp_path / "h.lph"), "-k", "31")
    assert code == 0
    assert "k / m / w" in out


def test_build_deterministic_output_files(workdir, tmp_path, capsys):
    args = ["build", "-i", str(workdir / "in.fa"), "-k", "31", "-m", "15",
            "--seed", "7"]
    assert main(args + ["-o", str(tmp_path / "x.lph")]) == 0
    assert main(args + ["-o", str(tmp_path / "y.lph")]) == 0
    assert (tmp_path / "x.lph").read_bytes() == (tmp_path / "y.lph").read_bytes()


def test_query_streaming_is_permutation(workdir, capsys):
    code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                         "-q", str(workdir / "in.fa"))
    assert code == 0
    vals = np.array([int(v) for v in out.split()])
    assert np.array_equal(np.sort(vals), np.arange(vals.size))
    assert "mode=streaming" in err and "ns_per_kmer=" in err


def test_query_random_is_permutation(workdir, capsys):
    code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                         "-q", str(workdir / "in.fa"), "--random")
    assert code == 0
    vals = np.array([int(v) for v in out.split()])
    assert np.array_equal(np.sort(vals), np.arange(vals.size))
    assert "mode=random" in err


def test_query_empty_file(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.fa"
    empty.write_text("")
    code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                         "-q", str(empty))
    assert code == 0
    assert out == ""
    assert "kmers=0" in err


def test_query_output_file(workdir, tmp_path, capsys):
    out_path = tmp_path / "vals.txt"
    code, _, _ = run(capsys, "query", "-i", str(workdir / "f.lph"),
                     "-q", str(workdir / "in.fa"), "-o", str(out_path))
    assert code == 0
    vals = [int(v) for v in out_path.read_text().split()]
    assert sorted(vals) == list(range(len(vals)))


def test_query_streaming_faster_than_random(workdir, capsys):
    def ns_per_kmer(*extra):
        _, _, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                        "-q", str(workdir / "in.fa"), *extra)
        return float(err.split("ns_per_kmer=")[1].split()[0])

    stream_ns = min(ns_per_kmer() for _ in range(3))
    random_ns = min(ns_per_kmer("--random") for _ in range(3))
    assert stream_ns < random_ns


def test_query_k_mismatch(workdir, capsys):
    code, _, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                       "-q", str(workdir / "in.fa"), "-k", "33")
    assert code == 2
    assert "error" in err


def test_stats_formats(workdir, capsys):
    code, out, _ = run(capsys, "stats", "-i", str(workdir / "f.lph"),
                       "-s", str(workdir / "in.fa"), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["k"] == 31 and "p_lr_measured" in d
    code, out, _ = run(capsys, "stats", "-i", str(workdir / "f.lph"),
                       "-s", str(workdir / "in.fa"))
    assert code == 0
    assert "epsilon\t" in out


def test_theory_command(capsys):
    code, out, _ = run(capsys, "theory", "-k", "31", "-m", "21", "-b", "2.5")
    assert code == 0
    assert "density" in out
    probs_line = next(l for l in out.splitlines() if l.startswith("P_lr"))
    probs = [float(v) for v in probs_line.split()[4:]]
    for got, want in zip(probs, (0.297, 0.248, 0.248, 0.207)):
        assert abs(got - want) < 1.5e-3


def test_verify_passes(workdir, capsys):
    code, out, _ = run(capsys, "verify", "-i", str(workdir / "f.lph"),
                       "-s", str(workdir / "in.fa"))
    assert code == 0
    assert "PASS bijectivity" in out


def test_verify_detects_wrong_input(workdir, tmp_path, capsys):
    assert main(["gen-spss", "-o", str(tmp_path / "other.fa"),
                 "--length", "20000", "-k", "31", "--seed", "99"]) == 0
    code, out, _ = run(capsys, "verify", "-i", str(workdir / "f.lph"),
                       "-s", str(tmp_path / "other.fa"))
    assert code == 2
    assert "FAIL" in out


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        main(["build"])   # missing required flags
    assert e.value.code == 1


@pytest.mark.parametrize("bad", [["-n", "0"], ["-n", "-5"], ["--xi", "1.5"],
                                 ["--xi", "-1"], ["--xi", "nan"],
                                 ["-k", "0", "-m", "0"], ["-k", "31", "-m", "0"],
                                 ["-k", "100", "-m", "15"], ["-m", "40"],
                                 ["-b", "1"], ["-k", "10", "-m", "12"],
                                 ["-b", "inf"], ["--little-oh", "nan"],
                                 ["--little-oh", "-100"]])
def test_theory_rejects_n_below_1_and_xi_outside_unit_interval(bad, capsys):
    with pytest.raises(SystemExit) as e:
        main(["theory", "-k", "31", "-m", "15", *bad])
    assert e.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == "" and "error" in cap.err


def test_build_has_no_threads_option(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["build", "-i", str(workdir / "in.fa"), "-o", str(tmp_path / "t.lph"),
              "-k", "31", "--threads", "2"])
    assert e.value.code == 1


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "build", "-i", str(tmp_path / "nope.fa"),
                       "-o", str(tmp_path / "o.lph"), "-k", "31")
    assert code == 2
    assert "error" in err


def test_build_repeated_kmer_exit_2(tmp_path, capsys):
    seq = "".join(np.random.default_rng(8).choice(list("ACGT"), size=200))
    repeat = seq[50:81]
    fa = tmp_path / "dup.fa"
    fa.write_text(f">a\n{seq}\n>b\n{repeat}\n")
    code, _, err = run(capsys, "build", "-i", str(fa),
                       "-o", str(tmp_path / "o.lph"), "-k", "31")
    assert code == 2
    assert f"k-mer {repeat} " in err


def test_corrupt_structure_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.lph"
    blob = bytearray((workdir / "f.lph").read_bytes())
    blob[:4] = b"XXXX"
    bad.write_bytes(bytes(blob))
    code, _, err = run(capsys, "query", "-i", str(bad),
                       "-q", str(workdir / "in.fa"))
    assert code == 2
    assert "magic" in err


def test_query_on_patched_ef_header_exit_2(workdir, tmp_path, capsys):
    blob = (workdir / "f.lph").read_bytes()
    ef = load_structure(workdir / "f.lph").L_n
    bad = tmp_path / "bad.lph"
    for field, patched in ef_header_patches(blob, ef):
        bad.write_bytes(patched)
        code, _, err = run(capsys, "query", "-i", str(bad),
                           "-q", str(workdir / "in.fa"))
        assert code == 2, (field, err)


def test_query_on_patched_partitioned_layout_exit_2(workdir, tmp_path, capsys):
    blob = (workdir / "f.lph").read_bytes()
    f = load_structure(workdir / "f.lph")
    bad = tmp_path / "bad.lph"
    for field, patched in layout_patches(blob, f):
        bad.write_bytes(patched)
        code, _, err = run(capsys, "query", "-i", str(bad),
                           "-q", str(workdir / "in.fa"))
        assert code == 2, (field, err)
        assert "disagree" in err, (field, err)


def test_query_on_patched_basic_layout_exit_2(workdir, tmp_path, capsys):
    good = tmp_path / "basic.lph"
    assert main(["build", "-i", str(workdir / "in.fa"), "-o", str(good),
                 "-k", "31", "-m", "15", "--seed", "5",
                 "--variant", "basic"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.lph"
    for field, patched in basic_layout_patches(good.read_bytes(),
                                               load_structure(good)):
        bad.write_bytes(patched)
        code, _, err = run(capsys, "query", "-i", str(bad),
                           "-q", str(workdir / "in.fa"))
        assert code == 2, (field, err)
        assert "disagree" in err, (field, err)


def test_query_on_patched_mphf_level_header_exit_2(workdir, tmp_path, capsys):
    blob = (workdir / "f.lph").read_bytes()
    fm = load_structure(workdir / "f.lph").fm
    bad = tmp_path / "bad.lph"
    for field, patched in mphf_header_patches(blob, fm):
        bad.write_bytes(patched)
        code, _, err = run(capsys, "query", "-i", str(bad),
                           "-q", str(workdir / "in.fa"))
        assert code == 2, (field, err)
        assert "MPHF level" in err, (field, err)

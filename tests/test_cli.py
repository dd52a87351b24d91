import json

import numpy as np
import pytest

from lpmphf import load_spss, load_structure
from lpmphf.cli import main
from lpmphf.minimizers import default_minimizer_length

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
    """build prints the stats TSV of what it built, then build_seconds."""
    lph, spss = str(tmp_path / "g.lph"), str(workdir / "in.fa")
    for variant in ("basic", "partitioned"):
        code, out, _ = run(capsys, "build", "-i", spss, "-o", lph, "-k", "31",
                           "-m", "15", "--variant", variant)
        assert code == 0
        code, tsv, _ = run(capsys, "stats", "-i", lph, "-s", spss)
        assert code == 0 and f"variant\t{variant}\n" in tsv
        report, last = out.rsplit("\n", 2)[:2]
        assert report + "\n" == tsv
        name, seconds = last.split("\t")
        assert name == "build_seconds" and seconds == f"{float(seconds):.6g}"


def test_build_default_m(workdir, capsys, tmp_path):
    code, out, _ = run(capsys, "build", "-i", str(workdir / "in.fa"),
                       "-o", str(tmp_path / "h.lph"), "-k", "31")
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    total = load_spss(workdir / "in.fa", 31).total_length
    assert int(rows["m"]) == default_minimizer_length(31, total)
    assert int(rows["w"]) == 32 - int(rows["m"])


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


def test_query_random_values_on_a_multi_record_file(workdir, tmp_path, capsys):
    """--random looks up the k-mers of every record, in input order,
    shuffled by --seed."""
    s = load_spss(workdir / "in.fa", 31).strings[0]
    records = [s[:500], s[300:2000], s[1990:2021], s[5000:5100]]
    q = tmp_path / "multi.fa"
    q.write_text("".join(f">r{i}\n{r}\n" for i, r in enumerate(records)))
    f = load_structure(workdir / "f.lph")
    want = np.concatenate([f.stream_lookup(r) for r in records])
    want = want[np.random.default_rng(4).permutation(want.size)]
    code, out, _ = run(capsys, "query", "-i", str(workdir / "f.lph"),
                       "-q", str(q), "--random", "--seed", "4")
    assert code == 0
    assert np.array_equal(np.array(out.split(), dtype=np.int64), want)


def test_query_empty_file(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.fa"
    empty.write_text("")
    code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                         "-q", str(empty))
    assert code == 0
    assert out == ""
    assert "kmers=0" in err


def test_query_blank_only_file_is_zero_queries(workdir, tmp_path, capsys):
    blank = tmp_path / "blank.fa"
    blank.write_bytes(b"\n\r\n\n")
    for mode in ([], ["--random"]):
        code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                             "-q", str(blank), *mode)
        assert code == 0 and out == "" and "kmers=0" in err


@pytest.mark.parametrize("command", ["build", "query"])
def test_non_ascii_sequence_byte_is_an_invalid_base(command, workdir, tmp_path,
                                                     capsys):
    bad = tmp_path / "bad.fa"
    bad.write_bytes(b">\xc3\xa9\n" + b"ACGT" * 10 + b"\n>b\nACGT\xc3\xa9"
                    + b"ACGT" * 10 + b"\n")
    args = (["build", "-i", str(bad), "-o", str(tmp_path / "x.lph"), "-k", "31"]
            if command == "build" else
            ["query", "-i", str(workdir / "f.lph"), "-q", str(bad)])
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid base '\\xc3' at position 4 of record 1")
    assert not (tmp_path / "x.lph").exists()


def test_build_empty_input_is_malformed(tmp_path, capsys):
    empty = tmp_path / "empty.fa"
    empty.write_bytes(b"\n\n")
    code, out, err = run(capsys, "build", "-i", str(empty), "-o",
                         str(tmp_path / "x.lph"), "-k", "31")
    assert code == 2 and out == ""
    assert err == "error: an SPSS needs at least one string\n"


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


@pytest.mark.parametrize("mode", [[], ["--random"]])
def test_query_record_shorter_than_k_exit_2(mode, workdir, tmp_path, capsys):
    """A query record shorter than k is a QueryShorterThanK: exit 2."""
    short = tmp_path / "short.fa"
    short.write_text(">long\n" + "ACGT" * 10 + "\n>short\nACGTACGT\n")
    code, out, err = run(capsys, "query", "-i", str(workdir / "f.lph"),
                         "-q", str(short), *mode)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "length 8 < k=31" in err


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


def test_verify_on_foreign_input_with_empty_fallback_reports_every_check(tmp_path,
                                                                         capsys):
    for name, seed, length in (("in.fa", 1, 2000), ("same_n.fa", 2, 2000),
                               ("other_n.fa", 3, 5000)):
        assert main(["gen-spss", "-o", str(tmp_path / name), "--length",
                     str(length), "-k", "31", "--seed", str(seed)]) == 0
    assert main(["build", "-i", str(tmp_path / "in.fa"), "-o", str(tmp_path / "f.lph"),
                 "-k", "31", "-m", "12"]) == 0
    assert load_structure(tmp_path / "f.lph").fallback.n_keys == 0
    capsys.readouterr()
    for other in ("same_n.fa", "other_n.fa"):
        code, out, err = run(capsys, "verify", "-i", str(tmp_path / "f.lph"),
                             "-s", str(tmp_path / other))
        assert code == 2 and err == ""
        assert "FAIL bijectivity" in out and "epsilon" in out.splitlines()[-1]
        assert ("FAIL k-mer count" in out) == (other == "other_n.fa")


def test_stats_rejects_spss_of_another_kmer_count(workdir, tmp_path, capsys):
    assert main(["gen-spss", "-o", str(tmp_path / "other.fa"),
                 "--length", "5000", "-k", "31", "--seed", "99"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "stats", "-i", str(workdir / "f.lph"),
                         "-s", str(tmp_path / "other.fa"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "k-mers" in err


@pytest.mark.parametrize("variant", ["basic", "partitioned"])
@pytest.mark.parametrize("seeds", [(1, 2), (3, 4), (5, 6)])
def test_stats_rejects_other_kmers_of_the_same_count(seeds, variant, tmp_path,
                                                     capsys):
    for seed in seeds:
        assert main(["gen-spss", "-o", str(tmp_path / f"{seed}.fa"), "--length",
                     "2000", "-k", "31", "--seed", str(seed)]) == 0
    own, other = (str(tmp_path / f"{seed}.fa") for seed in seeds)
    lph = str(tmp_path / "f.lph")
    assert main(["build", "-i", own, "-o", lph, "-k", "31", "-m", "12",
                 "--variant", variant]) == 0
    capsys.readouterr()
    assert run(capsys, "stats", "-i", lph, "-s", own)[0] == 0
    code, out, err = run(capsys, "stats", "-i", lph, "-s", other)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not the structure's build input" in err


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


@pytest.mark.parametrize("command,bad", [
    ("build", ["-k", "64"]), ("build", ["-k", "0"]), ("build", ["-m", "0"]),
    ("build", ["-m", "40"]), ("build", ["-k", "13", "-m", "20"]),
    ("gen-spss", ["-k", "64"]), ("gen-spss", ["-k", "0"]),
    ("query", ["-k", "0"]), ("query", ["-k", "-5"]), ("query", ["-k", "64"])])
def test_build_and_gen_spss_reject_k_and_m_as_usage_errors(command, bad, workdir,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    argv = {"build": ["build", "-i", str(workdir / "in.fa"), "-o", str(out),
                      "-k", "31"],
            "gen-spss": ["gen-spss", "-o", str(out), "--length", "1000",
                         "-k", "21"],
            "query": ["query", "-i", str(workdir / "f.lph"),
                      "-q", str(workdir / "in.fa"), "-o", str(out)]}[command]
    with pytest.raises(SystemExit) as e:
        main(argv + bad)
    assert e.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == "" and "error" in cap.err
    assert not out.exists()


@pytest.mark.parametrize("length", ["-3", "5", "30"])
def test_gen_spss_length_below_k_is_a_usage_error(length, tmp_path, capsys):
    out = tmp_path / "out.fa"
    with pytest.raises(SystemExit) as e:
        main(["gen-spss", "-o", str(out), "--length", length, "-k", "31"])
    assert e.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == "" and "--length" in cap.err
    assert not out.exists()


def test_gen_spss_length_equal_to_k_writes_one_kmer(tmp_path, capsys):
    code, out, _ = run(capsys, "gen-spss", "-o", str(tmp_path / "one.fa"),
                       "--length", "31", "-k", "31")
    assert code == 0 and "n=1 " in out


def test_memory_error_exits_2_with_typed_message(tmp_path, capsys, monkeypatch):
    import lpmphf.cli

    def no_memory(length, k, seed=0):
        raise MemoryError(f"Unable to allocate {length} bytes")

    monkeypatch.setattr(lpmphf.cli, "generate_spss", no_memory)
    out = tmp_path / "big.fa"
    code, stdout, err = run(capsys, "gen-spss", "-o", str(out),
                            "--length", "3000000000", "-k", "31")
    assert code == 2 and stdout == ""
    assert err.startswith("error: out of memory") and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", ["build", "gen-spss", "query"])
def test_seed_outside_u64_is_a_usage_error(command, seed, workdir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = {"build": ["-i", str(workdir / "in.fa"), "-k", "31"],
            "gen-spss": ["--length", "1000", "-k", "21"],
            "query": ["-i", str(workdir / "f.lph"), "-q", str(workdir / "in.fa"),
                      "--random"]}[command]
    with pytest.raises(SystemExit) as e:
        main([command, "-o", str(out), *argv, "--seed", seed])
    assert e.value.code == 1
    cap = capsys.readouterr()
    assert cap.out == "" and "error" in cap.err
    assert not out.exists()


def test_build_largest_seed_saves_and_loads(workdir, tmp_path, capsys):
    out = tmp_path / "s.lph"
    code, _, _ = run(capsys, "build", "-i", str(workdir / "in.fa"), "-o", str(out),
                     "-k", "31", "-m", "15", "--seed", str(2 ** 64 - 1))
    assert code == 0
    assert load_structure(out).scheme.seed == 2 ** 64 - 1


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

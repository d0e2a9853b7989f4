import os
import random
import shlex
import signal
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import memlight
from memlight.cli import main
from memlight.fm import FmIndex

from conftest import DEMO_PATTERN, DEMO_TEXT


@pytest.fixture()
def demo_files(tmp_path):
    text = tmp_path / "text.txt"
    text.write_bytes(DEMO_TEXT)
    pattern = tmp_path / "pattern.txt"
    pattern.write_bytes(DEMO_PATTERN)
    prefix = str(tmp_path / "demo")
    assert main(["index", str(text), "--raw", "-o", prefix]) == 0
    return text, pattern, prefix


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [line.split("\t") for line in out.splitlines() if line]


def test_index_prints_dimensions(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(DEMO_TEXT)
    assert main(["index", str(text), "--raw", "-o", str(tmp_path / "x")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=12\tsigma=4")
    assert sorted(p.name for p in tmp_path.glob("x.*")) == ["x.fwd.memidx",
                                                           "x.rev.memidx"]


def test_index_reports_build_phases(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(DEMO_TEXT)
    assert main(["index", str(text), "--raw", "-o", str(tmp_path / "x")]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    for name in ("build_seconds", "sort_seconds", "fm_seconds", "write_seconds"):
        assert float(fields[name]) >= 0


def test_mems_threshold_four(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw",
                                    "-L", "4"])
    assert code == 0
    assert [r[1:4] for r in rows] == [["1", "5", "5"], ["5", "9", "5"],
                                      ["7", "12", "6"]]


def test_mems_all_includes_short(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw",
                                    "--all"])
    assert code == 0
    assert [r[1:4] for r in rows] == [["1", "5", "5"], ["4", "6", "3"],
                                      ["5", "9", "5"], ["7", "12", "6"]]


def test_mems_high_threshold_is_quietly_empty(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw",
                                    "-L", "13"])
    assert code == 0
    assert rows == []


def test_mems_locate_positions_are_one_based(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw",
                                    "-L", "4", "--locate"])
    assert code == 0
    # TACAT at text position 8, TAGAT at 4, GATTAG at 1 (all 1-based)
    assert [r[5:] for r in rows] == [["8"], ["4"], ["1"]]
    assert [r[4] for r in rows] == ["1", "1", "1"]


def test_mems_intervals_column(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw",
                                    "-L", "4", "--intervals"])
    assert code == 0
    for row in rows:
        lo, hi = map(int, row[5].split(":"))
        assert hi - lo == int(row[4])


def test_mems_splits_foreign_bytes(demo_files, tmp_path, capsys):
    _, _, prefix = demo_files
    mixed = tmp_path / "mixed.txt"
    mixed.write_bytes(b"NNTACATNNNGATTAGNN")
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(mixed), "--raw",
                                    "-L", "4"])
    assert code == 0
    assert [r[1:4] for r in rows] == [["3", "7", "5"], ["11", "16", "6"]]


def test_whole_text_round_trip(demo_files, tmp_path, capsys):
    text, _, prefix = demo_files
    same = tmp_path / "same.txt"
    same.write_bytes(DEMO_TEXT)
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(same), "--raw", "-L", "1"])
    assert code == 0
    assert rows == [[same.stem, "1", "12", "12", "1"]]


def test_lcs_row(demo_files, capsys):
    _, pattern, prefix = demo_files
    capsys.readouterr()
    code, rows = run_lines(capsys, ["lcs", prefix, str(pattern), "--raw"])
    assert code == 0
    assert rows == [[pattern.stem, "7", "12", "6", "1"]]


def test_lcs_across_foreign_bytes_prints_leftmost_maximum(demo_files, tmp_path,
                                                         capsys):
    _, _, prefix = demo_files
    split = tmp_path / "split.txt"
    split.write_bytes(b"ACANTAG")  # ACA and TAG each occur once in the text
    capsys.readouterr()
    code, rows = run_lines(capsys, ["lcs", prefix, str(split), "--raw"])
    assert code == 0
    assert rows == [["split", "1", "3", "3", "1"]]
    # each piece starts one above the best so far: GATTAG is strictly longer
    # than ACA and wins, TTAGAT only ties GATTAG and loses
    split.write_bytes(b"ACANTAGNGATTAGNTTAGAT")
    code, rows = run_lines(capsys, ["lcs", prefix, str(split), "--raw"])
    assert code == 0
    assert rows == [["split", "9", "14", "6", "1"]]


def test_lcs_threshold_never_carries_to_the_next_pattern(demo_files, tmp_path,
                                                       capsys):
    # GATTAG raises the threshold to 7 within its record; the next record
    # starts from 1 again, so its 3-long ACA still prints
    _, _, prefix = demo_files
    fasta = tmp_path / "p.fa"
    fasta.write_bytes(b">long\nGATTAG\n>short\nACA\n")
    capsys.readouterr()
    code, rows = run_lines(capsys, ["lcs", prefix, str(fasta)])
    assert code == 0
    assert rows == [["long", "1", "6", "6", "1"], ["short", "1", "3", "3", "1"]]


def test_lcs_disjoint_alphabet_prints_nothing(demo_files, tmp_path, capsys):
    _, _, prefix = demo_files
    odd = tmp_path / "odd.txt"
    odd.write_bytes(b"xyzxyz")
    capsys.readouterr()
    code, rows = run_lines(capsys, ["lcs", prefix, str(odd), "--raw"])
    assert code == 0
    assert rows == []


def test_fasta_pattern_ids(demo_files, tmp_path, capsys):
    _, _, prefix = demo_files
    fasta = tmp_path / "p.fa"
    fasta.write_bytes(b"; comment line\n>first desc here\nTACAT\n\n>second\nGATTAG\n")
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(fasta), "-L", "4"])
    assert code == 0
    assert [r[0] for r in rows] == ["first", "second"]


def test_fasta_concat_sep_indexes_both_records(tmp_path, capsys):
    fasta = tmp_path / "t.fa"
    fasta.write_bytes(b">a\nGATTAG\n>b\nATACAT\n")
    prefix = str(tmp_path / "two")
    assert main(["index", str(fasta), "--concat-sep", "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=13\tsigma=5")  # 12 bases plus one separator
    sub = tmp_path / "q.txt"
    sub.write_bytes(b"ATACAT")
    code, rows = run_lines(capsys, ["mems", prefix, str(sub), "--raw", "-L", "3"])
    assert code == 0
    assert rows == [["q", "1", "6", "6", "1"]]


def test_concat_sep_matches_never_cross_records(tmp_path, capsys):
    fasta = tmp_path / "t.fa"
    fasta.write_bytes(b">a\nGATTACA\n>b\nCATGAT\n")
    prefix = str(tmp_path / "two")
    assert main(["index", str(fasta), "--concat-sep", "-o", prefix]) == 0
    assert FmIndex.load(prefix + ".fwd.memidx").separators == b"\x00"
    pattern = tmp_path / "q.txt"
    pattern.write_bytes(b"ACA\x00CAT")  # the separator the index chose
    capsys.readouterr()
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw", "-L", "1"])
    assert code == 0
    assert [r[1:] for r in rows] == [["1", "3", "3", "1"], ["5", "7", "3", "1"]]
    code, rows = run_lines(capsys, ["lcs", prefix, str(pattern), "--raw"])
    assert code == 0
    assert [r[1:] for r in rows] == [["1", "3", "3", "1"]]


def test_index_without_concat_sep_stores_no_separators(demo_files, tmp_path, capsys):
    _, _, prefix = demo_files
    assert FmIndex.load(prefix + ".fwd.memidx").separators == b""
    # several records would need a separator: a usage error that writes
    # nothing, where the records after the first were once dropped unsaid
    fasta = tmp_path / "t.fa"
    fasta.write_bytes(b">a\nGATTACA\n>b\nCATGAT\n")
    capsys.readouterr()
    assert main(["index", str(fasta), "-o", str(tmp_path / "first")]) == 2
    err = capsys.readouterr().err
    assert "2 FASTA records" in err and "--concat-sep" in err
    assert not list(tmp_path.glob("first.*"))


def test_concat_sep_joins_hundreds_of_records_with_one_separator(tmp_path, capsys):
    # one separator byte however many records: sigma stays 5 on DNA
    rng = random.Random(11)
    records = ["".join(rng.choice("ACGT") for _ in range(60)) for _ in range(300)]
    fasta = tmp_path / "many.fa"
    fasta.write_text("".join(f">r{i}\n{seq}\n" for i, seq in enumerate(records)))
    prefix = str(tmp_path / "many")
    assert main(["index", str(fasta), "--concat-sep", "-o", prefix]) == 0
    assert capsys.readouterr().out.startswith(f"n={300 * 61 - 1}\tsigma=5")
    assert FmIndex.load(prefix + ".rev.memidx").separators == b"\x00"
    read = tmp_path / "read.fa"
    read.write_text(f">q\n{records[-1][7:47]}\n")
    where = 299 * 61 + 7 + 1  # 1-based, past 299 records and their separators
    code, rows = run_lines(capsys, ["mems", prefix, str(read), "-L", "30", "--locate"])
    assert code == 0
    assert rows == [["q", "1", "40", "40", "1", str(where)]]
    code, rows = run_lines(capsys, ["lcs", prefix, str(read)])
    assert code == 0
    assert rows == [["q", "1", "40", "40", "1"]]


def test_concat_sep_is_the_smallest_byte_no_record_uses(tmp_path, capsys):
    # a FASTA record can hold every byte value but the line breaks, so
    # records using all of those are still joined, by b"\n"
    usable = bytes(b for b in range(256) if b not in b"\n\r")
    fasta = tmp_path / "all.fa"
    fasta.write_bytes(b">a\nX" + usable + b"X\n>b\nXACGTX\n")
    prefix = str(tmp_path / "all")
    assert main(["index", str(fasta), "--concat-sep", "-o", prefix]) == 0
    assert capsys.readouterr().out.startswith(f"n={len(usable) + 2 + 1 + 6}\tsigma=255")
    assert FmIndex.load(prefix + ".fwd.memidx").separators == b"\n"
    pattern = tmp_path / "q.txt"
    pattern.write_bytes(b"ACGTX\nXACGT")  # the separator splits the pattern
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw", "-L", "5",
                                    "--locate"])
    assert code == 0
    assert rows == [["q", "1", "5", "5", "1", str(len(usable) + 5)],
                    ["q", "7", "11", "5", "1", str(len(usable) + 4)]]


def test_raw_with_concat_sep_is_a_usage_error(demo_files, tmp_path, capsys):
    # a raw text has no records to join
    text, _, _ = demo_files
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "--concat-sep", "-o", prefix]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("concat_sep", [[], ["--concat-sep"]])
def test_fasta_without_records_is_an_empty_text(tmp_path, capsys, concat_sep):
    fasta = tmp_path / "none.fa"
    fasta.write_bytes(b"; only a comment\n\n")
    assert main(["index", str(fasta), "-o", str(tmp_path / "x"), *concat_sep]) == 2
    assert "empty text" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_empty_text_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    assert main(["index", str(empty), "--raw", "-o", str(tmp_path / "x")]) == 2
    assert "empty text" in capsys.readouterr().err


def test_missing_index_is_a_usage_error(tmp_path, capsys):
    pattern = tmp_path / "p.txt"
    pattern.write_bytes(b"ACGT")
    assert main(["mems", str(tmp_path / "nothere"), str(pattern), "--raw"]) == 2


def test_all_with_min_length_is_a_usage_error(demo_files, capsys):
    # --all reports the short MEMs too, so an -L beside it would be ignored
    _, pattern, prefix = demo_files
    for flags in (["--all", "-L", "4"], ["-L", "4", "--all"]):
        assert main(["mems", prefix, str(pattern), "--raw", *flags]) == 2
        assert "not allowed with" in capsys.readouterr().err


def test_bad_min_length_is_a_usage_error(demo_files, tmp_path):
    _, pattern, prefix = demo_files
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "0"]) == 2
    foreign = tmp_path / "foreign.txt"
    foreign.write_bytes(b"xyz")  # no piece reaches a finder
    assert main(["mems", prefix, str(foreign), "--raw", "-L", "0"]) == 2


def test_corrupted_index_is_a_format_error(demo_files, tmp_path, capsys):
    _, pattern, prefix = demo_files
    path = prefix + ".fwd.memidx"
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(path, "wb").write(bytes(data))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert "checksum" in capsys.readouterr().err


def test_old_format_index_is_a_format_error(demo_files, capsys):
    _, pattern, prefix = demo_files
    path = prefix + ".fwd.memidx"
    data = open(path, "rb").read()
    for magic in ("MEMLIDX1", "MEMLIDX5", "MEMLIDX6", "MEMLIDX7"):
        open(path, "wb").write(magic.encode() + data[8:])
        assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
        err = capsys.readouterr().err
        assert magic in err and "rebuild" in err


def test_moved_sentinel_row_is_a_format_error(tmp_path, capsys):
    # a resealed file whose sentinel row names another row holding code 0
    text, pattern = tmp_path / "t.txt", tmp_path / "p.txt"
    text.write_bytes(DEMO_TEXT)
    pattern.write_bytes(DEMO_PATTERN)
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix, "--sample-rate", "4"]) == 0
    path = prefix + ".fwd.memidx"
    data = bytearray(open(path, "rb").read())
    sentinel_row_field = 8 + 3 * 8
    assert struct.unpack_from("<Q", data, sentinel_row_field) == (8,)
    struct.pack_into("<Q", data, sentinel_row_field, 10)
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    open(path, "wb").write(bytes(data))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert "row of text position 0" in capsys.readouterr().err


def test_plane_order_not_a_permutation_is_a_format_error(demo_files, capsys):
    # a resealed reverse file whose order names one code twice
    _, pattern, prefix = demo_files
    path = prefix + ".rev.memidx"
    data = bytearray(open(path, "rb").read())
    sigma = struct.unpack_from("<6Q", data, 8)[1]
    order = 8 + 6 * 8 + sigma  # after the magic, the header and the alphabet
    data[order + 1] = data[order]
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    open(path, "wb").write(bytes(data))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert "plane order is not a permutation" in capsys.readouterr().err


def test_forward_file_keeps_only_the_row_of_text_position_0(tmp_path):
    # only the reverse index locates; the forward one keeps the sample that
    # load checks against its sentinel row
    text = tmp_path / "t.txt"
    text.write_bytes(DEMO_TEXT)
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix, "--sample-rate", "4"]) == 0
    n = len(DEMO_TEXT)
    for suffix, rate in ((".fwd.memidx", n + 1), (".rev.memidx", 4)):
        data = open(prefix + suffix, "rb").read()
        _, sigma, s, sentinel_row, k, stored = struct.unpack_from("<6Q", data, 8)
        planes = (sigma - 1).bit_length() * ((n >> 3) + 1)  # ceil((n + 1) / 8) bytes each
        assert stored == planes  # too few to deflate
        # after the alphabet, the separators and the order; one byte each
        # below n = 256
        rows = data[8 + 6 * 8 + 2 * sigma + k + planes:-4]
        assert s == rate
        assert len(rows) == n // rate + 1
        assert rows[0] == sentinel_row


def test_index_pair_of_two_texts_is_a_format_error(tmp_path, capsys):
    text = tmp_path / "t.txt"
    for name, raw in (("a", b"GATTAGATACAT"), ("b", b"GATTAGATAC")):
        text.write_bytes(raw)
        assert main(["index", str(text), "--raw", "-o", str(tmp_path / name)]) == 0
    (tmp_path / "a.rev.memidx").write_bytes((tmp_path / "b.rev.memidx").read_bytes())
    capsys.readouterr()
    assert main(["mems", str(tmp_path / "a"), str(text), "--raw", "-L", "2"]) == 3
    assert "describe different texts" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, message", [
    ("rows", b"the forward and reverse indexes disagree"),
    ("order", b"forward and reverse indexes describe different texts")])
@pytest.mark.parametrize("command", [["mems", "-L", "4"], ["mems", "--all"], ["lcs"]])
def test_disagreeing_index_pair_is_a_format_error(tmp_path, command, tamper, message):
    # two swapped rows of the forward BWT pass every load check, so only the
    # scan can see that the pair describes two texts; two swapped order
    # bytes also load, but give two symbols each other's counts, so the
    # pair's C arrays differ before any scan; a child process with a
    # timeout, because the scan once looped forever here
    text, pattern = tmp_path / "t.txt", tmp_path / "p.txt"
    text.write_bytes(DEMO_TEXT)
    pattern.write_bytes(DEMO_PATTERN)
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix, "--sample-rate", "4"]) == 0
    path = prefix + ".fwd.memidx"
    data = bytearray(open(path, "rb").read())
    order = 8 + 6 * 8 + 4  # after the magic, the header and the alphabet
    planes = order + 4
    if tamper == "order":
        data[order], data[order + 1] = data[order + 1], data[order]
    for plane in (planes, planes + (len(DEMO_TEXT) >> 3) + 1):
        # rows 0 and 3 are bits 0 and 3 of each plane's first byte; two
        # bits swap by flipping both when they differ
        if tamper == "rows" and (data[plane] ^ data[plane] >> 3) & 1:
            data[plane] ^= 0b1001
    data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
    open(path, "wb").write(bytes(data))
    src = Path(memlight.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "memlight.cli", command[0], prefix, str(pattern),
         "--raw", *command[1:]],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=30)
    assert done.returncode == 3
    assert message in done.stderr


def test_closed_stdout_ends_a_query_quietly(tmp_path):
    # the rows fill more than the pipe's buffer, so the child is still
    # writing when its reader stops after one line, as `| head -1` does
    rng = random.Random(3)
    text, patterns = tmp_path / "t.txt", tmp_path / "p.fa"
    text.write_text("".join(rng.choice("ACGT") for _ in range(2000)))
    patterns.write_text("".join(
        f">p{i}\n" + "".join(rng.choice("ACGT") for _ in range(50)) + "\n" for i in range(400)))
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix]) == 0
    src = Path(memlight.__file__).resolve().parents[1]
    with subprocess.Popen(
            [sys.executable, "-m", "memlight.cli", "mems", prefix, str(patterns), "--all",
             "--locate"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src))) as child:
        assert child.stdout.readline().startswith(b"p0\t")
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=30)
    assert err == b""
    assert code in (0, -signal.SIGPIPE)


def test_sample_rate_past_63_bits_is_a_usage_error(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_bytes(DEMO_TEXT)
    index = ["index", str(text), "--raw", "-o", str(tmp_path / "x"), "--sample-rate"]
    assert main(index + [str(2**63 - 1)]) == 0
    capsys.readouterr()
    assert main(index + [str(2**63)]) == 2
    assert "sample rate must be at least 1 and below 2**63" in capsys.readouterr().err
    assert main(["experiment", "--n", "100", "--m", "10", "--sample-rate", str(10**20)]) == 2
    assert "sample rate" in capsys.readouterr().err


def test_query_children_launcher_runs_both_trees(demo_files):
    text, pattern, prefix = demo_files
    src = str(Path(memlight.__file__).resolve().parents[1])
    script = Path(__file__).resolve().parents[1] / "scripts" / "query_children.py"
    # {tree} names each tree's own index: only prefix-1 and prefix-2 exist,
    # each built by the setup command under its own tree
    setup = shlex.join(["index", str(text), "--raw", "-o", prefix + "-{tree}",
                        "--sample-rate", "3"])
    commands = [shlex.join(["mems", prefix, str(pattern), "--raw", "-L", "4"]),
                shlex.join(["lcs", prefix, str(pattern), "--raw"]),
                shlex.join(["mems", prefix + "-{tree}", str(pattern), "--raw", "-L", "4",
                            "--locate"])]
    done = subprocess.run(
        [sys.executable, str(script), src, src, "--rounds", "1", "--setup", setup,
         *(arg for command in commands for arg in ("-c", command))],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split("\t") for line in done.stdout.splitlines()]
    setups = [row for row in rows if row[0] == "(setup) " + setup]
    assert [row[1] for row in setups] == [src, src]
    assert all(float(row[2]) > 0 and float(row[4]) > 0 for row in setups)
    for tree in ("1", "2"):
        assert os.path.exists(f"{prefix}-{tree}.rev.memidx")
    for command in commands:
        mine = [row for row in rows if row[0] == command]
        assert [row[-1] for row in mine] == ["same", "same"]


def test_unknown_arguments_exit_two():
    assert main(["mems", "--bogus-flag"]) == 2


def test_experiment_command_is_deterministic(tmp_path, capsys):
    argv = ["experiment", "--n", "1500", "--m", "250", "--L", "10",
            "--seed", "5", "--sample-rate", "8"]
    assert main(argv + ["--output", str(tmp_path / "a.tsv")]) == 0
    assert main(argv + ["--output", str(tmp_path / "b.tsv")]) == 0
    a = (tmp_path / "a.tsv").read_bytes()
    assert a == (tmp_path / "b.tsv").read_bytes()
    assert a.startswith(b"# memlight experiment report")


def test_experiment_rejects_pattern_longer_than_text(capsys):
    assert main(["experiment", "--n", "100", "--m", "200"]) == 2

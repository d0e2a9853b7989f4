import contextlib
import inspect
import io
import os
import random
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memlight
from memlight import Pattern, Text, brute_force_mems, cli
from memlight.cli import main
from memlight.fm import FmIndex, index_paths

from conftest import (DEMO_PATTERN, DEMO_TEXT, index_file, payload_at, payload_of, plane_size,
                      reseal, reseal_payload, unpack_rows)


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


# per file, the bytes before the payload (the magic; n, sigma, s and the
# separator count; the alphabet, the separators and the order) and the
# inflated payload (planes 0 and 1 as one stream of 2-bit fields, then
# plane 2 at sigma = 5; the sample rows, grouped by byte position), in
# hex; the DEFLATE stream itself is not pinned, since its bytes depend on
# the zlib build
GOLDEN_INDEX_FILES = {
    "demo": {
        ".fwd.memidx": ("4d454d4c49445841"
                        "0c00000000000000" "0400000000000000" "0d00000000000000" "0000000000000000"
                        "41434754" "" "00030201",
                        "d50a4000" "08000000"),
        ".rev.memidx": ("4d454d4c49445841"
                        "0c00000000000000" "0400000000000000" "3800000000000000" "0000000000000000"
                        "41434754" "" "00030201",
                        "560b1000" "09000000"),
    },
    "two": {
        ".fwd.memidx": ("4d454d4c49445841"
                        "1900000000000000" "0500000000000000" "1a00000000000000" "0100000000000000"
                        "0041434754" "00" "0104030200",
                        "56d5ae0000140000" "00001000" "11000000"),
        ".rev.memidx": ("4d454d4c49445841"
                        "1900000000000000" "0500000000000000" "0400000000000000" "0100000000000000"
                        "0041434754" "00" "0104030200",
                        "56d5ae0000140000" "00001000"
                        "11050201090a0e" "00000000000000" "00000000000000" "00000000000000"),
    },
}


def test_index_files_hold_the_golden_content(tmp_path):
    # the demo text, and two records joined by a separator at sample rate 4
    (tmp_path / "demo.txt").write_bytes(DEMO_TEXT + b"\n")
    (tmp_path / "two.fa").write_bytes(b">r1\n" + DEMO_TEXT + b"\n>r2\n" + DEMO_PATTERN + b"\n")
    assert main(["index", "--raw", str(tmp_path / "demo.txt"), "-o", str(tmp_path / "demo")]) == 0
    assert main(["index", "--concat-sep", "--sample-rate", "4", str(tmp_path / "two.fa"),
                 "-o", str(tmp_path / "two")]) == 0
    for prefix, files in GOLDEN_INDEX_FILES.items():
        for suffix, (head, payload) in files.items():
            data = (tmp_path / (prefix + suffix)).read_bytes()
            assert data[: payload_at(data)].hex() == head
            assert payload_of(data).hex() == payload


def test_index_refuses_a_text_of_2_31_symbols(tmp_path, monkeypatch, capsys):
    # a broadcast view stands for the text read: 2**31 bytes long, one
    # stored, so the refusal must come before anything reads or copies it
    huge = np.broadcast_to(np.uint8(ord("A")), 2**31)
    monkeypatch.setattr(cli, "read_text", lambda *args: (huge, b""))
    text = tmp_path / "t.txt"
    text.write_bytes(b"A")
    assert main(["index", str(text), "--raw", "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == ("memlight: a text of 2147483648 symbols is too long: "
                                       "memlight indexes fewer than 2**31\n")
    assert not list(tmp_path.glob("x.*"))


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
    # a FASTA record can hold every byte value but the line breaks; reading
    # drops its other whitespace and folds its lower case, so records using
    # all the rest are joined by the smallest whitespace byte, b"\t"
    usable = bytes(b for b in range(256) if b not in b"\n\r")
    kept = bytes(b for b in usable if b not in b" \t\x0b\x0c")
    fasta = tmp_path / "all.fa"
    fasta.write_bytes(b">a\nX" + usable + b"X\n>b\nXACGTX\n")
    prefix = str(tmp_path / "all")
    assert main(["index", str(fasta), "--concat-sep", "-o", prefix]) == 0
    sigma = len(kept) - 26 + 1  # a-z fold onto A-Z; the separator
    assert capsys.readouterr().out.startswith(f"n={len(kept) + 2 + 1 + 6}\tsigma={sigma}")
    assert FmIndex.load(prefix + ".fwd.memidx").separators == b"\t"
    pattern = tmp_path / "q.txt"
    pattern.write_bytes(b"ACGTX\tXACGT")  # the separator splits the pattern
    code, rows = run_lines(capsys, ["mems", prefix, str(pattern), "--raw", "-L", "5",
                                    "--locate"])
    assert code == 0
    assert rows == [["q", "1", "5", "5", "1", str(len(kept) + 5)],
                    ["q", "7", "11", "5", "1", str(len(kept) + 4)]]


def test_fasta_sequence_drops_whitespace_inside_a_line(tmp_path, capsys):
    fasta = tmp_path / "t.fa"
    fasta.write_bytes(b">a\nAC GT\tAC\n")
    assert main(["index", str(fasta), "-o", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().out.startswith("n=6\tsigma=4")


def test_fasta_text_and_patterns_fold_lower_case(tmp_path, capsys):
    # a soft-masked text and a read in the other case match in full; --raw
    # keeps the bytes as they are
    fasta, read = tmp_path / "t.fa", tmp_path / "q.fa"
    fasta.write_bytes(b">a\nacgtACGT\n")
    read.write_bytes(b">q\nACGTacgt\n")
    prefix = str(tmp_path / "x")
    assert main(["index", str(fasta), "-o", prefix]) == 0
    assert capsys.readouterr().out.startswith("n=8\tsigma=4")
    code, rows = run_lines(capsys, ["mems", prefix, str(read), "--all"])
    assert code == 0
    assert rows == [["q", "1", "8", "8", "1"]]
    raw = tmp_path / "t.txt"
    raw.write_bytes(b"acgtACGT")
    assert main(["index", str(raw), "--raw", "-o", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().out.startswith("n=8\tsigma=8")


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


def test_mems_without_l_prints_as_l_one_and_as_all(demo_files, tmp_path, capsys):
    # at L = 1 mems runs the full scan, whatever the flags
    _, pattern, prefix = demo_files
    fasta, reads = tmp_path / "t.fa", tmp_path / "q.fa"
    fasta.write_bytes(b">a\nGATTACAGATTA\n>b\nCATTAGATTACA\n")
    reads.write_bytes(b">q\nTTACACATTAGNNGATTACAGAT\n>r\nACAGATTA\n")
    assert main(["index", str(fasta), "--concat-sep", "-o", str(tmp_path / "x")]) == 0
    for query in ([prefix, str(pattern), "--raw"], [str(tmp_path / "x"), str(reads)]):
        capsys.readouterr()
        outs = []
        for flags in ([], ["-L", "1"], ["--all"]):
            assert main(["mems", *query, *flags, "--intervals", "--locate"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].count("\n") >= 4
        assert outs[1] == outs[0] and outs[2] == outs[0]
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4", "--all"]) == 2


@pytest.mark.parametrize("command", [["mems", "-L", "3"], ["lcs"]])
def test_fasta_patterns_against_a_lower_case_index_are_a_usage_error(tmp_path, capsys, command):
    # FASTA reading folds a-z to A-Z, so against a raw index of lower-case
    # text every FASTA pattern byte would be foreign and no row printed
    (tmp_path / "low.raw").write_bytes(b"acgtacgtttgca\n")
    (tmp_path / "low.fa").write_bytes(b">p\nacgtacg\n")
    (tmp_path / "lowp.raw").write_bytes(b"acgtacg\n")
    prefix = str(tmp_path / "low")
    assert main(["index", str(tmp_path / "low.raw"), "--raw", "-o", prefix]) == 0
    capsys.readouterr()
    assert main([command[0], prefix, str(tmp_path / "low.fa"), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--raw" in captured.err and "lower-case" in captured.err
    # the same pattern read with --raw matches byte for byte
    assert main([command[0], prefix, str(tmp_path / "lowp.raw"), "--raw", *command[1:]]) == 0
    assert capsys.readouterr().out == "lowp\t1\t7\t7\t1\n"
    # a FASTA-built index is folded too, so FASTA patterns match it
    (tmp_path / "low.fa.txt").write_bytes(b">t\nacgtacgtttgca\n")
    assert main(["index", str(tmp_path / "low.fa.txt"), "-o", prefix + "fa"]) == 0
    capsys.readouterr()
    assert main([command[0], prefix + "fa", str(tmp_path / "low.fa"), *command[1:]]) == 0
    assert capsys.readouterr().out == "p\t1\t7\t7\t1\n"


def test_bad_min_length_is_a_usage_error(demo_files, tmp_path, capsys):
    _, pattern, prefix = demo_files
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "abc"]) == 2
    assert ("argument -L/--L/--min-mem-length: invalid int value: 'abc'"
            in capsys.readouterr().err)
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "0"]) == 2
    foreign = tmp_path / "foreign.txt"
    foreign.write_bytes(b"xyz")  # no piece reaches a finder
    assert main(["mems", prefix, str(foreign), "--raw", "-L", "0"]) == 2
    empty = tmp_path / "empty.fa"
    empty.write_bytes(b"")  # no record reaches find_in_raw, which checks L too
    assert main(["mems", prefix, str(empty), "-L", "0"]) == 2


def test_corrupted_index_is_a_format_error(demo_files, tmp_path, capsys):
    _, pattern, prefix = demo_files
    path = prefix + ".fwd.memidx"
    data = bytearray(Path(path).read_bytes())
    data[len(data) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(data))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert "checksum" in capsys.readouterr().err


def test_old_format_index_is_a_format_error(demo_files, capsys):
    _, pattern, prefix = demo_files
    path = Path(prefix + ".fwd.memidx")
    data = path.read_bytes()
    for magic in (b"MEMLIDX1", b"MEMLIDX5", b"MEMLIDX7", b"MEMLIDX8", b"MEMLIDX9"):
        path.write_bytes(magic + data[8:])
        assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
        err = capsys.readouterr().err
        assert magic.decode() in err and "rebuild" in err
    # a higher eighth byte is a newer format
    for magic, name in ((b"MEMLIDXB", "MEMLIDXB"), (b"MEMLIDX\xff", "MEMLIDX\\xff")):
        path.write_bytes(magic + data[8:])
        assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
        err = capsys.readouterr().err
        assert f"newer {name} format" in err and "rebuild" not in err


def test_moved_sentinel_row_is_a_format_error(tmp_path, capsys):
    # a resealed forward file whose first sample row, the sentinel's, names
    # another row: row 3 holds a nonzero number, which load rejects; row 10
    # also holds 0, so the file loads as the index of a rotated text, and
    # the scan finds that the pair disagrees
    text, pattern = tmp_path / "t.txt", tmp_path / "p.txt"
    text.write_bytes(DEMO_TEXT)
    pattern.write_bytes(DEMO_PATTERN)
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix, "--sample-rate", "4"]) == 0
    path = Path(prefix + ".fwd.memidx")
    data = path.read_bytes()
    for row, message in ((3, "the sentinel row must hold the filler byte 0"),
                         (10, "the forward and reverse indexes disagree")):
        def edit(planes, rows):
            assert rows == [8]  # the forward file keeps only the sentinel's row
            rows[0] = row
        path.write_bytes(reseal_payload(data, edit))
        capsys.readouterr()
        assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
        assert message in capsys.readouterr().err


def test_plane_order_not_a_permutation_is_a_format_error(demo_files, capsys):
    # a resealed reverse file whose order names one code twice
    _, pattern, prefix = demo_files
    path = Path(prefix + ".rev.memidx")
    data = bytearray(path.read_bytes())
    sigma = struct.unpack_from("<4Q", data, 8)[1]
    order = 8 + 4 * 8 + sigma  # after the magic, the header and the alphabet
    data[order + 1] = data[order]
    path.write_bytes(reseal(bytes(data)))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert "plane order is not a permutation" in capsys.readouterr().err


@pytest.mark.parametrize("separators", [b"TA", b"AZ"])
def test_bad_separators_are_a_format_error(demo_files, capsys, separators):
    # both files of the pair rewritten with separators out of order, or
    # with a byte outside the alphabet ACGT
    _, pattern, prefix = demo_files
    for path in index_paths(prefix):
        index = FmIndex.load(path)
        path.write_bytes(index_file(index.alphabet, index.n, index._planes, index._order,
                                    index.s, index._sample_rows, separators=separators))
    assert main(["mems", prefix, str(pattern), "--raw", "-L", "4"]) == 3
    assert ("record separators must be distinct alphabet bytes, ascending"
            in capsys.readouterr().err)


def test_forward_file_keeps_only_the_row_of_text_position_0(tmp_path):
    # only the reverse index locates; the forward one keeps one sample, the
    # row of text position 0, which is its sentinel row
    text = tmp_path / "t.txt"
    text.write_bytes(DEMO_TEXT)
    prefix = str(tmp_path / "x")
    assert main(["index", str(text), "--raw", "-o", prefix, "--sample-rate", "4"]) == 0
    n = len(DEMO_TEXT)
    for suffix, rate, raw in ((".fwd.memidx", n + 1, DEMO_TEXT),
                              (".rev.memidx", 4, DEMO_TEXT[::-1])):
        data = Path(prefix + suffix).read_bytes()
        _, sigma, s, _ = struct.unpack_from("<4Q", data, 8)
        rows = unpack_rows(payload_of(data)[plane_size(n, sigma):])
        assert s == rate
        assert len(rows) == n // rate + 1
        # the row of text position 0 among the suffixes in sorted order
        assert rows[0] == sorted(range(n + 1), key=lambda i: raw[i:]).index(0)


def test_index_pair_of_two_texts_is_a_format_error(tmp_path, capsys):
    text = tmp_path / "t.txt"
    for name, raw in (("a", b"GATTAGATACAT"), ("b", b"GATTAGATAC")):
        text.write_bytes(raw)
        assert main(["index", str(text), "--raw", "-o", str(tmp_path / name)]) == 0
    (tmp_path / "a.rev.memidx").write_bytes((tmp_path / "b.rev.memidx").read_bytes())
    capsys.readouterr()
    assert main(["mems", str(tmp_path / "a"), str(text), "--raw", "-L", "2"]) == 3
    assert "describe different texts" in capsys.readouterr().err
    # the pair is checked at load, so a pattern of no piece is refused too
    foreign = tmp_path / "foreign.txt"
    foreign.write_bytes(b"xyz")
    for command in (["mems", "-L", "2"], ["mems", "--all", "--locate"], ["lcs"]):
        assert main([command[0], str(tmp_path / "a"), str(foreign), "--raw",
                     *command[1:]]) == 3
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
    path = Path(prefix + ".fwd.memidx")
    data = bytearray(path.read_bytes())
    if tamper == "order":
        order = 8 + 4 * 8 + 4  # after the magic, the header and the alphabet
        data[order], data[order + 1] = data[order + 1], data[order]
        data = reseal(bytes(data))
    else:
        def edit(planes, rows):
            # rows 0 and 3 are bits 0 and 3 of each plane's first byte; two
            # bits swap by flipping both when they differ
            for plane in (0, (len(DEMO_TEXT) >> 3) + 1):
                if (planes[plane] ^ planes[plane] >> 3) & 1:
                    planes[plane] ^= 0b1001
        data = reseal_payload(bytes(data), edit)
    path.write_bytes(data)
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


def test_one_default_sample_rate():
    from memlight import fm
    index = cli.build_parser().parse_args(["index", "t.txt", "-o", "x"])
    defaults = {inspect.signature(build).parameters["sample_rate"].default
                for build in (fm.build_fm, fm.write_index_pair)}
    defaults.add(index.sample_rate)
    assert defaults == {fm.SAMPLE_RATE}


QUERY_CHILDREN = Path(__file__).resolve().parents[1] / "scripts" / "query_children.py"


def run_query_children(*args, first=None):
    """Run the launcher for one round with this src as the second tree and,
    unless another is given, the first; its exit code, its tab-split rows
    and its stderr."""
    src = str(Path(memlight.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(QUERY_CHILDREN), first or src, src,
                           "--rounds", "1", *args], capture_output=True, text=True, timeout=120)
    return done.returncode, [line.split("\t") for line in done.stdout.splitlines()], done.stderr


def commands_of(*commands):
    return [arg for command in commands for arg in ("-c", command)]


def in_process_summary(rows, command):
    """The end of the in-process summary line of a command."""
    line, = (row[0] for row in rows if row[0].startswith(f"# (in process) {command}: "))
    return line.split("; MEMs per pass: ")[1]


def test_query_children_imports_nothing_heavy_before_its_children():
    # a child's ru_maxrss starts at the launcher's size, so the launcher
    # must not load hashlib (megabytes with OpenSSL) or statistics before it
    # spawns; only what a bare interpreter loads anyway may be loaded
    show = "import sys\n{}\nprint(' '.join(sys.modules))"
    loaded = [set(subprocess.run(
        [sys.executable, "-c", show.format(code)], capture_output=True, text=True,
        check=True, cwd=QUERY_CHILDREN.parent).stdout.split())
        for code in ("pass", "import query_children")]
    assert "query_children" in loaded[1]
    assert not {"hashlib", "statistics"} & (loaded[1] - loaded[0])


def test_query_children_launcher_runs_both_trees(demo_files):
    text, pattern, prefix = demo_files
    src = str(Path(memlight.__file__).resolve().parents[1])
    # {tree} names each tree's own index: only prefix-1 and prefix-2 exist,
    # each built by the setup command under its own tree
    setup = shlex.join(["index", str(text), "--raw", "-o", prefix + "-{tree}",
                        "--sample-rate", "3"])
    queries = [shlex.join(["mems", prefix, str(pattern), "--raw", "-L", "4"]),
               shlex.join(["lcs", prefix, str(pattern), "--raw"]),
               shlex.join(["mems", prefix + "-{tree}", str(pattern), "--raw", "-L", "4",
                           "--locate"])]
    index = shlex.join(["index", str(text), "--raw", "-o", prefix + "-again{tree}"])
    code, rows, err = run_query_children("--setup", setup, *commands_of(*queries, index))
    assert code == 0, err
    setups = [row for row in rows if row[0] == "(setup) " + setup]
    assert [row[1] for row in setups] == [src, src]
    assert all(float(row[2]) > 0 and float(row[4]) > 0 for row in setups)
    for tree in ("1", "2"):
        assert os.path.exists(f"{prefix}-{tree}.rev.memidx")
    for command in queries + [index]:
        mine = [row for row in rows if row[0] == command]
        assert [row[-1] for row in mine] == ["same", "same"]
    # each query is timed again in process, where both trees take the same
    # steps; index is timed as a child only
    for command, mems in zip(queries, ("3", "1", "3")):
        mine = [row for row in rows if row[0] == "(in process) " + command]
        assert [row[1] for row in mine] == [src, src]
        assert mine[0][-1] == mine[1][-1] and int(mine[0][-1]) > 0
        assert in_process_summary(rows, command) == f"{mems}; rows: same"
    assert not [row for row in rows if row[0] == "(in process) " + index]


@pytest.mark.parametrize("fasta", [False, True], ids=["raw", "fasta"])
def test_query_children_times_queries_in_process(demo_files, tmp_path, fasta):
    text, pattern, prefix = demo_files
    if fasta:
        pattern = tmp_path / "patterns.fa"
        # the first record reads as the demo pattern only when folded and
        # joined, as `mems` reads FASTA
        pattern.write_bytes(b">p1\n" + DEMO_PATTERN[:5].lower() + b"\n" + DEMO_PATTERN[5:]
                            + b"\n>p2 second\n" + DEMO_TEXT + b"\n")
    command = shlex.join(["mems", prefix, str(pattern), *([] if fasta else ["--raw"]),
                          "-L", "4", "--locate"])
    code, rows, err = run_query_children(*commands_of(command))
    assert code == 0, err
    # the demo pattern has three MEMs of length 4 or more; the text has one,
    # itself
    assert in_process_summary(rows, command) == f"{4 if fasta else 3}; rows: same"


def test_query_children_exits_1_when_the_rows_in_process_differ(tmp_path):
    # the text with one more symbol at its end has the same MEMs and
    # occurrence counts, so the children print the same rows, but other
    # suffix-order intervals
    for tree, text in ((1, DEMO_TEXT), (2, DEMO_TEXT + b"C")):
        (tmp_path / f"text{tree}.txt").write_bytes(text)
    pattern = tmp_path / "pattern.txt"
    pattern.write_bytes(DEMO_PATTERN)
    prefix = str(tmp_path / "idx{tree}")
    command = shlex.join(["mems", prefix, str(pattern), "--raw", "-L", "4"])
    code, rows, err = run_query_children(
        "--setup", shlex.join(["index", str(tmp_path / "text{tree}.txt"), "--raw", "-o", prefix]),
        *commands_of(command))
    assert code == 1, err
    assert [row[-1] for row in rows if row[0] == command] == ["same", "same"]
    assert in_process_summary(rows, command) == "3; rows: DIFFERENT"


def test_query_children_skips_a_tree_it_cannot_drive_in_process(demo_files, tmp_path):
    # a copy of this tree whose fm.py names the pair class otherwise, as a
    # tree from before IndexPair does: its children run, but the in-process
    # pass cannot load its pair
    _, pattern, prefix = demo_files
    old = tmp_path / "old" / "memlight"
    shutil.copytree(Path(memlight.__file__).parent, old,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in old.glob("*.py"):
        module.write_text(module.read_text().replace("IndexPair", "OldPair"))
    command = shlex.join(["mems", prefix, str(pattern), "--raw", "-L", "4", "--locate"])
    code, rows, err = run_query_children(*commands_of(command), first=str(old.parent))
    assert code == 0, err
    assert [row[-1] for row in rows if row[0] == command] == ["same", "same"]
    assert [row[0] for row in rows if row[0].startswith("# (in process)")] == [
        f"# (in process) {command}: skipped, {old.parent} cannot be driven: "
        "module 'memlight_tree1' has no attribute 'IndexPair'"]
    assert "Traceback" not in err


def test_unknown_arguments_exit_two():
    assert main(["mems", "--bogus-flag"]) == 2


def test_experiment_command_is_deterministic(tmp_path, capsys):
    argv = ["experiment", "--n", "1500", "--m", "250", "--L", "10",
            "--seed", "5"]
    assert main(argv + ["--output", str(tmp_path / "a.tsv")]) == 0
    assert main(argv + ["--output", str(tmp_path / "b.tsv")]) == 0
    a = (tmp_path / "a.tsv").read_bytes()
    assert a == (tmp_path / "b.tsv").read_bytes()
    assert a.startswith(b"# memlight experiment report")


def test_experiment_writes_to_stdout_without_output(capsys):
    from memlight.experiment import ExperimentSpec, run_comparison
    assert main(["experiment", "--n", "1500", "--m", "250"]) == 0
    assert capsys.readouterr().out == run_comparison(ExperimentSpec(n=1500, m=250)).to_tsv()


def test_experiment_takes_no_sample_rate(capsys):
    # the experiment never locates, so no sample rate changes its report
    assert main(["experiment", "--n", "1500", "--m", "250", "--sample-rate", "8"]) == 2
    assert "unrecognized arguments: --sample-rate" in capsys.readouterr().err


def test_experiment_defaults_write_the_committed_report(tmp_path):
    # the command's defaults are ExperimentSpec's
    golden = Path(__file__).parent / "data" / "experiment_default.tsv"
    assert main(["experiment", "--output", str(tmp_path / "default.tsv")]) == 0
    assert (tmp_path / "default.tsv").read_bytes() == golden.read_bytes()


def test_experiment_options_reach_the_spec(tmp_path):
    # every option, none at its default
    from memlight.experiment import ExperimentSpec, run_comparison
    argv = ["experiment", "--n", "1500", "--m", "250", "--sigma", "3",
            "--mutation", "replace_uniform", "--rate", "0.2", "-L", "7", "--seed", "5",
            "--no-cyclic", "--output", str(tmp_path / "given.tsv")]
    assert main(argv) == 0
    spec = ExperimentSpec(n=1500, m=250, sigma=3, mutation="replace_uniform", rate=0.2,
                          min_len=7, seed=5, cyclic=False)
    assert (tmp_path / "given.tsv").read_text() == run_comparison(spec).to_tsv()


def test_experiment_rejects_pattern_longer_than_text(capsys):
    assert main(["experiment", "--n", "100", "--m", "200"]) == 2


# -- the commands against brute force -------------------------------------------------

def expected_rows(text, patterns, command, min_len, separator):
    """The rows a query command must print, as lists of fields: brute_force_mems
    over the joined text, each pattern split on the bytes no record holds by
    a regular expression of its own, not by memlight's readers or splitter."""
    t = Text.from_bytes(text)
    record_bytes = t.alphabet.symbols.replace(separator, b"")
    runs = re.compile(b"[" + b"".join(re.escape(bytes([b])) for b in record_bytes) + b"]+")
    rows = []
    for rid, raw in patterns:
        mems = [(run.start() + mem.start, mem.length, sorted(mem.occurrences))
                for run in runs.finditer(raw)
                for mem in brute_force_mems(Pattern.from_bytes(run.group(), t.alphabet), t)]
        if command == "lcs":
            # the leftmost of the longest
            mems = [max(mems, key=lambda mem: (mem[1], -mem[0]))] if mems else []
        for start, length, occurrences in mems:
            if length >= min_len:
                fields = [rid, str(start + 1), str(start + length), str(length),
                          str(len(occurrences))]
                if command != "lcs":
                    fields += [str(p + 1) for p in occurrences]
                rows.append(fields)
    return rows


def main_output(argv):
    """main's exit code and what it wrote to standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def edited(rng, seq, edits, symbols=b"ACGT"):
    seq = bytearray(seq)
    for _ in range(edits):
        seq[rng.randrange(len(seq))] = rng.choice(symbols)
    return bytes(seq)


def as_fasta(named, lower, width):
    """FASTA records, each sequence wrapped at width and maybe lower-cased."""
    out = []
    for name, seq in named:
        seq = seq.lower() if lower else seq
        out += [b">" + name.encode() + b" some description"]
        out += [seq[a : a + width] for a in range(0, len(seq), width)]
    return b"\n".join(out) + b"\n"


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_query_commands_print_the_brute_force_rows(data):
    # repeat-rich records (copies of one short seed with a few edits) in one
    # layout: raw, one FASTA record or several joined by --concat-sep;
    # patterns cut from them with edits and the foreign bytes N and #, at a
    # sample rate of 1-5 or the default
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    layout = data.draw(st.sampled_from(["raw", "raw-newline", "fasta", "concat"]), label="layout")
    lower = layout in ("fasta", "concat") and data.draw(st.booleans(), label="lower")
    unit = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(4, 12)))
    count = rng.randint(2, 5) if layout == "concat" else 1
    records = [edited(rng, unit * rng.randint(2, 24), rng.randint(0, 3)) for _ in range(count)]
    # upper-case records joined by the smallest byte that none holds
    separator = bytes([min(set(range(256)) - set(b"".join(records)))]) if count > 1 else b""
    text = separator.join(records)
    patterns = []
    for number in range(1 if layout.startswith("raw") else rng.randint(1, 3)):
        record = rng.choice(records)
        start = rng.randrange(len(record))
        cut = edited(rng, record[start : start + rng.randint(1, 40)], rng.randint(0, 2),
                     b"ACGTN#")
        patterns.append((f"p{number}", cut))
    rate = data.draw(st.sampled_from([None, 1, 2, 3, 4, 5]), label="rate")
    min_len = data.draw(st.integers(1, 12), label="L")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        if layout.startswith("raw"):
            newline = b"\n" if layout == "raw-newline" else b""
            (tmp / "text.txt").write_bytes(text + newline)
            (tmp / "p0.txt").write_bytes(patterns[0][1] + newline)
            index_flags, query_flags = ["--raw"], ["--raw"]
        else:
            (tmp / "text.txt").write_bytes(
                as_fasta([(f"r{i}", r) for i, r in enumerate(records)], lower, rng.randint(5, 60)))
            (tmp / "p0.txt").write_bytes(as_fasta(patterns, lower, rng.randint(5, 60)))
            index_flags, query_flags = ["--concat-sep"] if layout == "concat" else [], []
        if rate is not None:
            index_flags += ["--sample-rate", str(rate)]
        assert main_output(["index", str(tmp / "text.txt"), "-o", str(tmp / "idx"),
                            *index_flags])[0] == 0
        for command, options, least in (("mems", ["-L", str(min_len), "--locate"], min_len),
                                        ("mems", ["--all", "--locate"], 1), ("lcs", [], 1)):
            code, out = main_output([command, str(tmp / "idx"), str(tmp / "p0.txt"),
                                     *options, *query_flags])
            assert code == 0
            assert ([line.split("\t") for line in out.splitlines()]
                    == expected_rows(text, patterns, command, least, separator))

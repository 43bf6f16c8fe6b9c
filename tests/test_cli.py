import hashlib
import json
import tracemalloc
from collections import Counter

import pytest

from kkweyl import analysis, cli, verify, weyl
from kkweyl.cli import main


class TestKK:
    def test_example_word(self, capsys):
        assert main(["kk", "--type", "A2", "--word", "1 2 1"]) == 0
        out = capsys.readouterr().out
        assert "d_w = 1" in out
        assert "c_w = (-1)" in out

    def test_empty_word_gives_root_product(self, capsys):
        assert main(["kk", "--type", "A2", "--word", ""]) == 0
        out = capsys.readouterr().out
        assert "l(w) = 0" in out
        assert "d_w = a1^2*a2 + a1*a2^2" in out

    def test_nonreduced_exit_65(self, capsys):
        assert main(["kk", "--type", "A2", "--word", "2 1 1"]) == 65
        err = capsys.readouterr().err
        assert "not reduced" in err
        assert "'2 1 1'" in err
        # the word is checked before any fold, so a budget the fold would
        # blow (69 on the reduced prefix) is never reached
        assert main(["kk", "--type", "E6", "--word", "1 3 4 2 5 6 6",
                     "--term-budget", "5"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not reduced at prefix '1 3 4 2 5 6 6'" in captured.err

    def test_budget_exit_69(self, capsys):
        assert main(["kk", "--type", "E6", "--word", "1 3 4 2 5 6",
                     "--term-budget", "5"]) == 69
        assert "term budget exceeded" in capsys.readouterr().err

    def test_bad_letter_usage_error(self, capsys):
        assert main(["kk", "--type", "A2", "--word", "1 9"]) == 64

    def test_non_integer_letter_usage_error(self, capsys):
        assert main(["kk", "--type", "A2", "--word", "1 x"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: word must be whitespace-separated "
                                "integers: '1 x'\n")

    def test_expansion_budget_exit_69(self, capsys):
        # the x_w fold is tiny; only expanding d_w (27 root factors) blows up
        assert main(["kk", "--type", "A7", "--word", "1",
                     "--term-budget", "10"]) == 69
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "term budget exceeded" in captured.err


class TestGenTables:
    def test_e6_natural_json(self, tmp_path, capsys):
        code = main(["gen-tables", "--type", "E6", "--order", "natural",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "table_E6_natural.json").read_text())
        assert len(rows) == 16
        first = rows[0]
        assert first["b"] == [1, 0, 0, 0, 0, 0]
        assert first["u_word"] == [1]
        assert first["u_len"] == 1
        assert first["premise_ok"] is True
        assert len(first["eps"]) == 8

    def test_csv_mirror(self, tmp_path, capsys):
        main(["gen-tables", "--type", "E6", "--order", "natural",
              "--format", "csv", "--output-dir", str(tmp_path)])
        lines = (tmp_path / "table_E6_natural.csv").read_text().splitlines()
        assert lines[0] == "b,eps,u_word,u_len,premise_ok"
        assert lines[1].startswith("100000,")
        assert lines[-1].startswith("122321,")

    def test_text_lines(self, tmp_path, capsys):
        for fmt in ("json", "text"):
            assert main(["gen-tables", "--type", "E6", "--order", "natural",
                         "--format", fmt, "--output-dir", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "table_E6_natural.json").read_text())
        lines = (tmp_path / "table_E6_natural.txt").read_text().splitlines()
        assert lines[0] == "100000  l(u)= 1  u = 1"
        assert lines == [
            f"{''.join(map(str, r['b']))}  l(u)={r['u_len']:2d}  u = "
            + " ".join(map(str, r["u_word"])) for r in rows]

    def test_all_orders_without_flag(self, tmp_path, capsys):
        main(["gen-tables", "--type", "E6", "--output-dir", str(tmp_path)])
        assert (tmp_path / "table_E6_natural.json").exists()
        assert (tmp_path / "table_E6_alternate.json").exists()

    def test_e8_premise_failure_exit_2(self, tmp_path, capsys):
        # the E8 first column contains one root whose factorization premises
        # fail; the row is still written and the exit code flags it
        code = main(["gen-tables", "--type", "E8",
                     "--output-dir", str(tmp_path)])
        assert code == 2
        rows = json.loads((tmp_path / "table_E8_standard.json").read_text())
        assert len(rows) == 57
        bad = [r for r in rows if not r["premise_ok"]]
        assert len(bad) == 1
        assert bad[0]["b"] == [2, 3, 4, 6, 5, 4, 3, 2]

    def test_invalid_order_exit_64(self, capsys):
        assert main(["gen-tables", "--type", "E6", "--order", "bogus"]) == 64

    def test_a_type_rejected(self, capsys):
        assert main(["gen-tables", "--type", "A3"]) == 64

    def test_io_failure_exit_1(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir"
        target.write_text("file, not dir")
        assert main(["gen-tables", "--type", "E6", "--order", "natural",
                     "--output-dir", str(target)]) == 1


class TestGoodPairs:
    def test_scan_and_recheck(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        code = main(["good-pairs", "--type", "E6", "--max-len", "3",
                     "--no-certify", "--output", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines
        for rec in lines:
            assert rec["side1"] or rec["side2"]
            assert rec["computed"] is False
        code = main(["good-pairs", "--type", "E6", "--recheck", str(out)])
        assert code == 0
        assert "0 failures" in capsys.readouterr().out

    def test_recheck_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        main(["good-pairs", "--type", "E6", "--max-len", "3",
              "--no-certify", "--output", str(out)])
        lines = out.read_text().splitlines()
        rec = json.loads(lines[0])
        flipped = [{**rec, "side1": not rec["side1"]},
                   {**rec, "side1": not rec["side1"], "side2": not rec["side2"]}]
        tampered = tmp_path / "bad.jsonl"
        for bad in flipped:
            tampered.write_text(json.dumps(bad) + "\n")
            assert main(["good-pairs", "--type", "E6",
                         "--recheck", str(tampered)]) == 3

    # a good E6 pair under the natural order, as `good-pairs` writes it
    GOOD_RECORD = {"w1": [1], "w2": [1, 3, 1], "beta1_b": [1, 0, 0, 0, 0, 0],
                   "beta2_b": [1, 0, 1, 0, 0, 0], "side1": False, "side2": True,
                   "computed": False, "direct_inequality": None}

    # the same pair certified: the first record of `good-pairs --max-len 3`
    EVIDENCE = {"root_b": [1, 0, 1, 0, 0, 0], "divides": "w1", "not_divides": "w2"}
    COMPUTED_RECORD = {**GOOD_RECORD, "computed": True, "direct_inequality": True,
                       "divides_evidence": EVIDENCE}

    def test_certified_scan_rechecks(self, tmp_path, capsys):
        out = tmp_path / "certs.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "3",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0]) == self.COMPUTED_RECORD
        # a symbolic record may carry the evidence its sides imply
        lines.append(json.dumps({**self.GOOD_RECORD, "divides_evidence": self.EVIDENCE}))
        out.write_text("\n".join(lines) + "\n")
        assert main(["good-pairs", "--type", "E6", "--recheck", str(out)]) == 0
        assert f"rechecked {len(lines)} certificates, 0 failures" in capsys.readouterr().out

    def test_certified_length_8_scan_rechecks(self, tmp_path, capsys):
        # length 8 holds all 1,328 pairs whose certificates are computed
        out = tmp_path / "certs.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "8",
                     "--output", str(out)]) == 0
        assert main(["good-pairs", "--type", "E6", "--recheck", str(out)]) == 0
        assert "rechecked 1328 certificates, 0 failures" in capsys.readouterr().out

    def test_term_budget_in_scan_and_recheck(self, tmp_path, capsys):
        # past the budget a certificate stays symbolic, with the evidence its
        # sides imply; a recheck recomputes under its own budget, and stops at
        # the first computed record it cannot afford with the budget's exit
        symbolic = tmp_path / "symbolic.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "4",
                     "--term-budget", "0", "--output", str(symbolic)]) == 0
        records = [json.loads(l) for l in symbolic.read_text().splitlines()]
        assert len(records) == 55
        assert all(r["computed"] is False and r["divides_evidence"] for r in records)
        assert main(["good-pairs", "--type", "E6", "--recheck", str(symbolic)]) == 0
        assert "rechecked 55 certificates, 0 failures" in capsys.readouterr().out

        computed = tmp_path / "computed.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "4",
                     "--output", str(computed)]) == 0
        capsys.readouterr()
        assert main(["good-pairs", "--type", "E6", "--term-budget", "0",
                     "--recheck", str(computed)]) == 69
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: term budget exceeded: line 1: re-deriving a computed"
                       " record exceeds budget 0\n")

    @pytest.mark.parametrize("line", [
        '{"w1": [1], "w2": [1, 3',                                # not JSON
        json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "side1"}),
        json.dumps({**GOOD_RECORD, "w1": [9]}),                   # no letter 9
        json.dumps({**GOOD_RECORD, "w1": [0]}),                   # no letter 0
        json.dumps({**GOOD_RECORD, "w1": [-1]}),                  # no letter -1
        json.dumps({**GOOD_RECORD, "w1": [1, 1, 1]}),             # not reduced
        "[" * 100_000,                          # nested beyond the parser's depth
        b'\xff\xfe{"w1":[1]}',                                    # not UTF-8
        json.dumps({**COMPUTED_RECORD,
                    "divides_evidence": {**EVIDENCE, "root_b": [0, 0, 0, 0, 0, 1]}}),
        json.dumps({**COMPUTED_RECORD, "direct_inequality": False}),
        json.dumps({**COMPUTED_RECORD, "divides_evidence": None}),
        json.dumps({**GOOD_RECORD, "divides_evidence":
                    {**EVIDENCE, "divides": "w2", "not_divides": "w1"}}),
        json.dumps({**GOOD_RECORD, "direct_inequality": True}),
        # mistyped fields that compare equal to the right value in Python
        json.dumps({**COMPUTED_RECORD, "computed": "false"}),
        json.dumps({**COMPUTED_RECORD, "side1": 0}),
        json.dumps({**COMPUTED_RECORD, "side2": 1.0}),
        json.dumps({**COMPUTED_RECORD, "w1": [True]}),
        json.dumps({**COMPUTED_RECORD, "beta1_b": [1.0, 0, 0, 0, 0, 0]}),
        json.dumps({**COMPUTED_RECORD,
                    "divides_evidence": {**EVIDENCE, "root_b": [True, 0, 1, 0, 0, 0]}}),
        json.dumps({**GOOD_RECORD, "divides_evidence": False}),
        # shapes the scan never writes
        json.dumps({**GOOD_RECORD, "w2": [3, 1, 3]}),   # reduced, not canonical
        json.dumps({**GOOD_RECORD, "divides_evidence": None}),
        json.dumps({k: v for k, v in GOOD_RECORD.items()
                    if k != "direct_inequality"}),
        json.dumps({**GOOD_RECORD, "note": "extra"}),
    ], ids=["not-json", "missing-key", "letter-out-of-range", "letter-zero",
            "letter-negative", "not-reduced",
            "deeply-nested", "not-utf8", "forged-evidence-root",
            "forged-no-inequality", "forged-no-evidence",
            "symbolic-forged-evidence", "symbolic-inequality-claim",
            "computed-string", "side1-int", "side2-float", "word-bool",
            "root-float", "evidence-root-bool", "evidence-false",
            "non-canonical-word", "null-evidence", "missing-inequality",
            "extra-key"])
    def test_recheck_bad_record_exit_3(self, tmp_path, capsys, line):
        if isinstance(line, str):
            line = line.encode()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(json.dumps(self.GOOD_RECORD).encode() + b"\n" + line + b"\n")
        assert main(["good-pairs", "--type", "E6", "--recheck", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "FAIL line 2" in err
        assert "FAIL line 1" not in err
        # the echo of a bad line is clipped, however long the line
        assert len(err) < 400

    def test_recheck_reports_file_line_numbers(self, tmp_path, capsys):
        # blank lines are skipped but still counted in a failure's line number
        good = json.dumps(self.GOOD_RECORD).encode()
        bad = json.dumps({**self.GOOD_RECORD, "note": "extra"}).encode()
        path = tmp_path / "gaps.jsonl"
        path.write_bytes(b"\n\n" + bad + b"\n\n" + good + b"\n" + bad + b"\n")
        assert main(["good-pairs", "--type", "E6", "--recheck", str(path)]) == 3
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in err.splitlines()] == \
            ["FAIL line 3", "FAIL line 6"]
        assert "rechecked 3 certificates, 2 failures" in out

    def test_recheck_streams_its_input(self, tmp_path, capsys):
        # the records are read one line at a time: the peak does not grow
        # with the number of copies of a record file (the first one-copy run
        # warms the caches the later runs share)
        out = tmp_path / "certs.jsonl"
        main(["good-pairs", "--type", "E6", "--max-len", "6",
              "--no-certify", "--output", str(out)])
        text = out.read_text()
        records = len(text.splitlines())
        peaks, sizes = {}, {}
        for copies in (1, 1, 16):
            path = tmp_path / f"copies{copies}.jsonl"
            path.write_text((text + "\n") * copies)   # a blank line after each copy
            sizes[copies] = path.stat().st_size
            tracemalloc.start()
            try:
                assert main(["good-pairs", "--type", "E6", "--recheck", str(path)]) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (f"rechecked {records * copies} certificates, 0 failures"
                    in capsys.readouterr().out)
        assert peaks[16] - peaks[1] < (sizes[16] - sizes[1]) / 10

    def test_recheck_maps_each_word_and_element_once(self, tmp_path, capsys,
                                                     monkeypatch):
        out = tmp_path / "certs.jsonl"
        main(["good-pairs", "--type", "E6", "--max-len", "4",
              "--no-certify", "--output", str(out)])
        text = out.read_text()
        out.write_text(text + text)   # every word appears in several records
        words, computed, inverses = Counter(), Counter(), Counter()
        from_word, reduced_word, inverse = (
            weyl.from_word, weyl.reduced_word, weyl.inverse)

        def counted_from_word(rs, word):
            words[tuple(word)] += 1
            return from_word(rs, word)

        def counted_inverse(a):
            inverses["n"] += 1
            return inverse(a)

        def counted_reduced_word(w):
            before = inverses["n"]
            word = reduced_word(w)
            if inverses["n"] > before:   # the word was computed, not read back
                computed[w.perm] += 1
            return word

        monkeypatch.setattr(weyl, "from_word", counted_from_word)
        monkeypatch.setattr(weyl, "inverse", counted_inverse)
        monkeypatch.setattr(weyl, "reduced_word", counted_reduced_word)
        assert main(["good-pairs", "--type", "E6", "--recheck", str(out)]) == 0
        assert words and max(words.values()) == 1
        assert computed and max(computed.values()) == 1

    def test_recheck_builds_c1_once_and_evidence_only_on_mismatch(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "certs.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "4",
                     "--no-certify", "--output", str(out)]) == 0
        made, replaced = Counter(), Counter()
        init, replace = analysis.GoodPairClauses.__init__, cli.replace

        def counted_init(self, *args):
            # the object builds C1 once, when it is made
            made["n"] += 1
            init(self, *args)

        def counted_replace(cert, **changes):
            replaced["n"] += 1
            return replace(cert, **changes)

        monkeypatch.setattr(analysis.GoodPairClauses, "__init__", counted_init)
        monkeypatch.setattr(cli, "replace", counted_replace)
        assert main(["good-pairs", "--type", "E6", "--recheck", str(out)]) == 0
        assert "rechecked 55 certificates, 0 failures" in capsys.readouterr().out
        # the bare records all match the bare pair: no evidence variant built
        assert made["n"] == 1 and replaced["n"] == 0
        out.write_text(json.dumps({**self.GOOD_RECORD,
                                   "divides_evidence": self.EVIDENCE}) + "\n")
        assert main(["good-pairs", "--type", "E6", "--recheck", str(out)]) == 0
        assert made["n"] == 2 and replaced["n"] == 1

    def test_e7_scan_file_pinned(self, tmp_path, capsys):
        # the Bruhat side flags are what the scan writes
        out = tmp_path / "e7.jsonl"
        assert main(["good-pairs", "--type", "E7", "--max-len", "6",
                     "--no-certify", "--output", str(out)]) == 0
        data = out.read_bytes()
        assert data.count(b"\n") == 900
        assert hashlib.sha256(data).hexdigest() == \
            "ed1451f29715bca32f9ab06aa735e0683cfe0f316ccccd72ed9f9cc5ec840e8a"

    def test_certification_error_exit_3(self, tmp_path, capsys, monkeypatch):
        scan = cli.scan_good_pairs

        def failing_scan(*args, **kwargs):
            yield next(scan(*args, **kwargs))
            raise analysis.AnalysisError("good pair with equal polynomials; contradiction")

        monkeypatch.setattr(cli, "scan_good_pairs", failing_scan)
        out = tmp_path / "certs.jsonl"
        assert main(["good-pairs", "--type", "E6", "--max-len", "3",
                     "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: good pair with equal polynomials; contradiction\n"
        # the record written before the failure stays, and no count is printed
        assert len(out.read_text().splitlines()) == 1

    def test_missing_recheck_file_exit_1(self, capsys):
        assert main(["good-pairs", "--type", "E6",
                     "--recheck", "/nonexistent/x.jsonl"]) == 1

    def test_unwritable_output_exit_1(self, capsys):
        assert main(["good-pairs", "--type", "E6",
                     "--output", "/nonexistent/x.jsonl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: [Errno 2] No such file or directory: '/nonexistent/x.jsonl'"]


class TestVerify:
    def test_a2_passes(self, capsys):
        assert main(["verify", "--type", "A2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_failure_exit_3_with_counterexample(self, monkeypatch, capsys, a2):
        def failing_check():
            res = verify.VerifyResult("direct_sum_product_formula")
            res.record(True, w1=weyl.identity(a2))
            res.record(False, sum="A2", w1=weyl.from_word(a2, (2, 1)), i=1)
            res.record(False, sum="A2", w1=weyl.identity(a2), i=2)
            return res
        monkeypatch.setattr(verify, "check_product_formula", failing_check)
        assert main(["verify", "--type", "A2"]) == 3
        out = capsys.readouterr().out
        assert "FAIL direct_sum_product_formula: 1 passed, 2 failed" in out
        assert out.count("PASS") == 6
        # the first failure is kept, its element written as a reduced word
        assert '  counterexample: {"sum": "A2", "w1": [2, 1], "i": 1}\n' in out


class TestUsage:
    def test_unknown_type(self, capsys):
        assert main(["kk", "--type", "Z9", "--word", ""]) == 64

    def test_missing_subcommand(self, capsys):
        assert main([]) == 64

    def test_a_type_order_rejected(self, capsys):
        assert main(["verify", "--type", "A2", "--order", "natural"]) == 64

    def test_workers_option_removed(self, capsys):
        assert main(["verify", "--type", "A2", "--workers", "2"]) == 64
        assert "usage error" in capsys.readouterr().err

    def test_gen_tables_takes_no_term_budget(self, tmp_path, capsys):
        # gen-tables folds no x_w, so it has no budget to set
        assert main(["gen-tables", "--type", "E6", "--term-budget", "5",
                     "--output-dir", str(tmp_path)]) == 64
        assert "usage error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["good-pairs", "--type", "E6", "--max-len", "-1"],
        ["good-pairs", "--type", "E6", "--max-compute-len", "-1"],
        ["good-pairs", "--type", "E6", "--term-budget", "-1"],
        ["verify", "--type", "A2", "--max-len", "-1"],
        ["verify", "--type", "E6", "--max-len", "1", "--sample", "-1"],
        ["kk", "--type", "A2", "--word", "1", "--term-budget", "-5"],
        ["good-pairs", "--type", "E6", "--max-len", "three"],
    ])
    def test_bad_count_exit_64(self, capsys, argv):
        assert main(argv) == 64
        assert "usage error" in capsys.readouterr().err

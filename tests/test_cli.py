import json
import os
import re
import time
from pathlib import Path

import pytest

from ordersum import cli, enumeration, groups, theorems
from ordersum.enumeration import canonical_form
from ordersum.groups import build_group, parse_spec
from test_groups import CHECK_ORDER, INVALID_SMALL_SPECS

# Each invalid spec, small or past the budget, with the message of the first
# check it fails.
REFUSED_SPECS = {**INVALID_SMALL_SPECS, **CHECK_ORDER}


def refuse_search(monkeypatch):
    """Make any catalog search or fork fail the command."""
    def refuse(*args):
        raise AssertionError("searched or forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(enumeration, "_search_groups", refuse)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPsiCommand:
    def test_q8(self, capsys):
        code, out, _ = run(capsys, "psi", "Q8")
        assert code == 0 and out == "27\n"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "psi", "C1")
        assert code == 0 and out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "psi", "C12", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["schema"] == 1 and doc["psi"] == 77

    def test_malformed_spec(self, capsys):
        code, _, err = run(capsys, "psi", "Z99")
        assert code == 2 and "error" in err

    def test_invalid_table_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[0,1],[1,1]]")
        code, _, err = run(capsys, "psi", f"table:{path}")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "text", ["[[0,1],[1,0.9]]", "[1,2]", "[[0,1],[1,false]]", "5", "{}", '"ab"'])
    def test_malformed_table_file(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "psi", f"table:{path}")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("table", "[[0,1],[1,99999999999999999999]]"),  # past 64 bits
            ("perm", "[[1.9, 0, 2]]"),
            ("perm", "[[true, false]]"),
        ],
    )
    def test_malformed_entries_one_error_line(self, capsys, tmp_path, kind, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "psi", f"{kind}:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["table", "perm"])
    @pytest.mark.parametrize("data", [b"[" * 200_000, b"\x7fELF\xff\xfe"],
                             ids=["nested", "binary"])
    def test_unreadable_json_one_error_line(self, capsys, tmp_path, kind, data):
        # json.load raises RecursionError on deep nesting, and
        # UnicodeDecodeError on bytes that are not UTF-8.
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "psi", f"{kind}:{path}")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {'permutation' if kind == 'perm' else kind} "
                              f"file {path} is not valid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[]", "[[]]", "[[0,1],[1]]"])
    def test_misshapen_table_file_names_the_shape(self, capsys, tmp_path, text):
        # Checked as Python rows, so a ragged file never reaches numpy.
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "psi", f"table:{path}")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert re.match(r"error: (a table is not \d+ rows of|a group table needs at least)", err)

    @pytest.mark.parametrize("spec", REFUSED_SPECS)
    def test_invalid_small_spec_one_error_line(self, capsys, spec):
        code, out, err = run(capsys, "psi", spec)
        assert code == 2 and out == ""
        assert err == f"error: {REFUSED_SPECS[spec]}\n"

    @pytest.mark.parametrize(
        "spec", ["C2000000", "A[1024,2048]", "SD(1,1000000000000,0)", "M(3,30000000)",
                 "M(3,100000)", "SD(1{0},1{0},1)".format("0" * 3000)],
        ids=lambda spec: spec if len(spec) < 100 else "SD(m,m,1) of 3001 digits")
    def test_over_element_budget(self, capsys, spec):
        # Rejected from the spec's parameters, before anything is allocated:
        # q**r is not computed, and an order of more digits than int-to-str
        # conversion allows is not printed.
        start = time.perf_counter()
        code, out, err = run(capsys, "psi", spec)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error:") and "element budget" in err
        assert len(err.splitlines()) == 1


class TestSpectrumAndCatalog:
    def test_spectrum_table(self, capsys):
        code, out, _ = run(capsys, "spectrum", "8")
        assert code == 0
        assert out.splitlines()[0].startswith("psi=43")

    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "12", "--format", "json")
        doc = json.loads(out)
        assert [e["psi"] for e in doc["entries"]] == [77, 49, 45, 33, 31]

    def test_catalog_cache(self, capsys, tmp_path):
        code, _, _ = run(capsys, "catalog", "6", "--cache-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "catalog" / "n=6.json").exists()

    def test_catalog_bound(self, capsys):
        code, _, err = run(capsys, "catalog", "14")
        assert code == 2 and "bound" in err

    def test_enum_bound_needs_ack(self, capsys):
        code, _, _ = run(capsys, "catalog", "13", "--enum-bound", "13")
        assert code == 2

    def test_enum_bound_hard_cap(self, capsys):
        code, _, _ = run(capsys, "catalog", "13", "--enum-bound", "17", "--acknowledge-slow")
        assert code == 2


class TestVerifyCommand:
    def test_thm4_json(self, capsys):
        code, out, _ = run(capsys, "verify", "thm4", "--q", "2", "--kmax", "60",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["ok"] is True
        report = doc["reports"][0]
        assert report["verdict"] == "holds"
        assert "C2xC2xC3" in report["witnesses"]

    def test_claim_ids_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert re.findall(r"^\| `(\w+)`", readme, re.M) == list(cli.CLAIMS)
        assert re.findall(r"^\* ``(\w+)``", theorems.__doc__, re.M) == list(cli.CLAIMS)

    def test_unknown_claim(self, capsys):
        code, _, _ = run(capsys, "verify", "no_such_claim")
        assert code == 2

    def test_upper_bound_requires_spec(self, capsys):
        code, _, err = run(capsys, "verify", "upper_bound", "--q", "2")
        assert code == 2 and "spec" in err

    def test_upper_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "upper_bound", "--spec", "Q8", "--q", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["lhs"] == 27
        assert doc["reports"][0]["rhs"] == "301/11"

    def test_max_cyclic_range(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "max_cyclic", "--nmax", "10",
                           "--cache-dir", str(tmp_path), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "claim_id,params,lhs,rhs,verdict,witness"

    @pytest.mark.parametrize("argv", [
        ["max_cyclic", "--nmax", "1"],
        ["equality", "--nmax", "0"],
        ["lemma7", "--nmax", "-4"],
        ["thm4", "--q", "2", "--kmax", "0"],
        ["lemma5", "--mkmax", "1"],
        ["lemma6", "--mkmax", "0"],
        # The first non-central action, SD(3,2,2), is at mk = 6.
        ["lemma6", "--mkmax", "2"],
        ["lemma6", "--mkmax", "5"],
    ], ids=lambda argv: " ".join(argv))
    def test_empty_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, checked", [
        (["lemma5", "--mkmax", "2"], 1),
        (["lemma6", "--mkmax", "6"], 1),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_least_ranges_hold(self, capsys, argv, checked):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        report = json.loads(out)["reports"][0]
        assert code == 0 and report["verdict"] == "holds"
        assert report["params"]["groups_checked"] == checked

    def test_order_one_stays_vacuous(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "max_cyclic", "--n", "1",
                           "--cache-dir", str(tmp_path), "--format", "json")
        report = json.loads(out)["reports"][0]
        assert code == 0 and report["verdict"] == "holds" and report["cases"] == []

    @pytest.mark.parametrize("claim", ["max_cyclic", "equality", "lemma7"])
    def test_huge_nmax_stops_at_the_bound(self, capsys, cache_dir, claim):
        # The orders are read one at a time, so order 13 stops the run
        # before a list of 10**12 orders could be built.
        code, out, err = run(capsys, "verify", claim, "--nmax", "1000000000000",
                             "--cache-dir", str(cache_dir))
        assert code == 2 and out == ""
        assert err.startswith("error: order 13 exceeds the enumeration bound 12")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("claim", ["max_cyclic", "equality", "lemma7"])
    def test_n_and_nmax_together_is_usage_error(self, capsys, monkeypatch, claim):
        refuse_search(monkeypatch)
        code, out, err = run(capsys, "verify", claim, "--n", "1", "--nmax", "5")
        assert code == 2 and out == ""
        assert err == "error: --n and --nmax cannot be given together\n"

    @pytest.mark.parametrize("argv, message", [
        (["equality", "--n", "16", "--q", "3"], "3 is not the least prime divisor of 16"),
        (["equality", "--nmax", "16", "--q", "2"], "2 is not the least prime divisor of 3"),
        (["equality", "--nmax", "17"], "order 17 exceeds the enumeration bound 16; "
                                       "pass --family-only for a family-restricted check"),
        (["max_cyclic", "--nmax", "1000000000000"], "order 17 exceeds the enumeration bound 16"),
        (["lemma7", "--n", "0"], "order must be >= 1, got 0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_usage_error_before_any_search(self, capsys, monkeypatch, tmp_path, argv, message):
        # Every order is checked before any catalog is searched or a worker forked.
        refuse_search(monkeypatch)
        code, out, err = run(capsys, "verify", *argv, "--enum-bound", "16",
                             "--acknowledge-slow", "--cache-dir", str(tmp_path))
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "catalog").exists()

    @pytest.mark.parametrize("argv, message", [
        (["equality", "--family-only", "--nmax", "1000000000000"],
         "--nmax 1000000000000 exceeds 2048, the largest --family-only range"),
        (["thm4", "--q", "5", "--kmax", "1000000000"],
         "order 1048600 exceeds the element budget 1048576 of a group law"),
        (["thm4", "--q", "2", "--kmax", "262145"],
         "order 1048580 exceeds the element budget 1048576 of a group law"),
        (["lemma5", "--mkmax", "100000000"],
         "mk_max 100000000 exceeds the element budget 1048576 of a group law"),
        (["lemma6", "--mkmax", "1048577"],
         "mk_max 1048577 exceeds the element budget 1048576 of a group law"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_range_past_its_budget_is_refused_up_front(self, capsys, monkeypatch, argv,
                                                       message):
        # Refused before any group is built or any worker forked.
        def refuse(*args, **kwargs):
            raise AssertionError("built a group")

        refuse_search(monkeypatch)
        monkeypatch.setattr(groups, "build_group", refuse)
        monkeypatch.setattr(groups, "build_groups", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_warm_commands_fork_nothing(self, capsys, monkeypatch, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert run(capsys, "verify", "max_cyclic", "--nmax", "12", *cache)[0] == 0
        refuse_search(monkeypatch)
        for claim in ("max_cyclic", "equality", "lemma7"):
            assert run(capsys, "verify", claim, "--nmax", "12", *cache)[0] == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_equality_needs_n(self, capsys):
        code, _, err = run(capsys, "verify", "equality")
        assert code == 2 and "--n" in err

    @pytest.mark.parametrize("n", ["100", "8196"])
    def test_equality_above_bound_is_one_usage_error(self, capsys, n):
        code, out, err = run(capsys, "verify", "equality", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("orders", [["--n", "13"], ["--nmax", "13"]])
    def test_over_bound_hint_names_the_flag(self, capsys, cache_dir, orders):
        # The Python keyword is family_only=True; the command line's is the flag.
        code, out, err = run(capsys, "verify", "equality", *orders,
                             "--cache-dir", str(cache_dir))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--family-only" in err and "family_only" not in err

    def test_mqr_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "mqr", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["reports"]) == 5

    def test_lemma7(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "lemma7", "--n", "10",
                           "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        assert json.loads(out)["reports"][0]["verdict"] == "holds"


class TestAuditCommand:
    def test_default_holds(self, capsys):
        code, out, _ = run(capsys, "audit", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["reports"][0]["verdict"] == "holds"

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "audit", "--qmax", "5", "--pmax", "11", "--smax", "2")
        assert code == 0 and "[HOLDS] audit" in out

    @pytest.mark.parametrize("argv, message", [
        (["--qmax", "2"], "--qmax 2 leaves item (a) with no instance: it must be at least 3"),
        (["--pmax", "4"], "--pmax 4 leaves item (a) with no instance: it must be at least 5"),
        (["--smax", "0"],
         "--smax 0 leaves items (b) and (e) with no instance: it must be at least 1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_empty_item_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "audit", *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_least_ranges_give_every_item(self, capsys):
        code, out, _ = run(capsys, "audit", "--qmax", "3", "--pmax", "5", "--smax", "1",
                           "--format", "json")
        report = json.loads(out)["reports"][0]
        assert code == 0 and report["verdict"] == "holds"
        assert {c["params"]["item"] for c in report["cases"]} == set("abcde")


class TestOutputContracts:
    def test_json_determinism(self, capsys, tmp_path):
        args = ["verify", "equality", "--n", "12", "--cache-dir", str(tmp_path),
                "--format", "json"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)  # warm cache on the second run
        assert first == second

    def test_witness_specs_reparse_isomorphic(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "equality", "--n", "12",
                           "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        report = json.loads(out)["reports"][0]
        expected = canonical_form(build_group(parse_spec("A[2,2]xC3")).table.tolist())
        for text in report["witnesses"]:
            assert canonical_form(build_group(parse_spec(text)).table.tolist()) == expected

    def test_failing_report_exits_one(self, capsys):
        bad = theorems.VerificationReport(claim_id="max_cyclic", params={}, verdict="fails")

        class Args:
            format = "table"

        code = cli._emit_reports(Args(), [bad], "verify", {})
        assert code == 1
        assert "[FAILS]" in capsys.readouterr().out

    def test_unexpected_exception_exits_two(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(theorems, "verify_max_cyclic", crash)
        code, out, err = run(capsys, "verify", "max_cyclic", "--n", "8")
        assert code == 2 and out == ""
        assert err.startswith("Traceback") and err.endswith("error: KeyError: 'boom'\n")


class TestUntrustedCache:
    """A cache file that fails validation is recomputed, never believed."""

    @pytest.mark.parametrize("damage", ["psi", "classes"])
    def test_max_cyclic_on_damaged_cache(self, capsys, tmp_path, damage):
        path = tmp_path / "catalog" / "n=8.json"
        run(capsys, "catalog", "8", "--cache-dir", str(tmp_path))
        good = path.read_bytes()
        data = json.loads(good)
        if damage == "psi":
            victim = next(c for c in data["classes"] if c["description"] != "C8")
            victim["psi"] = 999
        else:
            del data["classes"]
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="invalid cache file"):
            code, out, _ = run(capsys, "verify", "max_cyclic", "--n", "8",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.startswith("[HOLDS] max_cyclic")
        assert "999" not in out
        assert path.read_bytes() == good

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import august.cli
from august import build_null_table, power_simulation, read_plot_data
from august.families import get_family
from august.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    _parse_float,
    _read_rows,
    build_parser,
    main,
)
from august.errors import ParseError


def write_labeled(path, x, y, labels=("a", "b")):
    with open(path, "w") as fh:
        for v in x:
            fh.write(f"{v},{labels[0]}\n")
        for v in y:
            fh.write(f"{v},{labels[1]}\n")


def write_plain(path, values):
    with open(path, "w") as fh:
        for v in values:
            fh.write(f"{v}\n")


def write_labeled_multi(path, x, y, labels=("a", "b")):
    with open(path, "w") as fh:
        for row in x:
            fh.write(",".join(str(v) for v in row) + f",{labels[0]}\n")
        for row in y:
            fh.write(",".join(str(v) for v in row) + f",{labels[1]}\n")


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


class TestCmdTest:
    def test_separated_samples_report(self, workdir, capsys):
        rng = np.random.default_rng(0)
        data = str(workdir / "data.csv")
        write_labeled(data, rng.random(40), rng.random(45) + 5.0)
        report_path = str(workdir / "report.json")
        code = main([
            "test", data, "--depth", "2", "--sims", "300",
            "--cache-dir", str(workdir / "cache"), "--report", report_path,
        ])
        assert code == EXIT_OK
        report = json.load(open(report_path))
        assert report["statistic"] == 1.0
        assert report["decision"] == "reject"
        assert report["p_value"] <= 1 / 300
        assert report["labels"] == ["a", "b"]
        assert report["null_table"]["cache_hit"] is False
        assert report["config"]["depth"] == 2

    def test_two_file_layout(self, workdir):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=30), rng.normal(size=35)
        fx = str(workdir / "x.csv")
        fy = str(workdir / "y.csv")
        labelled = str(workdir / "xy.csv")
        np.savetxt(fx, x, fmt="%.17g")
        np.savetxt(fy, y, fmt="%.17g")
        write_labeled(labelled, x.tolist(), y.tolist())
        reports = []
        for data in ([fx, fy], [labelled]):
            report_path = str(workdir / f"r{len(data)}.json")
            code = main(["test", *data, "--depth", "1", "--sims", "200",
                         "--cache-dir", str(workdir / "cache"),
                         "--report", report_path])
            assert code == EXIT_OK
            reports.append(json.load(open(report_path)))
        two_files, one_file = reports
        assert two_files["m"] == 30 and two_files["n"] == 35
        for key in ("statistic", "p_value", "s_x"):
            assert two_files[key] == one_file[key], key

    def test_two_column_plain_files_are_parse_error(self, workdir, capsys):
        # Univariate data holds one value per row in either layout; wider
        # rows are refused, not flattened into a sample twice as large.
        rng = np.random.default_rng(12)
        fx, fy = str(workdir / "x.csv"), str(workdir / "y.csv")
        np.savetxt(fx, rng.normal(size=(40, 2)), delimiter=",")
        np.savetxt(fy, rng.normal(size=(45, 2)), delimiter=",")
        code = main(["test", fx, fy, "--depth", "1", "--sims", "100",
                     "--cache-dir", str(workdir / "cache")])
        assert code == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError" and err["row"] == 1
        assert not (workdir / "cache").exists()

    def test_malformed_cell_is_parse_error(self, workdir, capsys):
        data = str(workdir / "bad.csv")
        with open(data, "w") as fh:
            fh.write("1.0,a\n2.0,a\nxyz,b\n3.0,b\n")
        code = main(["test", data, "--depth", "1"])
        assert code == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["row"] == 3
        assert err["error"]["column"] == 1

    def test_utf8_bom_reads_like_plain_utf8(self, workdir, monkeypatch):
        # Spreadsheet "CSV UTF-8" exports open the file with a byte-order mark.
        rng = np.random.default_rng(6)
        write_labeled(str(workdir / "plain.csv"), rng.random(30), rng.random(35))
        plain = (workdir / "plain.csv").read_bytes()
        reports = []
        for name, blob in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
            (workdir / name).mkdir()
            monkeypatch.chdir(workdir / name)
            (workdir / name / "d.csv").write_bytes(blob)
            assert main(["test", "d.csv", "--depth", "1", "--sims", "200",
                         "--cache-dir", "cache", "--report", "r.json"]) == EXIT_OK
            reports.append((workdir / name / "r.json").read_bytes())
        assert reports[0] == reports[1]

    def test_three_labels_is_parse_error(self, workdir, capsys):
        data = str(workdir / "labels.csv")
        with open(data, "w") as fh:
            fh.write("1.0,a\n2.0,b\n3.0,c\n")
        assert main(["test", data]) == EXIT_PARSE

    def test_ties_are_precondition_error(self, workdir, capsys):
        data = str(workdir / "tied.csv")
        write_labeled(data, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                      [7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0])
        code = main(["test", data, "--depth", "1", "--sims", "100"])
        assert code == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "TiesPresent"

    def test_too_small_sample_is_precondition_error(self, workdir):
        data = str(workdir / "tiny.csv")
        write_labeled(data, [1.0, 2.0], [3.0, 4.0])
        assert main(["test", data, "--depth", "3"]) == EXIT_PRECONDITION

    def test_unsupported_depth_is_precondition_error(self, workdir, capsys):
        rng = np.random.default_rng(10)
        data = str(workdir / "deep.csv")
        write_labeled(data, rng.random(2100), rng.random(2100))
        code = main(["test", data, "--depth", "10",
                     "--cache-dir", str(workdir / "cache")])
        assert code == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DepthOutOfRange"

    def test_jitter_mode_accepts_tied_data(self, workdir):
        data = str(workdir / "tied.csv")
        write_labeled(data, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                      [7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0])
        report = str(workdir / "r.json")
        code = main(["test", data, "--depth", "1", "--sims", "100",
                     "--ties", "jitter", "--cache-dir", str(workdir / "c"),
                     "--report", report])
        assert code == EXIT_OK
        assert json.load(open(report))["tie_policy_applied"] == "jitter"

    def test_cache_hit_on_second_run(self, workdir):
        rng = np.random.default_rng(2)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=20), rng.normal(size=20))
        cache = str(workdir / "cache")
        r1 = str(workdir / "r1.json")
        r2 = str(workdir / "r2.json")
        args = ["test", data, "--depth", "1", "--sims", "150", "--cache-dir", cache]
        assert main(args + ["--report", r1]) == EXIT_OK
        assert main(args + ["--report", r2]) == EXIT_OK
        a, b = json.load(open(r1)), json.load(open(r2))
        assert a["null_table"]["cache_hit"] is False
        assert b["null_table"]["cache_hit"] is True
        assert a["p_value"] == b["p_value"]

    def test_env_var_cache_dir(self, workdir, monkeypatch):
        rng = np.random.default_rng(3)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=20), rng.normal(size=20))
        env_cache = str(workdir / "envcache")
        monkeypatch.setenv("AUGUST_CACHE_DIR", env_cache)
        report = str(workdir / "r.json")
        assert main(["test", data, "--depth", "1", "--sims", "120",
                     "--report", report]) == EXIT_OK
        assert any(name.endswith(".nulltab") for name in os.listdir(env_cache))

    def test_bonferroni_divides_alpha(self, workdir):
        rng = np.random.default_rng(4)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=25), rng.normal(size=25))
        report = str(workdir / "r.json")
        assert main(["test", data, "--depth", "1", "--sims", "100",
                     "--cache-dir", str(workdir / "c"),
                     "--bonferroni", "4", "--report", report]) == EXIT_OK
        parsed = json.load(open(report))
        assert parsed["effective_alpha"] == pytest.approx(0.0125)

    def test_asymptotic_method_runs(self, workdir):
        rng = np.random.default_rng(5)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=60), rng.normal(size=60))
        report = str(workdir / "r.json")
        code = main(["test", data, "--depth", "2", "--pvalue-method", "asymptotic",
                     "--sims", "1000", "--report", report])
        assert code == EXIT_OK
        parsed = json.load(open(report))
        assert parsed["pvalue_method"] == "asymptotic"
        assert 0 < parsed["p_value"] <= 1

    def test_asymptotic_method_draws_nothing(self, workdir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the asymptotic p-value simulated")

        monkeypatch.setattr(august.cli, "estimate_sigma", refuse)
        monkeypatch.setattr(august._seeds, "replicate_rng", refuse)
        rng = np.random.default_rng(5)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=60), rng.normal(0.5, 1.0, size=70))
        report = str(workdir / "r.json")
        assert main(["test", data, "--pvalue-method", "asymptotic",
                     "--report", report]) == EXIT_OK
        assert 0 < json.load(open(report))["p_value"] < 1

    def test_null_data_rarely_rejects(self, workdir):
        # Scripted calibration smoke: most null datasets must fail to reject.
        cache = str(workdir / "cache")
        decisions = []
        for trial in range(40):
            rng = np.random.default_rng(900 + trial)
            data = str(workdir / f"null{trial}.csv")
            write_labeled(data, rng.normal(size=32), rng.normal(size=32))
            report = str(workdir / f"null{trial}.json")
            assert main(["test", data, "--depth", "2", "--sims", "400",
                         "--seed", "7", "--cache-dir", cache,
                         "--report", report]) == EXIT_OK
            decisions.append(json.load(open(report))["decision"])
        fraction = decisions.count("fail-to-reject") / len(decisions)
        assert fraction >= 0.85


class TestCmdTestMulti:
    def test_report_echoes_branches(self, workdir):
        rng = np.random.default_rng(6)
        data = str(workdir / "m.csv")
        write_labeled_multi(data, rng.standard_normal((40, 2)),
                            rng.standard_normal((45, 2)) * 1.8)
        report = str(workdir / "r.json")
        code = main(["test-multi", data, "--permutations", "120",
                     "--report", report])
        assert code == EXIT_OK
        parsed = json.load(open(report))
        assert parsed["max_branch"] in ("x", "y")
        assert parsed["statistic"] == max(
            parsed["branch_x"]["statistic"], parsed["branch_y"]["statistic"]
        )
        assert parsed["pvalue_method"] == "permutation"
        assert parsed["dimension"] == 2

    def test_ragged_rows_are_parse_error(self, workdir):
        data = str(workdir / "ragged.csv")
        with open(data, "w") as fh:
            fh.write("1.0,2.0,a\n3.0,b\n")
        assert main(["test-multi", data]) == EXIT_PARSE


class TestCmdInterpret:
    def test_emits_valid_plot_data(self, workdir, capsys):
        rng = np.random.default_rng(7)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=80), rng.normal(0.8, 1.0, size=90))
        out = str(workdir / "plot.json")
        code = main(["interpret", data, "--depth", "3", "--top-k", "2",
                     "--reference", "y", "--report", out])
        assert code == EXIT_OK
        payload = read_plot_data(out)
        assert payload["reference_label"] == "y"
        assert len(payload["reports"]) == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"][0]["rank"] == 1

    def test_reference_x(self, workdir, capsys):
        rng = np.random.default_rng(8)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=60), rng.normal(size=60))
        out = str(workdir / "plot.json")
        assert main(["interpret", data, "--reference", "x",
                     "--report", out]) == EXIT_OK
        assert read_plot_data(out)["reference_label"] == "x"

    def test_reference_is_required(self, workdir):
        rng = np.random.default_rng(9)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=60), rng.normal(size=60))
        assert main(["interpret", data]) == EXIT_USAGE


class TestCmdNullTable:
    def test_build_then_hit(self, workdir, capsys):
        cache = str(workdir / "cache")
        args = ["null-table", "--m", "24", "--n", "24", "--depth", "1",
                "--sims", "150", "--seed", "3", "--cache-dir", cache]
        assert main(args) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert first["cache_hit"] is False
        path = first["path"]
        bytes_first = open(path, "rb").read()
        assert main(args) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hit"] is True
        assert open(path, "rb").read() == bytes_first
        assert second["quantiles"]["0.95"] >= second["quantiles"]["0.90"]


class TestCmdPower:
    def test_null_family_power_near_alpha(self, workdir):
        out = str(workdir / "power.csv")
        code = main(["power", "--families", "null", "--m", "32", "--n", "32",
                     "--reps", "150", "--sims", "500", "--seed", "5",
                     "--cache-dir", str(workdir / "cache"), "--report", out])
        assert code == EXIT_OK
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "family,parameter,test,power"
        name, _, test, power = lines[1].split(",")
        assert name == "null" and test == "august"
        assert abs(float(power) - 0.05) <= 0.05

    def test_null_table_is_built_once_per_command(self, workdir):
        cache = workdir / "cache"
        out = str(workdir / "power.csv")
        code = main(["power", "--families", "normal-location,laplace-scale",
                     "--params", "0.5,1.5", "--m", "24", "--n", "28",
                     "--depth", "2", "--reps", "120", "--sims", "300",
                     "--seed", "4", "--cache-dir", str(cache), "--report", out])
        assert code == EXIT_OK
        assert len([f for f in os.listdir(cache) if f.endswith(".nulltab")]) == 1
        expected = ["family,parameter,test,power"]
        table = build_null_table(24, 28, 2, 300, 4)
        for name in ("normal-location", "laplace-scale"):
            family = get_family(name)
            for param in (0.5, 1.5):
                power = power_simulation(
                    family.null_sampler, family.alternative(param), table,
                    0.05, 120, 4,
                )
                expected.append(f"{name},{param},august,{power}")
        assert open(out).read().splitlines() == expected

    def test_nested_seeds_differ_between_adjacent_seeds(self, workdir, monkeypatch):
        seen = []

        class Outcome:
            p_value = 1.0

        def fake_test(name, x, y, permutations, seed):
            seen[-1].add(seed)
            return Outcome()

        monkeypatch.setattr(august.cli, "baseline_permutation_test", fake_test)
        for seed in ("6", "7"):
            seen.append(set())
            code = main(["power", "--families", "null", "--tests", "ks",
                         "--m", "16", "--n", "16", "--reps", "200",
                         "--seed", seed, "--report", str(workdir / "p.csv")])
            assert code == EXIT_OK
        assert len(seen[0]) == len(seen[1]) == 200
        assert not seen[0] & seen[1]

    def test_one_pair_stream_and_one_nested_stream(self, workdir, monkeypatch):
        streams = []
        original = august._seeds.replicate_rng

        def counting(seed, domain, index=0):
            streams.append((domain, index))
            return original(seed, domain, index)

        monkeypatch.setattr(august._seeds, "replicate_rng", counting)
        code = main(["power", "--families", "null", "--tests", "ks",
                     "--m", "16", "--n", "16", "--reps", "200",
                     "--permutations", "100", "--seed", "3",
                     "--report", str(workdir / "p.csv")])
        assert code == EXIT_OK
        baseline = [s for s in streams if s[0] == august._seeds.BASELINE]
        # One block stream per nested test's relabellings; the fix-up
        # stream is its spawned child, made without ``replicate_rng``.
        assert len(baseline) == 200
        assert [s for s in streams if s[0] != august._seeds.BASELINE] == [
            (august._seeds.POWER_TRIAL, 0), (august._seeds.NESTED_TEST, 0)]

    def test_august_and_ks_rows_see_the_same_pairs(self, workdir, monkeypatch):
        seen = {"august": [], "ks": []}
        original = august.inference.august_many

        class Outcome:
            p_value = 1.0

        def recording_many(xs, ys, depth):
            seen["august"].extend(zip(xs, ys))
            return original(xs, ys, depth)

        def recording_test(name, x, y, permutations, seed):
            seen[name].append((x, y))
            return Outcome()

        monkeypatch.setattr(august.inference, "august_many", recording_many)
        monkeypatch.setattr(august.cli, "baseline_permutation_test", recording_test)
        code = main(["power", "--families", "normal-location", "--params", "0.5",
                     "--tests", "august,ks", "--m", "24", "--n", "20",
                     "--depth", "2", "--reps", "150", "--sims", "200",
                     "--seed", "9", "--cache-dir", str(workdir / "cache"),
                     "--report", str(workdir / "p.csv")])
        assert code == EXIT_OK
        assert len(seen["august"]) == len(seen["ks"]) == 150
        for (xa, ya), (xk, yk) in zip(seen["august"], seen["ks"]):
            assert np.array_equal(xa, xk) and np.array_equal(ya, yk)

    def test_bivariate_family_runs(self, workdir):
        out = str(workdir / "power.csv")
        code = main(["power", "--families", "mvn-location", "--params", "1.5",
                     "--m", "32", "--n", "32", "--reps", "100",
                     "--permutations", "100", "--seed", "2", "--report", out])
        assert code == EXIT_OK
        rows = open(out).read().strip().splitlines()[1:]
        assert len(rows) == 1
        family, param, test, power = rows[0].split(",")
        assert family == "mvn-location" and test == "august-multi"
        assert float(power) > 0.8  # strong shift

    def test_univariate_test_on_bivariate_family_is_refused(self, workdir, capsys):
        out = workdir / "power.csv"
        for tests in ("ks", "august,energy"):
            code = main(["power", "--families", "null,mvn-location",
                         "--tests", tests, "--params", "0.5",
                         "--cache-dir", str(workdir / "cache"),
                         "--report", str(out)])
            assert code == EXIT_PRECONDITION
            message = json.loads(capsys.readouterr().err)["error"]["message"]
            assert tests.split(",")[-1] in message and "mvn-location" in message
        # Refused before any simulation: no table, no report.
        assert not out.exists() and not (workdir / "cache").exists()

    @pytest.mark.parametrize("sizes, error", [
        (["--multi-depth", "12", "--m", "20", "--n", "20"], "DepthOutOfRange"),
        (["--depth", "1", "--m", "6", "--n", "6"], "SampleTooSmall"),  # r = 7
        (["--m", "-5", "--n", "20"], "SampleTooSmall"),
        (["--multi-depth", "0", "--m", "20", "--n", "20"], "DepthOutOfRange"),
    ])
    def test_multi_depth_is_checked_before_any_table(self, sizes, error, workdir,
                                                     capsys):
        out = workdir / "power.csv"
        code = main(["power", "--families", "null,mvn-location", "--params", "0.5",
                     *sizes, "--sims", "100", "--reps", "100",
                     "--cache-dir", str(workdir / "cache"), "--report", str(out)])
        assert code == EXIT_PRECONDITION
        assert json.loads(capsys.readouterr().err)["error"]["type"] == error
        # Refused before any simulation: no table, no report.
        assert not out.exists() and not (workdir / "cache").exists()

    @pytest.mark.parametrize("tests, sizes, message", [
        ("ks", ["--m", "-5"], "ks and energy need at least 1 point"),
        ("energy", ["--m", "0"], "ks and energy need at least 1 point"),
        ("ks,energy", ["--n", "0"], "ks and energy need at least 1 point"),
        # The august table's floor is the higher one, and comes first.
        ("august,ks", ["--m", "0"], "need at least 15 points per sample"),
    ])
    def test_baseline_sizes_are_checked_before_any_draw(self, tests, sizes, message,
                                                        workdir, capsys):
        out = workdir / "power.csv"
        code = main(["power", "--families", "null", "--tests", tests, "--params", "0",
                     *sizes, "--reps", "100", "--sims", "100", "--permutations", "100",
                     "--cache-dir", str(workdir / "cache"), "--report", str(out)])
        assert code == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SampleTooSmall" and message in err["message"]
        assert not out.exists() and not (workdir / "cache").exists()

    @pytest.mark.parametrize("family", ["laplace-scale", "mvn-scale"])
    @pytest.mark.parametrize("scale", ["0.0", "-1"])
    def test_scale_family_refuses_nonpositive_scale(self, family, scale,
                                                    workdir, capsys):
        # The refused family comes second: nothing runs for the first either.
        out = workdir / "power.csv"
        code = main(["power", "--families", f"null,{family}", "--params", scale,
                     "--reps", "100", "--cache-dir", str(workdir / "cache"),
                     "--report", str(out)])
        assert code == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == "scale must be positive"
        assert not out.exists() and not (workdir / "cache").exists()

    def test_unknown_family_is_precondition_error(self, workdir):
        assert main(["power", "--families", "nope"]) == EXIT_PRECONDITION


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["null-table", "--m", "24", "--n", "24", "--alpha", "0.1"],
        ["null-table", "--m", "24", "--n", "24", "--ties", "jitter"],
        ["null-table", "--m", "24", "--n", "24", "--bonferroni", "2"],
        ["power", "--ties", "jitter"],
        ["power", "--bonferroni", "2"],
        ["interpret", "d.csv", "--reference", "y", "--alpha", "0.1"],
        ["interpret", "d.csv", "--reference", "y", "--bonferroni", "2"],
        ["test-multi", "d.csv", "--cache-dir", "cache"],
    ])
    def test_unread_option_is_usage_error(self, argv):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["test", "d.csv", "--bonferroni", "0"],
        ["test", "d.csv", "--bonferroni", "-1"],
        ["test-multi", "d.csv", "--bonferroni", "0"],
        ["test", "d.csv", "--alpha", "1.5"],
        ["test", "d.csv", "--alpha", "0"],
        ["test", "d.csv", "--alpha", "1"],
        ["test", "d.csv", "--alpha", "nan"],
        ["power", "--alpha", "-0.1"],
        ["interpret", "d.csv", "--reference", "y", "--top-k", "-1"],
        ["interpret", "d.csv", "--reference", "y", "--top-k", "0"],
        ["interpret", "d.csv", "--reference", "y", "--bins", "0"],
        ["interpret", "d.csv", "--reference", "y", "--bins", "-3"],
        ["power", "--params", "abc"],
        ["power", "--params", "0.5,x"],
        ["power", "--params", "nan"],
        ["test", "x.csv", "y.csv", "z.csv"],
        ["test-multi", "x.csv", "y.csv", "z.csv"],
        ["interpret", "x.csv", "y.csv", "z.csv", "--reference", "y"],
        # The replicate floors hold for every test that power runs.
        *(["power", "--families", families, "--tests", tests, "--reps", reps,
           "--params", "0.5"]
          for families, tests in (("null", "august"), ("null", "ks"),
                                  ("null", "energy"),
                                  ("mvn-location", "august-multi"))
          for reps in ("0", "99")),
        ["test", "d.csv", "--sims", "99"],
        ["null-table", "--m", "24", "--n", "24", "--sims", "50",
         "--cache-dir", "cache"],
        ["test-multi", "d.csv", "--permutations", "5"],
        ["power", "--tests", "energy", "--permutations", "99"],
        # Every test name is checked before the august grid runs.
        ["power", "--families", "null", "--tests", "august,foo", "--sims", "100",
         "--reps", "100", "--m", "20", "--n", "20", "--cache-dir", "cache"],
        # A repeated name would run its rows twice.
        ["power", "--families", "normal-location", "--tests", "ks,ks", "--params",
         "0.5", "--m", "20", "--n", "20", "--reps", "100", "--permutations", "100"],
        ["power", "--families", "null,null", "--m", "20", "--n", "20",
         "--reps", "100", "--cache-dir", "cache"],
        # The cache header holds a seed in [0, 2**64), and every subcommand
        # parses it so.
        ["null-table", "--m", "20", "--n", "20", "--depth", "1", "--sims", "100",
         "--seed", "18446744073709551616", "--cache-dir", "cache"],
        ["test", "d.csv", "--seed", "-1"],
        ["test-multi", "d.csv", "--ridge", "nan"],
        ["test-multi", "d.csv", "--ridge", "inf"],
        # No option picks a sampling law for a null table.
        ["null-table", "--m", "24", "--n", "24", "--generator", "uniform",
         "--cache-dir", "cache"],
    ])
    def test_refused_argv_is_usage_error(self, argv, workdir, monkeypatch, capsys):
        # Refused before any file is read: the named files need not exist.
        monkeypatch.chdir(workdir)
        assert main(argv) == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ArgumentError" and err["message"]
        assert os.listdir(workdir) == []

    def test_benchmark_argv_shapes_still_run(self, workdir):
        # The option sets that benchmark/workloads.py passes: --seed and
        # --cache-dir go to every test and interpret call.
        rng = np.random.default_rng(15)
        x, y = str(workdir / "x.csv"), str(workdir / "y.csv")
        write_plain(x, rng.normal(size=40))
        write_plain(y, rng.normal(0.3, 1.2, size=45))
        common = ["--seed", "2", "--cache-dir", str(workdir / "cache")]
        for argv in (
            ["test", x, y, "--report", str(workdir / "miss.json")],
            ["test", x, y, "--pvalue-method", "asymptotic",
             "--report", str(workdir / "asym.json")],
            ["interpret", x, y, "--reference", "y",
             "--report", str(workdir / "plot.json")],
            ["power", "--families", "normal-location", "--tests", "august",
             "--params", "0.5", "--m", "32", "--n", "32", "--reps", "100",
             "--report", str(workdir / "power.csv")],
        ):
            assert main(argv + common) == EXIT_OK, argv


TEST_KEYS = {
    "command", "labels", "m", "n", "depth", "statistic", "p_value",
    "pvalue_method", "alpha", "effective_alpha", "decision", "s_x", "s_y",
    "p_x", "p_y", "tie_policy_applied", "null_table", "config",
}
TEST_CONFIG_KEYS = {
    "alpha", "bonferroni", "cache_dir", "data", "depth", "pvalue_method",
    "report", "seed", "sims", "subcommand", "ties",
}


class TestReportKeys:
    """Without opt-in flags, reports keep exactly these keys."""

    @pytest.fixture()
    def data(self, workdir):
        rng = np.random.default_rng(16)
        path = str(workdir / "d.csv")
        write_labeled(path, rng.normal(size=40), rng.normal(0.4, 1.0, size=45))
        return path

    def test_montecarlo_test_report(self, workdir, data):
        report = str(workdir / "r.json")
        assert main(["test", data, "--sims", "200", "--cache-dir",
                     str(workdir / "c"), "--report", report]) == EXIT_OK
        parsed = json.load(open(report))
        assert set(parsed) == TEST_KEYS
        assert set(parsed["null_table"]) == {
            "sims", "seed", "cache_hit", "path",
        }
        assert set(parsed["config"]) == TEST_CONFIG_KEYS

    def test_asymptotic_test_report(self, workdir, data):
        report = str(workdir / "r.json")
        assert main(["test", data, "--pvalue-method", "asymptotic",
                     "--report", report]) == EXIT_OK
        parsed = json.load(open(report))
        assert set(parsed) == TEST_KEYS
        assert parsed["null_table"] is None
        assert set(parsed["config"]) == TEST_CONFIG_KEYS

    def test_interpret_summary(self, workdir, data, capsys):
        assert main(["interpret", data, "--reference", "y", "--report",
                     str(workdir / "plot.json")]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {
            "command", "labels", "statistic", "reference", "plot_data", "rows",
            "config",
        }
        assert {frozenset(row) for row in summary["rows"]} == {
            frozenset({"rank", "row_index", "statistic_value", "label"})
        }
        assert set(summary["config"]) == {
            "bins", "cache_dir", "data", "depth", "reference", "report", "seed",
            "subcommand", "ties", "top_k",
        }


class TestWriter:
    PAYLOAD = {
        "float": np.float64(0.1),
        "int": np.int64(7),
        "flag": np.bool_(True),
        "vector": np.array([0.5, -1.0, 1 / 3]),
        "matrix": np.arange(4, dtype=np.int64).reshape(2, 2),
        "none": None,
        "nested": {"inner": np.array([True, False]), "label": "a"},
    }
    EXPECTED = """{
  "float": 0.1,
  "int": 7,
  "flag": true,
  "vector": [
    0.5,
    -1.0,
    0.3333333333333333
  ],
  "matrix": [
    [
      0,
      1
    ],
    [
      2,
      3
    ]
  ],
  "none": null,
  "nested": {
    "inner": [
      true,
      false
    ],
    "label": "a"
  }
}
"""

    def test_file_and_stdout_bytes(self, workdir, capsys):
        path = workdir / "report.json"
        text = august.cli._json(self.PAYLOAD)
        august.cli._write(text, str(path))
        august.cli._write(text, None)
        assert path.read_bytes() == self.EXPECTED.encode("utf-8")
        assert capsys.readouterr().out == self.EXPECTED

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError):
            august.cli._json({"set": {1, 2}})


class TestExitCodes:
    def test_usage_error(self):
        assert main(["test"]) == EXIT_USAGE  # missing data argument

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["bench"]) == EXIT_USAGE  # timing lives in benchmark/

    def test_missing_file_is_io_error(self, workdir, capsys):
        assert main(["test", str(workdir / "absent.csv")]) == EXIT_IO

    def test_version_flag(self, capsys):
        code = main(["--version"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("argv", [
        ["test", "d.csv", "--depth", "0", "--cache-dir", "cache"],
        ["interpret", "d.csv", "--reference", "y", "--depth", "-2"],
        ["null-table", "--m", "20", "--n", "20", "--depth", "-1", "--sims", "100",
         "--cache-dir", "cache"],
    ])
    def test_depth_below_one_is_precondition_error(self, argv, workdir,
                                                   monkeypatch, capsys):
        # The parser leaves --depth unchecked; the library refuses it typed.
        monkeypatch.chdir(workdir)
        rng = np.random.default_rng(18)
        write_labeled("d.csv", rng.random(30), rng.random(35))
        assert main(argv) == EXIT_PRECONDITION
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "DepthOutOfRange",
                       "message": "depth must be a positive integer"}
        assert os.listdir(workdir) == ["d.csv"]


def read_rows_by_field(path, labelled, width):
    """The row-by-row reading: strip every field, ``_parse_float`` each value."""
    values, labels = [], []
    with open(path, encoding="utf-8-sig") as fh:
        lines = [line for line in fh if line.strip()]
    for number, line in enumerate(lines, start=1):
        fields = [f.strip() for f in line.split(",")]
        width = width or len(fields) - labelled
        assert len(fields) == width + labelled
        if labelled:
            labels.append(fields.pop())
        values.append([_parse_float(text, number, column)
                       for column, text in enumerate(fields, start=1)])
    return np.asarray(values, dtype=np.float64), labels


class TestReadRows:
    @staticmethod
    def _refusal(path, labelled=True, width=1):
        with pytest.raises(ParseError) as caught:
            _read_rows(path, labelled, width)
        return caught.value

    @pytest.mark.parametrize("labelled, width", [(False, 1), (True, 1), (True, None)])
    def test_values_equal_the_field_by_field_parse(self, workdir, labelled, width):
        rng = np.random.default_rng(17)
        wide = 3 if width is None else 1
        styles = ("{!r}", " {!r} ", "{:.3e}", "{:.0f}", "\t{:g}", "{:.17g}")
        path = str(workdir / "d.csv")
        with open(path, "w") as fh:
            for row in range(500):
                values = rng.standard_cauchy(wide) * 10.0 ** rng.integers(-30, 30)
                fields = [styles[rng.integers(len(styles))].format(float(v)) for v in values]
                if labelled:
                    fields.append(" b " if row % 3 else "a")
                fh.write(",".join(fields) + "\n")
        values, labels = _read_rows(path, labelled, width)
        expected, expected_labels = read_rows_by_field(path, labelled, width)
        assert values.shape == (500, wide)
        assert values.tobytes() == expected.tobytes()
        assert labels == expected_labels

    def test_first_error_in_row_order(self, workdir):
        # A bad value in an earlier row wins over a wrong field count in a
        # later one, and the other way round.
        path = str(workdir / "d.csv")
        with open(path, "w") as fh:
            fh.write("1,a\n2,a\noops,b\n4,b\n5,b,6\n")
        error = self._refusal(path)
        assert (error.row, error.column) == (3, 1)
        assert "'oops' is not a finite number" in str(error)
        with open(path, "w") as fh:
            fh.write("1,a\n2,a,3\noops,b\n4,b\n")
        error = self._refusal(path)
        assert (error.row, error.column) == (2, None)
        assert "row 2 has 3 fields, expected 2" in str(error)

    @pytest.mark.parametrize("text", ["nan", " -inf ", "Infinity", "1e400", "0x10", "", "1,5"])
    def test_non_finite_and_non_numbers_are_refused_where_they_are(self, workdir, text):
        path = str(workdir / "d.csv")
        with open(path, "w") as fh:
            fh.write(f"1,2,a\n3,{text},a\n5,6,b\n")
        error = self._refusal(path, width=None)
        if text == "1,5":  # a fourth field
            assert (error.row, error.column) == (2, None)
        else:
            assert (error.row, error.column) == (2, 2)
            assert f"{text.strip()!r} is not a finite number" in str(error)

    def test_values_float_accepts_are_accepted(self, workdir):
        path = str(workdir / "d.csv")
        texts = ["1_0", "\u0661\u0662", "\uff13", " +.5 ", "1e-400", "-0", "5."]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{text},a\n" for text in texts)
        values, _ = _read_rows(path, True, 1)
        assert values.ravel().tolist() == [float(text) for text in texts]
        assert values.ravel().tolist() == [10.0, 12.0, 3.0, 0.5, 0.0, -0.0, 5.0]
        # Fields are stripped as ``str.strip`` strips, also of separators
        # that ``float()`` itself would refuse.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\x1c1.5\x1f,a\n2,b\n")
        assert _read_rows(path, True, 1)[0].ravel().tolist() == [1.5, 2.0]

    def test_bom_and_blank_lines_keep_the_row_numbers(self, workdir):
        path = workdir / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1,a\n\n   \n\t\n2,a\r\n3,b\n\n4,b\nnan,b\n")
        error = self._refusal(str(path))
        assert (error.row, error.column) == (5, 1)
        path.write_bytes(path.read_bytes().replace(b"nan", b"5"))
        values, labels = _read_rows(str(path), True, 1)
        assert values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert labels == ["a", "a", "b", "b", "b"]

    def test_labels_are_stripped(self, workdir):
        path = str(workdir / "d.csv")
        with open(path, "w") as fh:
            fh.write("1,  a\n2,a \t\n3,\tb\n4, b\n")
        values, labels = _read_rows(path, True, 1)
        assert labels == ["a", "a", "b", "b"]
        assert values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]


def run_in(directory, argvs, capsys):
    """Each argv's exit code, stdout and stderr, then every file written."""
    os.chdir(directory)
    calls = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        calls.append((code, captured.out, captured.err))
    files = {str(path.relative_to(directory)): path.read_bytes()
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return calls, files


class TestParserReuse:
    """``main`` keeps one parser; every call reads as with a fresh one."""

    SEQUENCE = [
        ["test", "d.csv", "--seed", "-1"],
        ["--version"],
        ["test", "d.csv", "--depth", "2", "--sims", "200", "--seed", "3",
         "--cache-dir", "cache", "--report", "test.json"],
        ["interpret", "d.csv", "--depth", "2", "--reference", "y",
         "--report", "plot.json"],
        ["null-table", "--m", "24", "--n", "24", "--depth", "1", "--sims", "150",
         "--cache-dir", "cache"],
        ["power", "--families", "null", "--params", "0", "--tests", "august,ks",
         "--m", "16", "--n", "16", "--depth", "1", "--reps", "100", "--sims", "100",
         "--permutations", "100", "--cache-dir", "cache", "--report", "power.csv"],
        ["interpret", "d.csv"],
    ]
    SEQUENCE.append(SEQUENCE[2])  # a cache hit now

    @pytest.fixture()
    def dirs(self, workdir, monkeypatch):
        rng = np.random.default_rng(19)
        x, y = rng.normal(size=30), rng.normal(0.5, 1.0, size=35)
        monkeypatch.chdir(workdir)  # restored after the test
        for name in ("kept", "fresh"):
            (workdir / name).mkdir()
            write_labeled(str(workdir / name / "d.csv"), x, y)
        return workdir / "kept", workdir / "fresh"

    @staticmethod
    def recording(parse_args, namespaces):
        def parse(argv):
            args = parse_args(argv)
            namespaces.append(vars(args))
            return args
        return parse

    @pytest.fixture()
    def cold_parser(self):
        """No parser is kept when the test starts, nor after it."""
        cached = august.cli._parser
        cached.cache_clear()
        yield
        cached.cache_clear()

    def test_every_call_reads_as_with_a_fresh_parser(self, cold_parser, dirs,
                                                      monkeypatch, capsys):
        kept_dir, fresh_dir = dirs
        built, kept, fresh = [], [], []

        def counting_build():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(august.cli, "build_parser", counting_build)
        parser = august.cli._parser()
        monkeypatch.setattr(parser, "parse_args",
                            self.recording(parser.parse_args, kept))
        kept_run = run_in(kept_dir, self.SEQUENCE, capsys)
        assert len(built) == 1

        def fresh_parser():
            parser = build_parser()
            parser.parse_args = self.recording(parser.parse_args, fresh)
            return parser

        monkeypatch.setattr(august.cli, "_parser", fresh_parser)
        fresh_run = run_in(fresh_dir, self.SEQUENCE, capsys)

        assert kept_run == fresh_run
        codes = [code for code, _, _ in kept_run[0]]
        assert codes == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
                         EXIT_USAGE, EXIT_OK]
        assert '"cache_hit": true' in kept_run[1]["test.json"].decode()
        assert {"test.json", "plot.json", "power.csv"} <= set(kept_run[1])
        # --version and the two usage errors return no namespace.
        assert len(kept) == 5 and kept == fresh

    def test_build_parser_returns_a_new_parser(self, workdir, capsys):
        ours = build_parser()
        assert ours is not build_parser() and ours is not august.cli._parser()
        assert august.cli._parser() is august.cli._parser()
        # Mutating a parser that build_parser returned leaves main alone.
        ours.set_defaults(subcommand="mutated")
        test_parser = ours._subparsers._group_actions[0].choices["test"]
        test_parser.set_defaults(func=None, sims=5)
        rng = np.random.default_rng(20)
        data = str(workdir / "d.csv")
        write_labeled(data, rng.normal(size=30), rng.normal(size=35))
        report = str(workdir / "r.json")
        assert main(["test", data, "--depth", "1", "--cache-dir",
                     str(workdir / "cache"), "--report", report]) == EXIT_OK
        config = json.load(open(report))["config"]
        assert config["subcommand"] == "test" and config["sims"] == 10_000

    def test_no_default_is_shared_between_parses(self):
        parser = august.cli._parser()
        subparsers = parser._subparsers._group_actions[0].choices.values()
        for each in (parser, *subparsers):
            defaults = [action.default for action in each._actions]
            defaults += list(each._defaults.values())
            assert not [d for d in defaults if isinstance(d, (list, dict, set))]
        first = parser.parse_args(["power"])
        first.tests.append("ks")
        assert parser.parse_args(["power"]).tests == ["august"]
        data = parser.parse_args(["test", "a.csv"]).data
        data.append("b.csv")
        assert parser.parse_args(["test", "a.csv"]).data == ["a.csv"]

    @pytest.mark.parametrize("argv, code", [
        (["--version"], EXIT_OK),
        (["test", "d.csv", "--seed", "-1"], EXIT_USAGE),
    ])
    def test_fresh_interpreter(self, argv, code, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-m", "august.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == code, done.stderr

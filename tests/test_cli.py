import csv
import json
import math
from dataclasses import asdict

import pytest

from moealab import (
    ArchiveConfig,
    ComplexityReport,
    LocalSearchConfig,
    RunConfig,
    VariationConfig,
)
from moealab import cli
from moealab.cli import _load, main
from oracles import oracle_pairwise_nondominating


def write_config(path, **entries):
    path.write_text(json.dumps(entries))
    return str(path)


def sch_config(tmp_path, **overrides):
    entries = dict(
        problem="sch",
        population_size=10,
        max_evaluations=200,
        seed=5,
        archive={"kind": "grid", "capacity": 20, "divisions": 8},
    )
    entries.update(overrides)
    return write_config(tmp_path / "config.json", **entries)


def read_front_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    f_cols = [i for i, name in enumerate(header) if name.startswith("f")]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(tuple(float(parts[i]) for i in f_cols))
    return rows


class TestCmdRun:
    def test_minimal_run_writes_three_outputs_with_nondominated_front(self, tmp_path):
        config = sch_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        front = out / "front_seed5.csv"
        stats = out / "stats_seed5.jsonl"
        summary = out / "summary.json"
        assert front.exists() and stats.exists() and summary.exists()
        assert oracle_pairwise_nondominating(read_front_rows(front))
        header = front.read_text().splitlines()[0]
        assert header == "id,x0,f1,f2"
        for line in stats.read_text().strip().splitlines():
            record = json.loads(line)
            assert {"generation", "evaluations_done", "archive_size"} <= set(record)

    def test_repeats_use_derived_seeds(self, tmp_path):
        config = sch_config(tmp_path, repeats=3)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        fronts = sorted(p.name for p in out.glob("front_seed*.csv"))
        assert fronts == ["front_seed5.csv", "front_seed6.csv", "front_seed7.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert [r["seed"] for r in summary["repeats"]] == [5, 6, 7]

    def test_unknown_archiver_kind_exits_2(self, tmp_path):
        config = sch_config(tmp_path, archive={"kind": "btree"})
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = sch_config(tmp_path, colour="red")
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "archive, bounds",
        [
            (
                {"kind": "grid", "grid_lower": [4, 4], "grid_upper": [0, 0]},
                "(4.0, 4.0) must be strictly below grid_upper (0.0, 0.0)",
            ),
            # the default upper bound is 1 on every axis
            (
                {"kind": "grid", "grid_lower": [2, 0.5]},
                "(2.0, 0.5) must be strictly below grid_upper (1.0, 1.0)",
            ),
        ],
    )
    def test_grid_lower_not_below_upper_exits_2(self, tmp_path, capsys, archive, bounds):
        config = sch_config(tmp_path, archive=archive)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: archive grid_lower {bounds} on every axis\n"
        )
        assert not (tmp_path / "o").exists()

    # sch has two objectives
    @pytest.mark.parametrize(
        "archive",
        [
            {"kind": "grid", "grid_lower": [0, 0, 0]},
            {"kind": "grid", "grid_upper": [1]},
        ],
    )
    def test_grid_bounds_of_another_length_exit_2(self, tmp_path, capsys, archive):
        config = sch_config(tmp_path, archive=archive)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: grid bounds must match the problem's objective count\n"
        )
        assert not (tmp_path / "o").exists()

    def test_oversized_lattice_exits_2_before_running(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json", problem="lattice:101:0", max_evaluations=100
        )
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: lattice:101:0 has 10201 points, above the "
            "10000-point enumeration guard\n"
        )
        assert not out.exists()

    def test_override_flags_reach_the_run(self, tmp_path):
        config = sch_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "run", "--config", config, "--out", str(out),
                "--seed", "9", "--max-evaluations", "150",
            ]
        )
        assert code == 0
        assert (out / "front_seed9.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["max_evaluations"] == 150

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ({"population_size": "40"}, "config.population_size must be int, got str '40'"),
            ({"seed": 1.5}, "config.seed must be int, got float 1.5"),
            (
                {"archive": {"kind": "grid", "capacity": "10"}},
                "config.archive.capacity must be int, got str '10'",
            ),
            (
                {"variation": {"mutation_spread": None}},
                "config.variation.mutation_spread must be float, got null",
            ),
            ({"problem": 3}, "config.problem must be str, got int 3"),
            (
                {"archive": {"kind": "grid", "grid_lower": 5}},
                "config.archive.grid_lower must be a list of numbers or null, got int 5",
            ),
            (
                {"local_search": {"steps": 1.5}},
                "config.local_search.steps must be int, got float 1.5",
            ),
            ({"repeats": True}, "config.repeats must be int, got bool True"),
            (
                {"metrics_every": "2"},
                "config.metrics_every must be int or null, got str '2'",
            ),
            (
                {"variation": {"crossover_prob": True}},
                "config.variation.crossover_prob must be float, got bool True",
            ),
        ],
    )
    def test_wrongly_typed_value_exits_2_naming_key_and_type(
        self, tmp_path, capsys, entries, expected
    ):
        config = sch_config(tmp_path, **entries)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "o").exists()

    def test_summary_config_block_keeps_the_numbers_as_given(self, tmp_path):
        # ints in float fields stay ints, as asdict wrote them before the typed
        # loader; grid bounds become float tuples
        config = write_config(
            tmp_path / "config.json",
            problem="sch",
            population_size=10,
            max_evaluations=300,
            seed=3,
            metrics_every=5,
            archive={
                "kind": "grid", "capacity": 20, "divisions": 8, "inflation": 0,
                "grid_lower": [0, 0], "grid_upper": [4, 4],
            },
            variation={"crossover_prob": 1, "mutation_prob": None},
            local_search={"steps": 2, "step_scale": 0.1},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert json.dumps(summary["config"], sort_keys=True) == (
            '{"archive": {"capacity": 20, "divisions": 8, "grid_lower": [0.0, 0.0], '
            '"grid_upper": [4.0, 4.0], "inflation": 0, "kind": "grid", '
            '"rays_per_axis": 64}, "local_search": {"step_scale": 0.1, "steps": 2}, '
            '"max_evaluations": 300, "metrics_every": 5, "population_size": 10, '
            '"preset": null, '
            '"problem": "sch", "replacement_count": 1, "seed": 3, "variation": '
            '{"archive_parent_prob": 0.5, "crossover_prob": 1, '
            '"crossover_spread": 15.0, "mutation_prob": null, "mutation_spread": 20.0}}'
        )

    def test_byte_identical_reruns(self, tmp_path):
        config = sch_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out", str(out_b)]) == 0
        for name in ("front_seed5.csv", "stats_seed5.jsonl", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCmdCompare:
    def compare_config(self, tmp_path, variants):
        return write_config(
            tmp_path / "compare.json",
            problem="lattice:12:3",
            population_size=10,
            max_evaluations=300,
            replacement_count=10,
            seed=2,
            variants=variants,
        )

    def test_two_variants_produce_table_with_expected_columns(self, tmp_path):
        config = self.compare_config(
            tmp_path,
            [
                {"name": "rn", "archive": {"kind": "rn", "capacity": 12}},
                {"name": "gps", "archive": {"kind": "gps", "rays_per_axis": 24}},
            ],
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", config, "--out", str(out)]) == 0
        header = (out / "compare.csv").read_text().splitlines()[0].split(",")
        assert "deterioration_events" in header
        assert "gps_monotonic" in header
        assert "coverage_over_rn" in header and "coverage_over_gps" in header
        payload = json.loads((out / "compare.json").read_text())
        gps_rows = [r for r in payload["rows"] if r["variant"] == "gps"]
        assert gps_rows and all(r["gps_monotonic"] is True for r in gps_rows)

    def test_single_variant_exits_2(self, tmp_path):
        config = self.compare_config(
            tmp_path, [{"name": "only", "archive": {"kind": "rn"}}]
        )
        assert main(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 2

    def test_identical_variants_give_identical_metric_rows(self, tmp_path):
        config = self.compare_config(
            tmp_path,
            [
                {"name": "a", "archive": {"kind": "grid", "capacity": 15}},
                {"name": "b", "archive": {"kind": "grid", "capacity": 15}},
            ],
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", config, "--out", str(out)]) == 0
        payload = json.loads((out / "compare.json").read_text())
        row_a = next(r for r in payload["rows"] if r["variant"] == "a")
        row_b = next(r for r in payload["rows"] if r["variant"] == "b")
        for key in ("gd", "spacing", "front_size", "deterioration_events"):
            assert row_a[key] == row_b[key]
        assert row_a["coverage_over_b"] == 1.0
        assert row_b["coverage_over_a"] == 1.0


    def test_names_with_commas_quotes_and_line_breaks_stay_valid_csv(self, tmp_path):
        names = ["rn,small", 'g\nx "q"']
        config = self.compare_config(
            tmp_path,
            [
                {"name": names[0], "archive": {"kind": "rn", "capacity": 12}},
                {"name": names[1], "archive": {"kind": "grid", "capacity": 12}},
            ],
        )
        out = tmp_path / "cmp"
        assert main(["compare", "--config", config, "--out", str(out)]) == 0
        with (out / "compare.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [f"coverage_over_{name}" for name in names] == header[5:7]
        assert [row[0] for row in rows] == names
        assert {len(row) for row in rows} == {len(header)}

    def test_variant_names_that_print_alike_exit_2(self, tmp_path, capsys):
        config = self.compare_config(
            tmp_path,
            [
                {"name": 1, "archive": {"kind": "rn"}},
                {"name": "1", "archive": {"kind": "gps"}},
            ],
        )
        assert main(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "variants[0].name must be str, got int 1" in capsys.readouterr().err


_GUARD = "above the 10000-point enumeration guard"
_HUGE = 10**400
_TOO_LARGE = "must be at most the largest float, 1.7976931348623157e+308"


class TestBadInputExits2:
    """Every bad input exits 2 with one configuration-error line, before
    anything is written."""

    @pytest.mark.parametrize(
        "problem, message",
        [
            # lattice:101:0 is TestCmdRun::test_oversized_lattice_exits_2_before_running
            ("lattice:0:0", "lattice size must be >= 1, got 0"),
            ("lattice:1000000:0", f"lattice:1000000:0 has 1000000000000 points, {_GUARD}"),
            ("lattice:5:-1", "lattice seed must be >= 0, got -1"),
        ],
    )
    def test_run_bad_lattice(self, tmp_path, capsys, problem, message):
        config = sch_config(tmp_path, problem=problem, max_evaluations=100)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_run_negative_seed(self, tmp_path, capsys):
        config = sch_config(tmp_path, seed=-1)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_compare_negative_seed(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "compare.json",
            problem="lattice:12:3",
            population_size=10,
            max_evaluations=300,
            seed=-1,
            variants=[{"archive": {"kind": "rn"}}, {"archive": {"kind": "gps"}}],
        )
        out = tmp_path / "o"
        assert main(["compare", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "literal, shown",
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")],
    )
    @pytest.mark.parametrize(
        "key, entries",
        [
            ("archive.inflation", {"archive": {"kind": "grid", "inflation": "@"}}),
            ("archive.grid_upper", {"archive": {"kind": "grid", "grid_upper": ["@", 1]}}),
            ("variation.mutation_spread", {"variation": {"mutation_spread": "@"}}),
            ("local_search.step_scale", {"local_search": {"step_scale": "@"}}),
        ],
    )
    def test_run_non_finite_number(self, tmp_path, capsys, literal, shown, key, entries):
        # Python's json reads these literals; the config loader must refuse them
        config = tmp_path / "config.json"
        text = json.dumps({"problem": "sch", "max_evaluations": 100, **entries})
        config.write_text(text.replace('"@"', literal))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        message = f"configuration error: config.{key} must be finite, got float {shown}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_run_int_literal_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        config = tmp_path / "config.json"
        config.write_text('{"problem": "sch", "seed": 1' + "0" * 5000 + "}")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: malformed JSON in {config}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("run", "@"),
            ("compare", '{"problem": "sch", "variants": @}'),
        ],
        ids=["run", "compare"],
    )
    def test_json_nested_too_deeply(self, tmp_path, capsys, command, text):
        # json.loads raises RecursionError here, which is not a ValueError
        config = tmp_path / "config.json"
        config.write_text(text.replace("@", "[" * 100_000 + "]" * 100_000))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        message = f"configuration error: malformed JSON in {config}: nested too deeply\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    # keys that once repeated a fact stated elsewhere: M is the problem's, and
    # local search runs exactly when its steps are above 0
    @pytest.mark.parametrize(
        "command, base, variant, unknown",
        [
            ("run", {"m": 2}, None, "config: ['m']"),
            ("run", {"local_search": {"enabled": True}}, None,
             "config.local_search: ['enabled']"),
            ("compare", {"m": 2}, {}, "config: ['m']"),
            ("compare", {"local_search": {"enabled": True}}, {},
             "config.local_search: ['enabled']"),
            ("compare", {}, {"m": 2}, "variants[1]: ['m']"),
            ("compare", {}, {"local_search": {"enabled": True, "steps": 2}},
             "variants[1].local_search: ['enabled']"),
        ],
        ids=[
            "run-m", "run-enabled", "compare-m", "compare-enabled",
            "compare-variant-m", "compare-variant-enabled",
        ],
    )
    def test_removed_key(self, tmp_path, capsys, command, base, variant, unknown):
        if command == "run":
            config = sch_config(tmp_path, **base)
        else:
            variants = [{"archive": {"kind": "rn"}}, {"archive": {"kind": "gps"}, **variant}]
            config = write_config(
                tmp_path / "compare.json", problem="sch", variants=variants, **base
            )
        out = tmp_path / "o"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: unknown keys in {unknown}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("run", '{"problem": "sch", "seed": 1, "seed": 7}', "seed"),
            ("run", '{"problem": "sch", "archive": {"kind": "rn", "kind": "grid"}}', "kind"),
            ("compare", '{"problem": "sch", "seed": 1, "seed": 7, "variants": @}', "seed"),
            (
                "compare",
                '{"problem": "sch", "variants": [{"archive": {"kind": "rn", "kind": "grid"}}]}',
                "kind",
            ),
        ],
        ids=["run-top-level", "run-archive", "compare-top-level", "compare-archive"],
    )
    def test_repeated_key(self, tmp_path, capsys, command, text, key):
        # json.loads alone keeps the last value of a repeated key
        variants = '[{"archive": {"kind": "rn"}}, {"archive": {"kind": "gps"}}]'
        config = tmp_path / "config.json"
        config.write_text(text.replace("@", variants))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        message = f"configuration error: repeated key {key!r} in {config}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries, shown",
        [
            (
                {"archive": {"kind": "grid", "inflation": "1" + "0" * 400}},
                "config.archive.inflation must be finite, got int 1" + "0" * 59 + "… (401 digits)",
            ),
            (
                {"problem": 10**80},
                "config.problem must be str, got int 1" + "0" * 59 + "… (81 digits)",
            ),
            (
                {"seed": "x" * 500},
                "config.seed must be int, got str '" + "x" * 59 + "… (502 characters)",
            ),
        ],
    )
    def test_long_value_is_cut_in_the_message(self, tmp_path, capsys, entries, shown):
        config = tmp_path / "config.json"
        text = json.dumps({"problem": "sch", "max_evaluations": 100, **entries})
        config.write_text(text.replace('"1' + "0" * 400 + '"', "1" + "0" * 400))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {shown}\n"
        assert len(err) < 160

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, monkeypatch, command, below):
        def never(*args, **kwargs):
            pytest.fail("ran before the output directory was created")

        monkeypatch.setattr(cli, "run", never)
        monkeypatch.setattr(cli, "complexity_sweep", never)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        if command == "run":
            argv = ["run", "--config", sch_config(tmp_path)]
        elif command == "compare":
            config = write_config(
                tmp_path / "compare.json",
                problem="sch",
                variants=[{"archive": {"kind": "rn"}}, {"archive": {"kind": "gps"}}],
            )
            argv = ["compare", "--config", config]
        else:
            argv = ["sweep", "--archiver", "rn", "--sizes", "5,10"]
        before = sorted(tmp_path.iterdir())
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {out}: ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before
        assert blocker.read_text() == "kept\n"

    def test_sweep_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["sweep", "--archiver", "gps", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "lattice size must be >= 1, got 0"),
            (["--k", "101"], f"lattice:101:0 has 10201 points, {_GUARD}"),
            (["--k", "5", "--seed", "-1"], "lattice seed must be >= 0, got -1"),
        ],
    )
    def test_oracle_check_bad_lattice(self, capsys, flags, message):
        assert main(["oracle-check", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""

    # grid and gps scale by their count as a float, which 10**400 overflows
    @pytest.mark.parametrize(
        "archive, name",
        [
            ({"kind": "grid", "divisions": _HUGE}, "divisions"),
            ({"kind": "gps", "rays_per_axis": _HUGE}, "rays_per_axis"),
        ],
    )
    def test_run_count_past_the_largest_float(self, tmp_path, capsys, archive, name):
        config = sch_config(tmp_path, archive=archive)
        out = tmp_path / "o"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {name} {_TOO_LARGE}\n"
        assert not out.exists()

    def test_compare_count_past_the_largest_float(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "compare.json",
            problem="sch",
            variants=[
                {"archive": {"kind": "rn"}},
                {"archive": {"kind": "grid", "divisions": _HUGE}},
            ],
        )
        out = tmp_path / "o"
        assert main(["compare", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: divisions {_TOO_LARGE}\n"
        assert not out.exists()

    def test_compare_grid_bounds_in_a_later_variant(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "compare.json",
            problem="sch",
            variants=[
                {"archive": {"kind": "rn"}},
                {"archive": {"kind": "grid", "grid_lower": [1, 0]}},
            ],
        )
        out = tmp_path / "o"
        assert main(["compare", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: archive grid_lower (1.0, 0.0) must be strictly "
            "below grid_upper (1.0, 1.0) on every axis\n"
        )
        assert not out.exists()

    # numpy would refuse either stream without allocating it, so a missing
    # check fails this test instead of using memory
    @pytest.mark.parametrize("size", [_HUGE, 2**62], ids=["401-digit", "2**62"])
    def test_sweep_size_past_numpy_s_array_limit(self, tmp_path, capsys, size):
        out = tmp_path / "o"
        code = main(
            ["sweep", "--archiver", "rn", "--sizes", f"5,{size}", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: --sizes must all be at most 288230376151711743, "
            "the largest whose measured stream numpy can hold\n"
        )
        assert not out.exists()

    def test_sweep_repeated_size_among_distinct_ones(self, tmp_path, capsys):
        # two distinct sizes and a repeat would fit a zero-width interval
        out = tmp_path / "o"
        code = main(["sweep", "--archiver", "gps", "--sizes", "3,2,3", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: --sizes must be distinct, got 3 more than once\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name", [("--divisions", "divisions"), ("--rays", "rays_per_axis")]
    )
    def test_oracle_check_count_past_the_largest_float(
        self, tmp_path, capsys, monkeypatch, flag, name
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["oracle-check", "--k", "5", flag, str(_HUGE)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {name} {_TOO_LARGE}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestConfigLoader:
    @pytest.mark.parametrize(
        "config",
        [ArchiveConfig("grid"), VariationConfig(), LocalSearchConfig(), RunConfig("sch")],
        ids=lambda config: type(config).__name__,
    )
    def test_every_field_at_its_default_round_trips(self, config):
        data = json.loads(json.dumps(asdict(config)))
        assert _load(type(config), data, "config") == config


class TestCmdSweep:
    def test_writes_report_and_csv(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--archiver", "gps", "--sizes", "8,16,32", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "sweep_gps.json").read_text())
        assert report["archiver"] == "gps"
        assert len(report["entries"]) == 3
        csv_lines = (out / "sweep_gps.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "n,mean_comparisons"
        assert len(csv_lines) == 4

    @staticmethod
    def strict_report(path):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        return json.loads(path.read_text(), parse_constant=refuse)

    def test_two_sizes_write_an_unbounded_interval_as_nulls(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--archiver", "rn", "--sizes", "1,2", "--out", str(out)])
        assert code == 0
        report = self.strict_report(out / "sweep_rn.json")
        assert report["cmp_slope"] == 1.0
        assert report["slope_ci"] == [None, None]

    def test_constant_means_write_an_undefined_interval_as_nulls(
        self, tmp_path, monkeypatch
    ):
        def constant(kind, sizes, seed):
            entries = tuple((size, 1.0) for size in sizes)
            return ComplexityReport(kind, entries, 0.0, (math.nan, math.nan))

        monkeypatch.setattr(cli, "complexity_sweep", constant)
        out = tmp_path / "sweep"
        code = main(["sweep", "--archiver", "gps", "--sizes", "8,16,32", "--out", str(out)])
        assert code == 0
        assert self.strict_report(out / "sweep_gps.json")["slope_ci"] == [None, None]

    def test_single_size_exits_2(self, tmp_path):
        assert main(
            ["sweep", "--archiver", "rn", "--sizes", "25", "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize(
        "sizes, problem",
        [
            (",".join(["0"] * 5000), "must all be >= 1"),
            (",".join(["x"] * 5000), "bad --sizes value"),
            ("," * 5000 + "7", "needs at least 2 sizes"),
        ],
        ids=["zeros", "not-integers", "one-size"],
    )
    def test_a_long_sizes_string_is_cut_in_the_error_line(
        self, tmp_path, capsys, sizes, problem
    ):
        out = tmp_path / "o"
        code = main(["sweep", "--archiver", "gps", "--sizes", sizes, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert problem in line
        assert f"… ({len(repr(sizes))} characters)" in line
        assert len(line) < 200
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes, line",
        [
            ("0,5", "--sizes must all be >= 1, got '0,5'"),
            ("5,x", "bad --sizes value '5,x'"),
            ("7", "sweep needs at least 2 sizes, got '7'"),
        ],
        ids=["zero", "not-an-integer", "one-size"],
    )
    def test_a_short_sizes_string_is_shown_whole(self, tmp_path, capsys, sizes, line):
        out = tmp_path / "o"
        code = main(["sweep", "--archiver", "gps", "--sizes", sizes, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["0,5", "5,5"])
    def test_non_positive_or_repeated_sizes_exit_2(self, tmp_path, sizes):
        assert main(
            ["sweep", "--archiver", "rn", "--sizes", sizes, "--out", str(tmp_path)]
        ) == 2

    def test_unknown_archiver_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--archiver", "hash", "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestCmdOracleCheck:
    def test_tiny_lattice_all_archivers_pass(self, capsys):
        assert main(["oracle-check", "--k", "1", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("retained 1/1" in line for line in lines)

    def test_small_lattice_passes(self):
        assert main(["oracle-check", "--k", "12", "--seed", "1"]) == 0

    def test_oversized_lattice_exits_2(self):
        assert main(["oracle-check", "--k", "101", "--seed", "0"]) == 2

"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data.io import read_result_file, write_strings


@pytest.fixture()
def city_files(tmp_path):
    data = tmp_path / "cities.txt"
    queries = tmp_path / "queries.txt"
    write_strings(data, ["Berlin", "Bern", "Ulm", "Hamburg"])
    write_strings(queries, ["Bern", "Hamburk", "zzz"])
    return data, queries


class TestSearchCommand:
    def test_writes_result_file(self, city_files, tmp_path, capsys):
        data, queries = city_files
        output = tmp_path / "results.txt"
        exit_code = main([
            "search", str(data), str(queries), "-k", "1",
            "-o", str(output),
        ])
        assert exit_code == 0
        rows = read_result_file(output)
        assert rows[0] == ("Bern", ["Bern"])
        assert rows[1] == ("Hamburk", ["Hamburg"])
        assert rows[2] == ("zzz", [])

    def test_stdout_mode(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "0"]) == 0
        captured = capsys.readouterr()
        assert "Bern\tBern" in captured.out
        assert "backend:" in captured.err

    def test_forced_backend(self, city_files, capsys):
        data, queries = city_files
        main(["search", str(data), str(queries), "-k", "1",
              "--backend", "indexed"])
        assert "indexed" in capsys.readouterr().err

    def test_thread_runner(self, city_files, tmp_path):
        data, queries = city_files
        output = tmp_path / "results.txt"
        assert main([
            "search", str(data), str(queries), "-k", "1",
            "-o", str(output), "--runner", "threads:2",
        ]) == 0
        assert read_result_file(output)[0] == ("Bern", ["Bern"])

    def test_batch_mode_identical_results(self, city_files, tmp_path):
        data, queries = city_files
        plain = tmp_path / "plain.txt"
        batched = tmp_path / "batched.txt"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(plain)]) == 0
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(batched), "--batch"]) == 0
        assert plain.read_text() == batched.read_text()

    def test_batch_mode_reports_dedup_stats(self, city_files, tmp_path,
                                            capsys):
        data, _ = city_files
        queries = tmp_path / "repeats.txt"
        write_strings(queries, ["Bern", "Bern", "Bern", "Ulm"])
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--batch"]) == 0
        err = capsys.readouterr().err
        assert "batch: 2 unique of 4 queries" in err

    def test_compiled_backend(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--backend", "compiled"]) == 0
        assert "compiled" in capsys.readouterr().err

    def test_bad_runner_spec_is_an_error(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--runner", "gpu"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        with pytest.raises(FileNotFoundError):
            main(["search", str(missing), str(missing), "-k", "1"])

    def test_save_segment_then_segment_round_trip(self, city_files,
                                                  tmp_path, capsys):
        data, queries = city_files
        segment = tmp_path / "corpus.seg"
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(first),
                     "--save-segment", str(segment)]) == 0
        assert segment.exists()
        assert "segment: compiled corpus saved" in \
            capsys.readouterr().err
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(second), "--segment", str(segment)]) == 0
        assert "segment-backed corpus" in capsys.readouterr().err
        assert first.read_text() == second.read_text()

    def test_segment_builds_the_file_when_missing(self, city_files,
                                                  tmp_path):
        data, queries = city_files
        segment = tmp_path / "fresh.seg"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--segment", str(segment),
                     "-o", str(tmp_path / "out.txt")]) == 0
        assert segment.exists()

    def test_segment_conflicts_are_errors(self, city_files, tmp_path,
                                          capsys):
        data, queries = city_files
        segment = tmp_path / "corpus.seg"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--segment", str(segment),
                     "--backend", "indexed"]) == 2
        assert "--segment" in capsys.readouterr().err
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--segment", str(segment), "--service"]) == 2
        assert "engine path" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_slowlog_prints_slowest_queries_with_stages(
            self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--slowlog", "2"]) == 0
        err = capsys.readouterr().err
        assert "slowlog: top 2 of 3 queries" in err
        assert "stage scan.search:" in err
        assert "scan.candidates = " in err

    def test_slowlog_on_the_compiled_backend(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--backend", "compiled", "--slowlog", "1"]) == 0
        err = capsys.readouterr().err
        assert "backend=compiled-scan" in err
        assert "stage scan.query:" in err

    def test_slowlog_on_the_service_path(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--service", "--slowlog", "3"]) == 0
        err = capsys.readouterr().err
        assert "slowlog:" in err
        assert "backend=service[ladder]" in err

    def test_slowlog_must_be_positive(self, city_files, capsys):
        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--slowlog", "0"]) == 2
        assert "slowlog" in capsys.readouterr().err

    def test_trace_out_writes_valid_trace_event_json(
            self, city_files, tmp_path, capsys):
        import json

        data, queries = city_files
        trace = tmp_path / "trace.json"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--trace-out", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "spans written, 0 dropped" in err
        document = json.loads(trace.read_text(encoding="utf-8"))
        spans = [event for event in document["traceEvents"]
                 if event.get("ph") == "X"]
        assert spans, document
        assert any(event["name"].startswith("engine.")
                   for event in spans)
        self._assert_one_tree(spans)

    @staticmethod
    def _assert_one_tree(spans):
        """One ``cli.search`` root; every other span hangs off it."""
        roots = [event for event in spans
                 if not event["args"]["parent_id"]]
        assert [event["name"] for event in roots] == ["cli.search"]
        known = {event["args"]["span_id"] for event in spans}
        for event in spans:
            assert event["args"]["trace_id"] \
                == roots[0]["args"]["trace_id"]
            assert event["args"]["parent_id"] in known | {""}

    def test_trace_out_shows_process_pool_worker_lanes(
            self, city_files, tmp_path):
        import json

        data, queries = city_files
        trace = tmp_path / "pool.json"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--batch", "--runner", "processes:2",
                     "--trace-out", str(trace)]) == 0
        document = json.loads(trace.read_text(encoding="utf-8"))
        spans = [event for event in document["traceEvents"]
                 if event.get("ph") == "X"]
        self._assert_one_tree(spans)
        assert len({event["pid"] for event in spans}) > 1

    def test_trace_out_on_the_service_path(self, city_files, tmp_path):
        import json

        data, queries = city_files
        trace = tmp_path / "svc.json"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--service", "--trace-out", str(trace)]) == 0
        document = json.loads(trace.read_text(encoding="utf-8"))
        spans = [event for event in document["traceEvents"]
                 if event.get("ph") == "X"]
        assert any(event["name"] == "service.submit" for event in spans)
        self._assert_one_tree(spans)

    def test_flags_compose_with_stats_and_results_stay_identical(
            self, city_files, tmp_path, capsys):
        data, queries = city_files
        plain = tmp_path / "plain.txt"
        observed = tmp_path / "observed.txt"
        trace = tmp_path / "trace.json"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(plain)]) == 0
        assert main(["search", str(data), str(queries), "-k", "1",
                     "-o", str(observed), "--stats", "--slowlog", "2",
                     "--trace-out", str(trace)]) == 0
        assert plain.read_text() == observed.read_text()


class TestGenerateCommand:
    def test_generate_cities(self, tmp_path):
        output = tmp_path / "cities.txt"
        assert main(["generate", "cities", "-n", "25",
                     "-o", str(output)]) == 0
        from repro.data.io import read_strings

        assert len(read_strings(output)) == 25

    def test_generate_dna(self, tmp_path):
        output = tmp_path / "reads.txt"
        assert main(["generate", "dna", "-n", "10",
                     "-o", str(output)]) == 0
        from repro.data.io import read_strings

        reads = read_strings(output)
        assert len(reads) == 10
        assert set("".join(reads)) <= set("ACGNT")

    def test_seed_reproducibility(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["generate", "cities", "-n", "10", "-o", str(a),
              "--seed", "42"])
        main(["generate", "cities", "-n", "10", "-o", str(b),
              "--seed", "42"])
        assert a.read_text() == b.read_text()


class TestStatsCommand:
    def test_reports_table_one_properties(self, city_files, capsys):
        data, _ = city_files
        assert main(["stats", str(data)]) == 0
        out = capsys.readouterr().out
        assert "strings:" in out
        assert "alphabet size:" in out
        assert "length:" in out


class TestDistanceCommand:
    def test_plain_distance(self, capsys):
        assert main(["distance", "AGGCGT", "AGAGT"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_matrix_mode_prints_figure_one(self, capsys):
        assert main(["distance", "AGGCGT", "AGAGT", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "edit distance: 2" in out
        assert "A" in out and "G" in out


class TestSuggestCommand:
    def test_ranked_suggestions(self, city_files, capsys):
        data, _ = city_files
        assert main(["suggest", str(data), "Hamburk", "-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Hamburg\t1"
        assert len(lines) == 2

    def test_count_larger_than_dataset(self, city_files, capsys):
        data, _ = city_files
        assert main(["suggest", str(data), "Bern", "-n", "99"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4


class TestCompleteCommand:
    def test_prefix_completion(self, city_files, capsys):
        data, _ = city_files
        assert main(["complete", str(data), "Ber", "-k", "0"]) == 0
        out = capsys.readouterr().out
        assert "Berlin\t0" in out
        assert "Bern\t0" in out
        assert "Hamburg" not in out

    def test_typo_in_prefix(self, city_files, capsys):
        data, _ = city_files
        assert main(["complete", str(data), "Bwr", "-k", "1",
                     "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "Berlin\t1" in out


class TestJoinCommand:
    def test_two_sided_join(self, city_files, tmp_path, capsys):
        data, queries = city_files
        output = tmp_path / "pairs.txt"
        assert main(["join", str(queries), str(data), "-k", "1",
                     "-o", str(output)]) == 0
        lines = output.read_text().splitlines()
        assert "Bern\tBern\t0" in lines
        assert "Hamburk\tHamburg\t1" in lines
        assert "pairs" in capsys.readouterr().err

    def test_self_join_to_stdout(self, tmp_path, capsys):
        data = tmp_path / "dup.txt"
        write_strings(data, ["Bern", "Berne", "Ulm"])
        assert main(["join", str(data), "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "Bern\tBerne\t1" in out
        assert "Ulm" not in out

    def test_forced_method(self, city_files, capsys):
        data, queries = city_files
        for method in ("scan", "index"):
            assert main(["join", str(queries), str(data), "-k", "1",
                         "--method", method]) == 0


class TestExplainCommand:
    def test_traces_the_layers(self, capsys):
        assert main(["explain", "Bern", "Berlin", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out
        assert "length filter" in out
        assert "kernel dispatch" in out

    def test_no_match_verdict(self, capsys):
        assert main(["explain", "aaaa", "zzzz", "-k", "1"]) == 0
        assert "NO MATCH" in capsys.readouterr().out

    def test_query_plan_mode(self, city_files, capsys):
        data, _ = city_files
        assert main(["explain", "Berlino", "-k", "2",
                     "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "QueryPlan" in out
        for strategy in ("sequential", "compiled", "indexed"):
            assert strategy in out
        assert "qgram" not in out

    def test_query_plan_json(self, city_files, capsys):
        import json

        data, _ = city_files
        assert main(["explain", "Berlino", "-k", "2",
                     "--data", str(data),
                     "--stats-format", "json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        from repro.core.planner import validate_plan

        assert validate_plan(plan) == []
        assert plan["k"] == 2

    def test_query_plan_mode_without_data_is_an_error(self, capsys):
        assert main(["explain", "Berlino", "-k", "2"]) == 2
        assert "--data" in capsys.readouterr().err


class TestSearchExplainFlag:
    def test_explain_skips_execution(self, city_files, tmp_path,
                                     capsys):
        data, queries = city_files
        out_file = tmp_path / "results.txt"
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--explain", "-o", str(out_file)]) == 0
        # The plan went to the output target; no query ran.
        assert "QueryPlan" in out_file.read_text()
        assert "queries in" not in capsys.readouterr().err

    def test_explain_json(self, city_files, capsys):
        import json

        data, queries = city_files
        assert main(["search", str(data), str(queries), "-k", "1",
                     "--explain", "--batch",
                     "--stats-format", "json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["strategy"] in ("compiled", "indexed")
        assert plan["queries"] == 3


class TestBenchCommand:
    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["bench", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestLiveCommand:
    @pytest.fixture()
    def ops_file(self, tmp_path):
        path = tmp_path / "ops.txt"
        path.write_text(
            "# seed, query, mutate, re-query\n"
            "+Berlin\n"
            "+Bern\n"
            "+Ulm\n"
            "?Berlino\n"
            "-Ulm\n"
            "?Ulm\n"
            "\n"
            "+Ulm\n"
            "?Ulm\n"
        )
        return path

    def test_replays_the_script(self, ops_file, capsys):
        assert main(["live", str(ops_file), "-k", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "Berlino\tBerlin", "Ulm", "Ulm\tUlm",
        ]
        assert "4 inserts, 1 deletes, 3 searches" in captured.err

    def test_data_seeds_the_corpus(self, tmp_path, capsys):
        data = tmp_path / "cities.txt"
        write_strings(data, ["Berlin", "Bern"])
        ops = tmp_path / "ops.txt"
        ops.write_text("?Berlino\n")
        assert main(["live", str(ops), "-k", "2",
                     "--data", str(data)]) == 0
        assert capsys.readouterr().out.splitlines() \
            == ["Berlino\tBerlin"]

    def test_scripts_compose_across_runs(self, tmp_path, capsys):
        directory = str(tmp_path / "segments")
        first = tmp_path / "first.txt"
        first.write_text("+Berlin\n+Bern\n")
        second = tmp_path / "second.txt"
        second.write_text("-Bern\n?Berlino\n")
        assert main(["live", str(first), "-k", "2",
                     "--segment-dir", directory]) == 0
        capsys.readouterr()
        assert main(["live", str(second), "-k", "2",
                     "--segment-dir", directory]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["Berlino\tBerlin"]

    def test_compact_folds_segments(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("+aa\n+ab\n+ba\n+bb\n")
        assert main(["live", str(ops), "-k", "0",
                     "--flush-threshold", "2", "--compact"]) == 0
        assert "1 segments" in capsys.readouterr().err

    def test_reopen_conflicts_with_data(self, tmp_path, capsys):
        directory = str(tmp_path / "segments")
        data = tmp_path / "cities.txt"
        write_strings(data, ["Berlin"])
        ops = tmp_path / "ops.txt"
        ops.write_text("?Berlin\n")
        assert main(["live", str(ops), "-k", "0",
                     "--segment-dir", directory]) == 0
        capsys.readouterr()
        assert main(["live", str(ops), "-k", "0",
                     "--segment-dir", directory,
                     "--data", str(data)]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_unknown_operation_is_an_error(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("!Berlin\n")
        assert main(["live", str(ops), "-k", "0"]) == 2
        assert "unknown operation" in capsys.readouterr().err

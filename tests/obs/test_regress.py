"""Tests for the regression tool over the e2e benchmark's result schema.

``python -m repro.obs.regress BASE CURRENT`` reads what
``benchmarks/e2e/run.py`` writes (``out/result.json``) and what
``BENCHMARK.json`` declares (each metric's ``better`` direction and
``bound``). The documents here are small synthetic ones of that shape:
one workload with its untraced run (end-to-end metrics, which gate) and
its traced run (per-layer metrics, which never do).
"""

import json
from pathlib import Path

import pytest

from repro.obs.regress import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    compare_documents,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

CONTRACT = {
    "end_to_end": [
        {"name": "rung1_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ],
    "per_layer": [
        {"name": "scan.rung1_ms", "unit": "ms", "better": "lower"},
        {"name": "traffic.cache.hit_ratio", "unit": "ratio",
         "better": "higher"},
        {"name": "traffic.cache.invalidations", "unit": "count",
         "better": "lower"},
        {"name": "live.flush_ms", "unit": "ms", "better": "lower"},
    ],
}

END_TO_END = {"rung1_ms": 2.0, "ops_per_s": 100.0}
PER_LAYER = {"scan.rung1_ms": 60.0, "traffic.cache.hit_ratio": 0.5,
             "traffic.cache.invalidations": 0.0, "live.flush_ms": 0.0}


def _run(values, counts, failed):
    return {
        "attempted": 100, "failed": failed,
        "metrics": {name: {"value": value, "unit": "any"}
                    for name, value in values.items()},
        "info": {"exact_counts": dict(counts)},
    }


def document(*, comparable=True, matches=7, failed=0, workload="city_batch",
             **values):
    """A result document; keyword values override single metrics."""
    def pick(defaults):
        return {name: values.get(name.replace(".", "_"), default)
                for name, default in defaults.items()}

    counts = {"queries": 100, "matches": matches}
    return {
        "seed": 7, "seconds": 8.0, "comparable": comparable,
        "runs": {
            f"{workload}:0": _run(pick(END_TO_END), counts, failed),
            f"{workload}:1": _run(pick(PER_LAYER), counts, failed),
        },
    }


def diff(baseline, current):
    return compare_documents(baseline, current, CONTRACT)


def layer_names(lines):
    return [line.split()[2].rstrip(":") for line in lines
            if line.startswith("layer ")]


class TestNoiseAwareness:
    """Inside its bound a metric is noise; outside it, in its own worse
    direction, a regression; drift in counts is never noise."""

    def test_self_diff_exits_zero(self):
        code, lines = diff(document(), document())
        assert code == EXIT_OK, lines
        assert lines[-1] == "6 gated comparisons, 0 regressions"

    @pytest.mark.parametrize("metric,inside,outside,improved", [
        ("rung1_ms", 2.4, 2.6, 0.5),        # lower is better
        ("ops_per_s", 80.0, 70.0, 400.0),   # higher is better
    ])
    def test_each_metric_gates_in_its_own_direction(
            self, metric, inside, outside, improved):
        assert diff(document(), document(**{metric: inside}))[0] == EXIT_OK
        assert diff(document(), document(**{metric: improved}))[0] \
            == EXIT_OK
        code, lines = diff(document(), document(**{metric: outside}))
        assert code == EXIT_REGRESSION
        regressions = [line for line in lines
                       if line.startswith("REGRESSION")]
        assert len(regressions) == 1 and metric in regressions[0]
        assert "worse, bound 25%" in regressions[0]

    def test_matches_drift_is_never_excused(self):
        # faster on every metric, but it answered differently
        code, lines = diff(document(matches=7),
                           document(matches=8, rung1_ms=0.1,
                                    ops_per_s=900.0))
        assert code == EXIT_REGRESSION
        assert any("exact counts differ" in line and "'matches': (7, 8)"
                   in line for line in lines)

    def test_higher_failed_share_regresses(self):
        code, lines = diff(document(), document(failed=1))
        assert code == EXIT_REGRESSION
        assert any("failed share: 0/100 -> 1/100" in line
                   for line in lines)
        assert diff(document(failed=1), document())[0] == EXIT_OK

    def test_zero_baseline_reports_the_absolute_change(self):
        # e2e has real zeros (traffic.cache.invalidations on city_serve)
        code, lines = diff(document(), document(
            traffic_cache_invalidations=29.0))
        assert code == EXIT_OK, lines
        assert any("traffic.cache.invalidations" in line
                   and "+29 from 0 worse" in line for line in lines)
        # and a gated metric that starts at 0 still gates
        code, lines = diff(document(rung1_ms=0.0),
                           document(rung1_ms=0.2))
        assert code == EXIT_REGRESSION
        assert any("+0.2 from 0 worse" in line for line in lines)

    @pytest.mark.parametrize("smoke_side", ["baseline", "current"])
    def test_not_comparable_documents_gate_on_counts_only(
            self, smoke_side):
        smoke = document(comparable=False, rung1_ms=20.0, ops_per_s=1.0)
        pair = (smoke, document()) if smoke_side == "baseline" \
            else (document(), smoke)
        code, lines = diff(*pair)
        assert code == EXIT_OK, lines
        assert [line.split()[0] for line in lines
                if " rung1_ms" in line or " ops_per_s" in line] \
            == ["info", "info"]
        assert lines[-1] == "4 gated comparisons, 0 regressions"
        drifted = document(comparable=False, matches=9)
        assert diff(document(), drifted)[0] == EXIT_REGRESSION


class TestLayerTable:
    def test_sorted_by_relative_change_and_never_gates(self):
        code, lines = diff(document(), document(
            scan_rung1_ms=600.0,              # 10x worse
            traffic_cache_hit_ratio=0.25,     # half the hits: 50% worse
            live_flush_ms=0.0))               # 0 on both sides: omitted
        assert code == EXIT_OK, lines
        assert layer_names(lines) == [
            "scan.rung1_ms", "traffic.cache.hit_ratio"]
        code, lines = diff(document(), document(
            scan_rung1_ms=30.0, traffic_cache_hit_ratio=0.4))
        assert code == EXIT_OK
        assert layer_names(lines) == [
            "traffic.cache.hit_ratio", "scan.rung1_ms"]
        assert any("-50.0% better" in line for line in lines)

    def test_metrics_outside_the_contract_are_ignored(self):
        current = document()
        current["runs"]["city_batch:1"]["metrics"]["made.up"] = {
            "value": 1e9, "unit": "s"}
        baseline = document()
        baseline["runs"]["city_batch:1"]["metrics"]["made.up"] = {
            "value": 1.0, "unit": "s"}
        code, lines = diff(baseline, current)
        assert code == EXIT_OK
        assert "made.up" not in "\n".join(lines)


class TestPairing:
    def test_workload_on_one_side_only_warns(self):
        both = document()
        both["runs"].update(document(workload="dna_batch")["runs"])
        code, lines = diff(both, document())
        assert code == EXIT_OK, lines
        assert "warn dna_batch:0 present in baseline only" in lines
        code, lines = diff(document(), both)
        assert code == EXIT_OK, lines
        assert "warn dna_batch:1 new in current (no baseline)" in lines

    def test_another_seed_is_called_out(self):
        other = document(matches=9)
        other["seed"] = 8
        code, lines = diff(document(), other)
        assert code == EXIT_REGRESSION
        assert lines[0].startswith("warn seed differs (7 vs 8)")


class TestErrorPaths:
    def test_invalid_report_exits_two(self):
        # what the retired harnesses wrote: an envelope around embedded
        # SearchReports, or a bare report — not an e2e result
        legacy = {"benchmark": "x", "measurements": {"s": 0.0},
                  "report": {"schema_version": 2, "backend": "compiled"}}
        for broken in (legacy, legacy["report"], [], {"runs": {}},
                       {"runs": {"city_batch:0": {"metrics": {}}}}):
            code, lines = diff(broken, document())
            assert code == EXIT_ERROR
            assert lines[0].startswith("INVALID baseline")
            assert diff(document(), broken)[1][0].startswith(
                "INVALID current")

    def test_nothing_comparable_exits_two(self):
        code, lines = diff(document(), document(workload="dna_batch"))
        assert code == EXIT_ERROR
        assert any("nothing comparable" in line for line in lines)

    def test_not_a_contract_exits_two(self):
        code, lines = compare_documents(document(), document(),
                                        {"runs": {}})
        assert code == EXIT_ERROR
        assert lines[0].startswith("INVALID contract")

    def test_missing_file_exits_two(self, capsys):
        assert main(["/nonexistent/base.json",
                     "/nonexistent/curr.json"]) == EXIT_ERROR
        assert "cannot read" in capsys.readouterr().err


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path):
        def write(name, payload):
            path = tmp_path / name
            path.write_text(json.dumps(payload), encoding="utf-8")
            return str(path)

        return {
            "base": write("base.json", document()),
            "slow": write("slow.json", document(rung1_ms=20.0)),
            "contract": write("contract.json", CONTRACT),
        }

    def test_main_self_diff(self, files, capsys):
        assert main([files["base"], files["base"],
                     "--contract", files["contract"]]) == EXIT_OK
        assert "0 regressions" in capsys.readouterr().out

    def test_main_regression_prints_to_stderr(self, files, capsys):
        assert main([files["base"], files["slow"],
                     "--contract", files["contract"]]) == EXIT_REGRESSION
        assert "REGRESSION city_batch:0 rung1_ms" in capsys.readouterr().err

    def test_reads_the_committed_contract(self, files, capsys, monkeypatch):
        # the default --contract is BENCHMARK.json of the working
        # directory; its six end-to-end metrics carry the bounds
        monkeypatch.chdir(REPO_ROOT)
        assert main([files["base"], files["slow"]]) == EXIT_REGRESSION
        assert "bound 25%" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--median-pct", "--p99-pct", "--noise-floor"])
    def test_tuning_flags_are_gone(self, files, flag, capsys):
        # a bound is something the tool reads, not an option
        with pytest.raises(SystemExit) as caught:
            main([files["base"], files["base"], flag, "400"])
        assert caught.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.io import load_json, save_json


@pytest.fixture
def dataset_path(paper_example, tmp_path):
    path = tmp_path / "dataset.json"
    save_json(paper_example, path)
    return path


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing-dir")]) == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_text_output(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "RBAC inefficiency report" in out
        assert "roles_same_users" in out

    def test_json_output(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["roles_same_users"] == 2

    def test_markdown_output(self, dataset_path, capsys):
        assert (
            main(["analyze", str(dataset_path), "--format", "markdown"]) == 0
        )
        assert "| Inefficiency | Count |" in capsys.readouterr().out

    def test_finder_option(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--finder", "dbscan"]) == 0

    def test_csv_directory_input(self, paper_example, tmp_path, capsys):
        from repro.io import save_csv

        save_csv(paper_example, tmp_path / "csvdir")
        assert main(["analyze", str(tmp_path / "csvdir")]) == 0

    def test_workers_and_block_rows_flags(self, dataset_path, capsys):
        serial = main(
            ["analyze", str(dataset_path), "--format", "json"]
        )
        serial_counts = json.loads(capsys.readouterr().out)["counts"]
        assert serial == 0
        assert (
            main(
                [
                    "analyze",
                    str(dataset_path),
                    "--workers",
                    "2",
                    "--block-rows",
                    "2",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        parallel_counts = json.loads(capsys.readouterr().out)["counts"]
        assert parallel_counts == serial_counts

    def test_workers_zero_means_all_cores(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--workers", "0"]) == 0
        assert "RBAC inefficiency report" in capsys.readouterr().out

    def test_invalid_block_rows_is_cli_error(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--block-rows", "0"]) == 1
        assert "block_rows" in capsys.readouterr().err

    def test_invalid_kernel_is_argparse_error(self, dataset_path, capsys):
        # The scan has one kernel and no --kernel flag: the former
        # choices are rejected too.
        for kernel in ("auto", "sparse", "bits", "gpu"):
            with pytest.raises(SystemExit):
                main(["analyze", str(dataset_path), "--kernel", kernel])
            assert "--kernel" in capsys.readouterr().err


class TestGenerate:
    def test_org_json(self, tmp_path, capsys):
        output = tmp_path / "org.json"
        assert (
            main(
                [
                    "generate", "org", str(output),
                    "--scale-divisor", "500", "--seed", "1",
                ]
            )
            == 0
        )
        state = load_json(output)
        assert state.n_roles == 100
        assert "wrote" in capsys.readouterr().out

    def test_departmental_csv(self, tmp_path, capsys):
        output = tmp_path / "dept"
        assert main(["generate", "departmental", str(output), "--csv"]) == 0
        from repro.io import load_csv

        assert load_csv(output).n_roles > 0


class TestPlan:
    def test_plan_text(self, dataset_path, capsys):
        assert main(["plan", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "remediation plan" in out
        assert "merge roles" in out

    def test_plan_json(self, dataset_path, capsys):
        assert main(["plan", str(dataset_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(a["action"] == "merge_roles" for a in payload["actions"])

    def test_plan_apply_writes_cleaned_dataset(
        self, dataset_path, tmp_path, capsys
    ):
        output = tmp_path / "cleaned.json"
        assert (
            main(["plan", str(dataset_path), "--apply", str(output)]) == 0
        )
        cleaned = load_json(output)
        assert cleaned.n_roles == 2
        assert "roles: 5 -> 2" in capsys.readouterr().out


class TestBench:
    def test_fig2_quick(self, capsys):
        assert (
            main(
                [
                    "bench", "--experiment", "fig2", "--scale", "0.05",
                    "--repeats", "1", "--methods", "cooccurrence",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fig2_users_sweep" in out

    def test_fig3_csv_output(self, capsys):
        assert (
            main(
                [
                    "bench", "--experiment", "fig3", "--scale", "0.05",
                    "--repeats", "1", "--methods", "cooccurrence,hash",
                    "--csv",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("roles,method,mean_seconds")

    def test_real_quick(self, capsys):
        assert (
            main(
                [
                    "bench", "--experiment", "real",
                    "--scale-divisor", "500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "real-dataset experiment" in out
        assert "paper" in out


class TestDiffCommand:
    def test_diff_text(self, paper_example, tmp_path, capsys):
        from repro.remediation import apply_plan, build_plan
        from repro.core import analyze

        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        save_json(paper_example, old_path)
        cleaned = apply_plan(paper_example, build_plan(analyze(paper_example)))
        save_json(cleaned, new_path)
        assert main(["diff", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "analysis delta" in out
        assert "resolved findings" in out

    def test_diff_json(self, dataset_path, capsys):
        assert main(["diff", str(dataset_path), str(dataset_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"] == []
        assert payload["resolved"] == []


class TestAnonymizeCommand:
    def test_anonymize_json(self, dataset_path, tmp_path, capsys):
        output = tmp_path / "anon.json"
        assert (
            main(["anonymize", str(dataset_path), str(output), "--key", "k"])
            == 0
        )
        anon = load_json(output)
        assert anon.n_roles == 5
        assert not anon.has_role("R01")
        assert "wrote anonymised dataset" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_text(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert "dataset statistics" in out
        assert "users / role" in out

    def test_stats_json(self, dataset_path, capsys):
        assert main(["stats", str(dataset_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entities"]["roles"] == 5


class TestAnalyzeCsvFormat:
    def test_csv_findings(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "severity,type,axis,entity_kind,entity_ids,message"
        assert any("duplicate_roles" in line for line in lines)


class TestRenderCommand:
    def test_render_to_stdout(self, dataset_path, capsys):
        assert main(["render", str(dataset_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith('graph "rbac" {')
        assert '"role:R04"' in out
        assert "#f4cccc" in out  # standalone P01 highlighted

    def test_render_plain(self, dataset_path, capsys):
        assert main(["render", str(dataset_path), "--plain"]) == 0
        assert "#f4cccc" not in capsys.readouterr().out

    def test_render_to_file(self, dataset_path, tmp_path, capsys):
        output = tmp_path / "graph.dot"
        assert main(["render", str(dataset_path), str(output)]) == 0
        assert output.read_text().startswith("graph")
        assert "wrote DOT graph" in capsys.readouterr().out


class TestExtensionsFlag:
    @pytest.fixture
    def shadowed_dataset(self, tmp_path):
        from repro.core.state import RbacState

        state = RbacState.build(
            users=["a", "b"],
            roles=["big", "small"],
            permissions=["p", "q"],
            user_assignments=[("big", "a"), ("big", "b"), ("small", "a")],
            permission_assignments=[
                ("big", "p"), ("big", "q"), ("small", "p"),
            ],
        )
        path = tmp_path / "shadowed.json"
        save_json(state, path)
        return path

    def test_analyze_extensions(self, shadowed_dataset, capsys):
        assert (
            main(["analyze", str(shadowed_dataset), "--extensions",
                  "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert any(
            f["type"] == "shadowed_role" for f in payload["findings"]
        )

    def test_analyze_without_extensions(self, shadowed_dataset, capsys):
        assert (
            main(["analyze", str(shadowed_dataset), "--format", "json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert not any(
            f["type"] == "shadowed_role" for f in payload["findings"]
        )

    def test_plan_extensions(self, shadowed_dataset, capsys):
        assert main(["plan", str(shadowed_dataset), "--extensions"]) == 0
        assert "shadowed by 'big'" in capsys.readouterr().out


class TestUsageCommand:
    @pytest.fixture
    def usage_files(self, tmp_path):
        from repro.core.state import RbacState
        from repro.usage import AccessLog, save_access_log_csv

        state = RbacState.build(
            users=["u1", "u2"],
            roles=["r1", "r2"],
            permissions=["p1", "p2"],
            user_assignments=[("r1", "u1"), ("r2", "u2")],
            permission_assignments=[("r1", "p1"), ("r2", "p2")],
        )
        dataset = tmp_path / "state.json"
        save_json(state, dataset)
        log = AccessLog()
        log.record("u1", "p1", timestamp=1.0)
        log_path = tmp_path / "log.csv"
        save_access_log_csv(log, log_path)
        return dataset, log_path

    def test_usage_text(self, usage_files, capsys):
        dataset, log_path = usage_files
        assert main(["usage", str(dataset), str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "usage analysis" in out
        assert "dormant roles:          1 of 2" in out

    def test_usage_json(self, usage_files, capsys):
        dataset, log_path = usage_files
        assert main(["usage", str(dataset), str(log_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dormant_roles"] == 1
        assert payload["events"] == 1


class TestHierarchyFlag:
    def test_analyze_flattens_through_hierarchy(self, tmp_path, capsys):
        from repro.core.state import RbacState
        from repro.hierarchy import RoleHierarchy, save_hierarchy_json

        state = RbacState.build(
            users=["u1", "u2"],
            roles=["base", "variant-a", "variant-b"],
            permissions=["p1", "p2"],
            user_assignments=[
                ("variant-a", "u1"), ("variant-a", "u2"),
                ("variant-b", "u1"), ("variant-b", "u2"),
            ],
            permission_assignments=[
                ("base", "p1"), ("variant-a", "p2"),
                ("variant-b", "p1"), ("variant-b", "p2"),
            ],
        )
        dataset = tmp_path / "state.json"
        save_json(state, dataset)
        hierarchy_path = tmp_path / "hierarchy.json"
        save_hierarchy_json(
            RoleHierarchy([("variant-a", "base")]), hierarchy_path
        )

        assert main(["analyze", str(dataset), "--format", "json"]) == 0
        flat = json.loads(capsys.readouterr().out)
        assert flat["counts"]["roles_same_permissions"] == 0

        assert (
            main([
                "analyze", str(dataset),
                "--hierarchy", str(hierarchy_path),
                "--format", "json",
            ])
            == 0
        )
        through = json.loads(capsys.readouterr().out)
        assert through["counts"]["roles_same_permissions"] == 2


class TestBenchDensity:
    def test_density_experiment(self, capsys):
        assert (
            main([
                "bench", "--experiment", "density", "--scale", "0.02",
                "--repeats", "1", "--methods", "cooccurrence",
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "density_sweep" in out
        assert "300" in out  # densest point of the sweep


class TestObservabilityFlags:
    def test_trace_out_writes_valid_jsonl(self, dataset_path, tmp_path, capsys):
        from repro.obs import validate_trace_file

        trace = tmp_path / "trace.jsonl"
        assert (
            main(["analyze", str(dataset_path), "--trace-out", str(trace)]) == 0
        )
        summary = validate_trace_file(trace)
        assert summary["traces"] == 1
        assert summary["spans"] > 0

    def test_trace_out_parallel_run_validates(self, dataset_path, tmp_path, capsys):
        from repro.obs import validate_trace_file

        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "analyze",
                    str(dataset_path),
                    "--workers",
                    "2",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        assert validate_trace_file(trace)["traces"] == 1

    def test_metrics_out_writes_counters_and_timings(
        self, dataset_path, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "analyze",
                    str(dataset_path),
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == 2
        assert payload["counters"]["matrix.ruam_nnz"] == 6
        assert "matrix_build" in payload["timings_seconds"]
        assert payload["total_seconds"] > 0
        # --metrics-out opts into the tracemalloc block counters.
        assert payload["counters"]["cooccurrence.block_peak_bytes"] > 0

    def test_log_level_emits_span_records(self, dataset_path, capsys, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.obs"):
            assert (
                main(["analyze", str(dataset_path), "--log-level", "info"]) == 0
            )
        messages = [r.getMessage() for r in caplog.records]
        assert any("engine.analyze" in m for m in messages)
        assert any("engine.matrix_build" in m for m in messages)

    def test_report_json_includes_metrics_and_config(self, dataset_path, capsys):
        assert main(["analyze", str(dataset_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["finder"] == "cooccurrence"
        assert payload["metrics"]["workers"]["mode"] == "serial"


class TestTraceCommand:
    @pytest.fixture
    def trace_path(self, dataset_path, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert (
            main(["analyze", str(dataset_path), "--trace-out", str(path)]) == 0
        )
        capsys.readouterr()
        return path

    def test_bare_trace_prints_help(self, capsys):
        assert main(["trace"]) == 2
        assert "summarize" in capsys.readouterr().out

    def test_summarize_text(self, trace_path, capsys):
        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "traces: 1" in out
        assert "critical path:" in out
        assert "engine.analyze" in out

    def test_summarize_json_and_top(self, trace_path, capsys):
        assert (
            main(["trace", "summarize", str(trace_path), "--json", "--top", "3"])
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["traces"] == 1
        assert summary["orphan_spans"] == 0
        assert len(summary["slowest"]) == 3
        assert summary["per_trace"][0]["critical_path"][0]["name"] == (
            "engine.analyze"
        )

    def test_summarize_exit_1_on_orphans(self, trace_path, capsys):
        doctored = []
        for raw in trace_path.read_text().splitlines():
            event = json.loads(raw)
            if event.get("event") == "span" and event.get("span_id") == 2:
                event["parent_id"] = 999
            doctored.append(json.dumps(event))
        trace_path.write_text("\n".join(doctored) + "\n")
        assert main(["trace", "summarize", str(trace_path)]) == 1

    def test_flame_to_file(self, trace_path, tmp_path, capsys):
        out = tmp_path / "flame.collapsed"
        assert (
            main(["trace", "flame", str(trace_path), "-o", str(out)]) == 0
        )
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert weight.isdigit()
            assert stack.split(";")[0] == "engine.analyze"

    def test_flame_to_stdout(self, trace_path, capsys):
        assert main(["trace", "flame", str(trace_path)]) == 0
        assert "engine.analyze" in capsys.readouterr().out

    def test_diff(self, trace_path, dataset_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert (
            main(
                [
                    "analyze", str(dataset_path), "--finder", "dbscan",
                    "--trace-out", str(other),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["trace", "diff", str(trace_path), str(other), "--json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        # dbscan spans exist only on the after side.
        assert by_name["finder:dbscan"]["count_before"] == 0
        assert by_name["finder:dbscan"]["count_after"] >= 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeObservabilityFlags:
    def test_slo_and_tracez_flags_parse(self, dataset_path):
        from repro.cli.main import _build_parser as build_parser

        args = build_parser().parse_args(
            [
                "serve", str(dataset_path), "--slo-target", "0.5",
                "--slo-window", "50", "--slo-budget", "0.2",
                "--tracez-capacity", "16",
            ]
        )
        assert args.slo_target == 0.5
        assert args.slo_window == 50
        assert args.slo_budget == 0.2
        assert args.tracez_capacity == 16

    def test_slo_defaults_off(self, dataset_path):
        from repro.cli.main import _build_parser as build_parser

        args = build_parser().parse_args(["serve", str(dataset_path)])
        assert args.slo_target is None

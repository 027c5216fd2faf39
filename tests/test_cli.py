"""Tests for the repro-scheduler command-line interface."""

import numpy as np
import pytest

from repro.cli import ALGORITHMS, build_parser, main
from repro.model.generator import ETCGeneratorConfig, generate_instance
from repro.model.io import save_etc_file


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.algorithm == "cma"
        assert args.instance == "u_c_hihi.0"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "magic"])

    def test_table_choices(self):
        args = build_parser().parse_args(["table", "--table", "table4"])
        assert args.table == "table4"


SMALL = ["--jobs", "24", "--machines", "4", "--seed", "3"]


class TestSolveCommand:
    def test_cma_solve(self, capsys):
        code = main(["solve", *SMALL, "--seconds", "10", "--iterations", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "makespan" in out
        assert "cma" in out

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "cma"])
    def test_every_algorithm_runs(self, algorithm, capsys):
        code = main(
            [
                "solve",
                *SMALL,
                "--algorithm",
                algorithm,
                "--seconds",
                "10",
                "--iterations",
                "3",
            ]
        )
        assert code == 0
        assert algorithm in capsys.readouterr().out

    def test_etc_file_input(self, tmp_path, capsys):
        instance = generate_instance(
            ETCGeneratorConfig(nb_jobs=24, nb_machines=4), rng=1, name="file"
        )
        path = save_etc_file(instance, tmp_path / "u_file.0")
        code = main(
            [
                "solve",
                "--etc-file",
                str(path),
                *SMALL,
                "--seconds",
                "10",
                "--iterations",
                "3",
            ]
        )
        assert code == 0

    def test_missing_etc_file_is_reported(self, capsys):
        code = main(["solve", "--etc-file", "/does/not/exist.0", *SMALL])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_instance_name_is_reported(self, capsys):
        code = main(["solve", "--instance", "not_a_name", *SMALL, "--seconds", "1"])
        assert code == 2


class TestHeuristicsCommand:
    def test_lists_all_heuristics(self, capsys):
        code = main(["heuristics", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("min_min", "ljfr_sjfr", "olb"):
            assert name in out


class TestTuneCommand:
    def test_figure2_runs(self, capsys):
        code = main(
            [
                "tune",
                "--figure",
                "figure2",
                "--jobs",
                "24",
                "--machines",
                "4",
                "--runs",
                "1",
                "--seconds",
                "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "LMCTS" in out
        assert "best variant" in out


class TestTableCommand:
    def test_table1(self, capsys):
        code = main(["table", "--table", "table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "population height" in out

    def test_table2_subset(self, capsys):
        code = main(
            [
                "table",
                "--table",
                "table2",
                "--jobs",
                "20",
                "--machines",
                "4",
                "--runs",
                "1",
                "--seconds",
                "0.1",
                "--instances",
                "u_c_hihi.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "u_c_hihi.0" in out
        assert "cMA (measured)" in out


class TestSimulateCommand:
    def test_heuristic_policy(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "min_min",
                "--rate",
                "0.5",
                "--duration",
                "20",
                "--machines",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "min_min" in out
        assert "makespan" in out

    def test_cma_policy(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "cma",
                "--rate",
                "0.5",
                "--duration",
                "15",
                "--machines",
                "3",
                "--budget",
                "0.05",
            ]
        )
        assert code == 0
        assert "cma" in capsys.readouterr().out

    def test_warm_cma_policy(self, capsys):
        code = main(
            [
                "simulate",
                "--policy",
                "warm-cma",
                "--rate",
                "0.5",
                "--duration",
                "15",
                "--machines",
                "3",
                "--budget",
                "0.05",
                "--stagnation",
                "3",
            ]
        )
        assert code == 0
        assert "warm-cma" in capsys.readouterr().out

    def test_unknown_policy_reported(self, capsys):
        code = main(["simulate", "--policy", "nonsense", "--duration", "5"])
        assert code == 2

    def test_out_saves_the_generated_calm_trace(self, tmp_path, capsys):
        """simulate replays generate_trace's calm stream and park as drawn."""
        out = tmp_path / "run.npz"
        code = main(
            [
                "simulate", "--policy", "mct", "--rate", "2", "--duration", "15",
                "--machines", "3", "--seed", "4", "--out", str(out),
            ]
        )
        assert code == 0
        from repro.core.config import TraceConfig
        from repro.traces import generate_trace, load_trace

        saved = load_trace(out)
        drawn = generate_trace(
            TraceConfig(family="calm", duration=15.0, rate=2.0, nb_machines=3), seed=4
        )
        for column in (
            "job_ids", "job_workloads", "job_arrivals", "machine_ids", "machine_mips",
            "machine_joins", "machine_leaves", "machine_affinity_spreads",
        ):
            np.testing.assert_array_equal(
                getattr(saved, column), getattr(drawn, column), err_msg=column
            )


class TestTraceCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_unknown_family_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "generate", "--family", "tsunami", "--out", "x.npz"]
            )

    def test_generate_writes_a_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "calm.npz"
        code = main(
            [
                "trace",
                "generate",
                "--family",
                "calm",
                "--duration",
                "15",
                "--rate",
                "0.5",
                "--machines",
                "3",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "Generated trace" in capsys.readouterr().out
        from repro.traces import load_trace

        trace = load_trace(out)
        assert trace.nb_machines == 3
        assert trace.metadata["family"] == "calm"

    def test_record_captures_a_live_simulation(self, tmp_path, capsys):
        out = tmp_path / "recorded.npz"
        code = main(
            [
                "simulate",
                "--policy",
                "mct",
                "--rate",
                "0.5",
                "--duration",
                "15",
                "--machines",
                "3",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        from repro.traces import load_trace

        trace = load_trace(out)
        assert trace.metadata["policy"] == "mct"
        assert trace.nb_jobs >= 1
        # The provenance a replay is checked against: the recorded cadence
        # and the run's stream makespan and flowtime, which the replay
        # reproduces bit for bit.
        assert trace.metadata["source"] == "recorded"
        assert trace.metadata["commit_horizon"] is None
        from repro.grid import GridSimulator, HeuristicBatchPolicy, SimulationConfig

        replayed = GridSimulator.from_trace(
            trace,
            HeuristicBatchPolicy("mct"),
            SimulationConfig(activation_interval=trace.metadata["activation_interval"]),
            rng=4,
        ).run()
        assert trace.metadata["stream_makespan"] == replayed.makespan
        assert trace.metadata["total_flowtime"] == replayed.total_flowtime

    def test_replay_prints_the_arena_table(self, tmp_path, capsys):
        out = tmp_path / "arena.npz"
        assert (
            main(
                [
                    "trace",
                    "generate",
                    "--family",
                    "bursty",
                    "--duration",
                    "15",
                    "--rate",
                    "0.8",
                    "--machines",
                    "3",
                    "--seed",
                    "6",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "trace",
                "replay",
                "--trace",
                str(out),
                "--policies",
                "min_min,mct",
                "--interval",
                "5",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "Replay arena" in output
        assert "min_min" in output and "mct" in output
        assert "stream makespan" in output

    def test_replay_honors_recorded_interval(self, tmp_path, capsys):
        """Replaying a recorded trace defaults to its recorded simulation
        parameters, so a deterministic policy reproduces the captured
        stream makespan exactly."""
        out = tmp_path / "rec.npz"
        main(
            [
                "simulate",
                "--policy",
                "min_min",
                "--rate",
                "1",
                "--duration",
                "20",
                "--machines",
                "3",
                "--interval",
                "4",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(["trace", "replay", "--trace", str(out), "--policies", "min_min"])
        output = capsys.readouterr().out
        assert code == 0
        from repro.traces import load_trace
        from repro.utils.tables import format_number

        recorded = load_trace(out).metadata["stream_makespan"]
        assert format_number(recorded, precision=3) in output

    def test_replay_missing_trace_reported(self, capsys):
        code = main(["trace", "replay", "--trace", "/does/not/exist.npz"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_replay_unknown_policy_reported(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        main(
            [
                "trace",
                "generate",
                "--duration",
                "10",
                "--machines",
                "2",
                "--out",
                str(out),
            ]
        )
        code = main(["trace", "replay", "--trace", str(out), "--policies", "magic"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err.lower()

    def test_replay_rolling_policy_needs_horizon(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        main(
            [
                "trace",
                "generate",
                "--duration",
                "10",
                "--machines",
                "2",
                "--out",
                str(out),
            ]
        )
        code = main(
            [
                "trace",
                "replay",
                "--trace",
                str(out),
                "--policies",
                "warm-cma-rolling",
            ]
        )
        assert code == 2
        assert "horizon" in capsys.readouterr().err.lower()


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 7077)
        assert args.duration is None
        assert (args.machines, args.capacity) == (8, 4096)
        assert args.degrade is None and args.recover is None

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert (args.family, args.shape) == ("calm", "constant")
        assert (args.multiplier, args.base_multiplier) == (1.0, 1.0)
        assert args.connect is None and not args.abort

    def test_loadgen_unknown_shape_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--shape", "sawtooth"])

    def test_loadgen_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--family", "tsunami"])

    def test_serve_rejects_a_non_positive_budget(self, capsys):
        code = main(["serve", "--budget", "0"])
        assert code == 2
        assert "--budget must be a positive finite number" in capsys.readouterr().err


class TestLoadgenCommand:
    def test_in_process_run_prints_report_and_snapshot(self, capsys):
        code = main(
            [
                "loadgen",
                "--duration", "0.5",
                "--rate", "30",
                "--multiplier", "2",
                "--machines", "4",
                "--interval", "0.05",
                "--budget", "0.02",
                "--seed", "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop load" in out
        assert "service snapshot" in out
        # Every planned submission was accepted and scheduled on this tiny
        # stream (no shed), and the drain left nothing behind.
        assert "shed                 0" in out or "shed: 0" in out or "shed" in out
        assert "backlog" in out

    def test_replays_a_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        main(
            [
                "trace", "generate",
                "--duration", "1",
                "--rate", "10",
                "--machines", "2",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "loadgen",
                "--trace", str(out),
                "--machines", "2",
                "--interval", "0.05",
                "--budget", "0.02",
                "--abort",
            ]
        )
        assert code == 0
        assert "open-loop load" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["generated", "saved"])
    def test_local_core_runs_on_the_trace_park(self, source, tmp_path, monkeypatch):
        """The in-process service schedules onto the park its trace was drawn for."""
        import repro.cli as cli
        from repro.core.config import TraceConfig
        from repro.traces import generate_trace, load_trace

        cores = []
        build = cli._service_core

        def spy(*args, **kwargs):
            cores.append(build(*args, **kwargs))
            return cores[-1]

        monkeypatch.setattr(cli, "_service_core", spy)
        run = ["loadgen", "--interval", "0.05", "--budget", "0.02", "--abort"]
        if source == "generated":
            trace = generate_trace(
                TraceConfig(family="calm", duration=0.3, rate=20.0, nb_machines=3), seed=5
            )
            run += ["--duration", "0.3", "--rate", "20", "--machines", "3", "--seed", "5"]
        else:
            out = tmp_path / "t.npz"
            main(["trace", "generate", "--duration", "0.3", "--rate", "20",
                  "--machines", "3", "--seed", "4", "--out", str(out)])
            trace = load_trace(out)
            run += ["--trace", str(out)]
        assert main(run) == 0
        (core,) = cores
        np.testing.assert_array_equal(
            [machine.mips for machine in core.machines], trace.machine_mips
        )

    def test_bad_connect_address_is_reported(self, capsys):
        code = main(
            ["loadgen", "--duration", "0.2", "--connect", "127.0.0.1:1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()


class TestObservabilityCli:
    def test_observability_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--metrics-port", "0", "--trace-out", "t.jsonl"]
        )
        assert args.metrics_port == 0
        assert args.trace_out == "t.jsonl"
        args = build_parser().parse_args(["serve"])
        assert args.metrics_port is None and args.trace_out is None
        args = build_parser().parse_args(["loadgen", "--soak"])
        assert args.soak
        assert not build_parser().parse_args(["loadgen"]).soak

    def test_loadgen_with_metrics_and_trace(self, tmp_path, capsys):
        trace_out = tmp_path / "activations.jsonl"
        code = main(
            [
                "loadgen",
                "--duration", "0.5",
                "--rate", "30",
                "--machines", "4",
                "--interval", "0.05",
                "--budget", "0.02",
                "--seed", "9",
                "--metrics-port", "0",
                "--trace-out", str(trace_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "/metrics" in out
        assert trace_out.exists()
        from repro.obs import read_trace

        events = read_trace(trace_out)
        assert any(event["event"] == "activation" for event in events)

    def test_obs_summarize_renders_the_trace(self, tmp_path, capsys):
        trace_out = tmp_path / "activations.jsonl"
        main(
            [
                "loadgen",
                "--duration", "0.5",
                "--rate", "30",
                "--machines", "4",
                "--interval", "0.05",
                "--budget", "0.02",
                "--seed", "9",
                "--trace-out", str(trace_out),
            ]
        )
        capsys.readouterr()
        code = main(["obs", "summarize", str(trace_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Activations" in out
        assert "batch" in out

        code = main(["obs", "summarize", str(trace_out), "--limit", "1"])
        assert code == 0
        assert "shown" in capsys.readouterr().out

    def test_obs_summarize_missing_trace_reported(self, capsys):
        code = main(["obs", "summarize", "/nonexistent/trace.jsonl"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_latency_buckets_flag_parses_and_rejects_garbage(self, capsys):
        args = build_parser().parse_args(
            ["serve", "--latency-buckets", "0.005,0.05,0.5"]
        )
        assert args.latency_buckets == "0.005,0.05,0.5"
        assert build_parser().parse_args(["serve"]).latency_buckets is None
        code = main(
            ["loadgen", "--duration", "0.1", "--latency-buckets", "fast,slow"]
        )
        assert code == 2
        assert "latency-buckets" in capsys.readouterr().err
        # Out-of-order bounds fail ServiceConfig validation, same exit path.
        code = main(
            ["loadgen", "--duration", "0.1", "--latency-buckets", "1.0,0.5"]
        )
        assert code == 2
        assert "increasing" in capsys.readouterr().err

    def _loadgen_trace(self, tmp_path):
        trace_out = tmp_path / "activations.jsonl"
        code = main(
            [
                "loadgen",
                "--duration", "0.5",
                "--rate", "30",
                "--machines", "4",
                "--interval", "0.05",
                "--budget", "0.02",
                "--seed", "9",
                "--trace-out", str(trace_out),
            ]
        )
        assert code == 0
        return trace_out

    def test_obs_timeline_renders_waterfalls_and_attribution(self, tmp_path, capsys):
        trace_out = self._loadgen_trace(tmp_path)
        capsys.readouterr()
        code = main(["obs", "timeline", str(trace_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Latency attribution" in out
        assert "end-to-end" in out
        assert "queue_wait" in out
        assert "planned" in out  # the live service's fire-and-forget terminal

        code = main(["obs", "timeline", str(trace_out), "--jobs", "2"])
        assert code == 0
        assert capsys.readouterr().out.count("|") >= 4  # two waterfall rows

    def test_obs_slowest_lists_jobs_with_chains(self, tmp_path, capsys):
        trace_out = self._loadgen_trace(tmp_path)
        capsys.readouterr()
        code = main(["obs", "slowest", str(trace_out), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominant phase" in out
        assert "submitted@" in out and "->" in out

    def test_obs_timeline_missing_trace_reported(self, capsys):
        code = main(["obs", "timeline", "/nonexistent/trace.jsonl"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()
        code = main(["obs", "slowest", "/nonexistent/trace.jsonl"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

"""Tests for the command-line experiment runner."""

import pytest

from repro.bench.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "tpcds"
        assert args.scale == 0.15
        assert "bqo" in args.pipelines

    def test_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "nope"])

    def test_all_selects_every_workload(self):
        args = build_parser().parse_args(["--workload", "all"])
        assert args.workload == "all"


class TestMain:
    def test_runs_tpcds_small(self, capsys):
        exit_code = main(
            ["--workload", "tpcds", "--scale", "0.02", "--top", "5"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "Figure 9" in out
        assert "Figure 10" in out
        assert "Table 4" in out

    def test_custom_pipelines_skip_tables(self, capsys):
        exit_code = main(
            ["--workload", "customer", "--scale", "0.02",
             "--pipelines", "bqo"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Figure 8" not in out  # needs original+bqo

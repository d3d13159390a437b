"""Tests for the experiment CLI runner."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_registry_covers_every_figure(self):
        expected = {
            "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
            "table1", "table2", "smart-buffering", "fig15", "fig16",
            "fig17", "scalability", "shard-scale",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_one_fast_experiment(self, capsys):
        assert main(["fig09"]) == 0
        out = capsys.readouterr().out
        assert "Fig 9" in out
        assert "average" in out

    def test_run_multiple(self, capsys):
        assert main(["fig07", "smart-buffering"]) == 0
        out = capsys.readouterr().out
        assert "Fig 7" in out and "Eqs 1-2" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

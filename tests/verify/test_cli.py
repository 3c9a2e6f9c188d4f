"""Smoke tests for the ``python -m repro.verify`` command-line driver."""

import pytest

from repro.verify.__main__ import main


class TestVerifyCli:
    def test_explore_tiny_bound_passes(self, capsys):
        # `explore` judges every replay with simsan and the golden
        # differential.
        status = main(["explore", "--max-peis", "2", "--durations", "3",
                       "--strides", "0", "--no-fences"])
        out = capsys.readouterr().out
        assert status == 0
        assert "[explore] PASS" in out

    @pytest.mark.parametrize("argv", [
        ["explore", "--blocks", "3", "--max-peis", "1"],
        ["diff", "--max-peis", "1"],
    ])
    def test_retired_options_are_usage_errors(self, argv, capsys):
        # Every directory geometry holds two blocks, so the block count is
        # fixed, and `explore` always runs the golden differential.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_mutants_pass_and_are_listed(self, capsys):
        status = main(["mutants"])
        out = capsys.readouterr().out
        assert status == 0
        assert "KILLED" in out and "SURVIVED" not in out

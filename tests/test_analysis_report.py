"""Report rendering helpers."""

import numpy as np
import pytest

from repro.analysis.report import polca_report, render_table
from repro.analysis.timeseries import TimeSeries
from repro.cluster.metrics import ServeLogBuilder, SimulationResult
from repro.errors import ConfigurationError
from repro.workloads.spec import Priority


class TestRenderTable:
    def test_plain_text_alignment(self):
        text = render_table(["name", "w"], [["gpus", 3200], ["fans", 1625]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines if line)) == 1

    def test_markdown_shape(self):
        text = render_table(["a", "b"], [[1, 2]], markdown=True)
        lines = text.splitlines()
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-"}
        assert lines[2].startswith("| 1")

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_allowed(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestMarkdownEscaping:
    """Regression tests: no cell value can break the table grammar."""

    @staticmethod
    def cell_grid(text):
        """Parse the rendered Markdown back into rows of cell texts."""
        rows = []
        for line in text.splitlines():
            if set(line) <= {"|", "-"}:
                continue  # the separator row
            # Split on unescaped pipes only.
            cells, current, escaped = [], "", False
            for ch in line:
                if escaped:
                    current += ch
                    escaped = False
                elif ch == "\\":
                    current += ch
                    escaped = True
                elif ch == "|":
                    cells.append(current)
                    current = ""
                else:
                    current += ch
            rows.append([c.strip() for c in cells[1:]])
        return rows

    def test_pipes_escaped(self):
        text = render_table(
            ["expr", "n"], [["a | b", 1], ["|x|", 2]], markdown=True,
        )
        grid = self.cell_grid(text)
        # The column structure survives: every row still has 2 cells.
        assert all(len(row) == 2 for row in grid)
        assert grid[1][0] == "a \\| b"
        assert "\\|x\\|" in text

    def test_backslashes_escaped_before_pipes(self):
        text = render_table(["p"], [["a\\|b"]], markdown=True)
        assert "a\\\\\\|b" in text

    def test_edge_whitespace_preserved_as_nbsp(self):
        text = render_table(
            ["name"], [["  padded"], ["trailing  "]], markdown=True,
        )
        assert "&nbsp;&nbsp;padded" in text
        assert "trailing&nbsp;&nbsp;" in text

    def test_all_space_cell_keeps_its_width(self):
        text = render_table(["gap"], [["  "]], markdown=True)
        assert "&nbsp;&nbsp;" in text
        assert "&nbsp;&nbsp;&nbsp;" not in text

    def test_interior_whitespace_untouched(self):
        text = render_table(["name"], [["a  b"]], markdown=True)
        assert "a  b" in text
        assert "&nbsp;" not in text

    def test_plain_text_mode_never_escapes(self):
        text = render_table(["name"], [["a | b"], ["  padded"]])
        assert "\\|" not in text
        assert "&nbsp;" not in text


def _result(p50, brakes=0):
    log = ServeLogBuilder()
    for priority in Priority:
        for _ in range(100):
            log.serve(priority, "Chat", p50)
    return SimulationResult(
        serve_log=log.build(),
        power_series=TimeSeries(start=0, interval=2,
                                values=np.full(10, 150_000.0)),
        provisioned_power_w=200_000.0,
        power_brake_events=brakes,
        capping_actions=0,
        duration_s=20.0,
    )


class TestPolcaReport:
    def test_report_contains_all_runs(self):
        baseline = _result(10.0)
        report = polca_report(
            {"POLCA": _result(10.5), "No-cap": _result(12.0, brakes=3)},
            baseline,
        )
        assert "POLCA" in report and "No-cap" in report
        assert "1.050" in report  # normalized p50
        assert "3" in report      # brake count

    def test_markdown_mode(self):
        baseline = _result(10.0)
        report = polca_report({"POLCA": _result(10.0)}, baseline,
                              markdown=True)
        assert report.startswith("| run")

"""Tests for the EXPERIMENTS.md generator."""

import pytest

from repro.bench.experiments_md import generate, main

# Generates the full paper-vs-measured report (~1 min of model sweeps).
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def text():
    # Tiny iteration count: we test structure, not calibration.
    return generate(iterations=3)


class TestGenerate:
    def test_every_experiment_present(self, text):
        for exp_id in (
            "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7", "cpu", "memory",
        ):
            assert f"## {exp_id}" in text

    def test_table1_verbatim(self, text):
        assert "GeForce GTX 285" in text and "159.0" in text

    def test_paper_vs_measured_sections(self, text):
        assert text.count("paper-vs-measured") >= 7
        assert "ratio" in text

    def test_provenance_note(self, text):
        assert "python -m repro.bench.experiments_md" in text

    def test_main_writes_file(self, text, tmp_path, capsys, monkeypatch):
        """``main`` writes what ``generate`` returns; the report itself is
        the module fixture (its structure is asserted above, once)."""
        import repro.bench.experiments_md as mod

        monkeypatch.setattr(mod, "generate", lambda: text)
        out = tmp_path / "E.md"
        assert main([str(out)]) == 0
        assert out.read_text() == text
        assert out.read_text().startswith("# EXPERIMENTS")
        assert f"wrote {out}" in capsys.readouterr().out

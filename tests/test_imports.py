"""What importing the package and running a subcommand load.

`import cdrsweep` loads none of its modules: each public name is imported
from its module on first use. A subcommand imports only the modules it
runs, so `ingest` never compiles the GRU, the trainer or the simulator.
"""

import ast
import importlib
from pathlib import Path

import cdrsweep
from _cli import loaded_by_import, loaded_modules

# every public name the package had when it imported all of its modules
FORMER_NAMES = {
    "errors": """BadMagicError BadSharesError CdrSweepError DimensionMismatchError
        DivergedLossError EmptyInputError EmptySequenceError EmptySplitError
        InvalidConfigError MismatchedConfigsError ModelFormatError NonFiniteInputError
        OutOfRangeError SeriesFormatError SeriesTooShortError ShapeMismatchError
        TraceMismatchError TruncatedFileError UnknownSquareError VersionMismatchError""",
    "fixtures": "demo_raw_lines demo_sector_map synthetic_series",
    "gru": """PARAM_FIELDS ForwardTrace GruParams final_state forward gru_step init_params
        readout sigmoid""",
    "ingest": """MAX_SLOTS RECORD_DTYPE SECTOR_LABELS SLOT_MS ParseIssue ParseResult SectorMap
        SectorSeries WindowedDataset aggregate load_sector_series make_windows parse_raw
        write_sector_series""",
    "model_io": "dumps_model load_model loads_model save_model",
    "scheduler": """BURST_DURATION_US BURST_PERIOD_US SSB_OFFSETS_US SSB_SLOTS SectorRanking
        SweepSchedule build_schedule rank_sectors sequential_ranking""",
    "simulator": """REPORT_HEADER SLOT_US Comparison PerSlotPolicy SimConfig SimReport compare
        draw_ues expected_delay_static rates_from_counts report_bytes report_csv simulate
        summary_csv""",
    "training": """EvalResult Normalizer TrainConfig TrainReport backward evaluate fit
        grad_check grad_check_by_tensor mse predict_next""",
}

# series.csv is written as plain text; numpy loads these on first use only
NUMPY_STRING_MODULES = {"numpy.char", "numpy.strings"}


def _package_modules(modules):
    return {m for m in modules if m == "cdrsweep" or m.startswith("cdrsweep.")}


def test_importing_the_package_loads_no_module_and_no_numpy(tmp_path):
    loaded = loaded_by_import(tmp_path)
    assert _package_modules(loaded) == {"cdrsweep"}
    assert "numpy" not in loaded


def test_ingest_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "raw.tsv").write_text("5060\t1384726200000\t39\t1\n")
    proc, loaded = loaded_modules(["ingest", "--raw", "raw.tsv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert _package_modules(loaded) == {"cdrsweep", "cdrsweep.cli", "cdrsweep.errors",
                                        "cdrsweep.ingest"}
    assert not loaded & NUMPY_STRING_MODULES


def test_a_series_fixture_leaves_numpy_string_modules_unimported(tmp_path):
    proc, loaded = loaded_modules(["fixture", "--kind", "series", "--slots", "300"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "cdrsweep.fixtures" in loaded and not loaded & NUMPY_STRING_MODULES


def test_every_former_name_is_its_modules_own_and_listed():
    listed = dir(cdrsweep)
    for module, names in FORMER_NAMES.items():
        home = importlib.import_module(f"cdrsweep.{module}")
        for name in names.split():
            assert getattr(cdrsweep, name) is getattr(home, name), name
            assert name in listed
    assert "__version__" in listed


def test_a_submodule_imports_as_a_module_and_an_unknown_name_fails():
    from cdrsweep import gru  # a submodule name is never taken for a public name
    assert gru is importlib.import_module("cdrsweep.gru")
    try:
        cdrsweep.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def test_simulate_leaves_numpy_ma_unimported(tmp_path):
    # np.median and np.percentile import numpy.ma on first use; summary_csv uses neither
    proc, loaded = loaded_modules(["fixture", "--slots", "300", "--out", "series.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc, loaded = loaded_modules(
        ["simulate", "--series", "series.csv", "--policies", "sequential,oracle",
         "--n-seeds", "3", "--sim-slots", "6"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "cdrsweep.simulator" in loaded and "numpy.ma" not in loaded


def test_no_module_imports_another_modules_private_name():
    found = [(path.name, alias.name)
             for path in sorted(Path(cdrsweep.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")]
    assert found == []

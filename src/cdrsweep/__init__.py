"""CDR-driven per-sector forecasting and SSB beam-sweep scheduling.

Pipeline: parse raw call-detail records into 10-minute per-sector count
series, train a small recurrent forecaster on sliding windows, rank sectors
by predicted activity to schedule the 14 SSB slots of each sync burst, and
measure the access-delay benefit against sequential sweeping in a seeded
Monte-Carlo simulator.

Importing the package loads none of its modules. Each public name below is
imported from its module on first use (PEP 562), so `cdrsweep.parse_raw` is
`cdrsweep.ingest.parse_raw`; a submodule imports as usual.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module
_EXPORTS = {
    "errors": (
        "BadMagicError", "BadSharesError", "CdrSweepError", "DimensionMismatchError",
        "DivergedLossError", "EmptyInputError", "EmptySequenceError", "EmptySplitError",
        "InvalidConfigError", "MismatchedConfigsError", "ModelFormatError",
        "NonFiniteInputError", "OutOfRangeError", "SeriesFormatError", "SeriesTooShortError",
        "ShapeMismatchError", "TraceMismatchError", "TruncatedFileError",
        "UnknownSquareError", "VersionMismatchError",
    ),
    "fixtures": ("demo_raw_lines", "demo_sector_map", "synthetic_series"),
    "gru": (
        "PARAM_FIELDS", "ForwardTrace", "GruParams", "final_state", "forward", "gru_step",
        "init_params", "readout", "sigmoid",
    ),
    "ingest": (
        "MAX_SLOTS", "RECORD_DTYPE", "SECTOR_LABELS", "SLOT_MS", "ParseIssue", "ParseResult",
        "SectorMap", "SectorSeries", "WindowedDataset", "aggregate", "load_sector_series",
        "make_windows", "parse_raw", "write_sector_series",
    ),
    "model_io": ("dumps_model", "load_model", "loads_model", "save_model"),
    "scheduler": (
        "BURST_DURATION_US", "BURST_PERIOD_US", "SSB_OFFSETS_US", "SSB_SLOTS",
        "SectorRanking", "SweepSchedule", "build_schedule", "rank_sectors",
        "sequential_ranking",
    ),
    "simulator": (
        "REPORT_HEADER", "SLOT_US", "Comparison", "PerSlotPolicy", "SimConfig", "SimReport",
        "compare", "draw_ues", "expected_delay_static", "rates_from_counts", "report_bytes",
        "report_csv", "simulate", "summary_csv",
    ),
    "training": (
        "EvalResult", "Normalizer", "TrainConfig", "TrainReport", "backward", "evaluate",
        "fit", "grad_check", "grad_check_by_tensor", "mse", "predict_next",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported lands here too, and imports as usual
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})

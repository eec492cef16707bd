"""CDR-driven per-sector forecasting and SSB beam-sweep scheduling.

Pipeline: parse raw call-detail records into 10-minute per-sector count
series, train a small recurrent forecaster on sliding windows, rank sectors
by predicted activity to schedule the 14 SSB slots of each sync burst, and
measure the access-delay benefit against sequential sweeping in a seeded
Monte-Carlo simulator.
"""

from .errors import (
    BadMagicError,
    BadSharesError,
    CdrSweepError,
    DimensionMismatchError,
    DivergedLossError,
    EmptyInputError,
    EmptySequenceError,
    EmptySplitError,
    InvalidConfigError,
    MismatchedConfigsError,
    ModelFormatError,
    NonFiniteInputError,
    OutOfRangeError,
    SeriesFormatError,
    SeriesTooShortError,
    ShapeMismatchError,
    TraceMismatchError,
    TruncatedFileError,
    UnknownSquareError,
    VersionMismatchError,
)
from .fixtures import demo_raw_lines, demo_sector_map, synthetic_series
from .gru import (
    PARAM_FIELDS,
    ForwardTrace,
    GruParams,
    final_state,
    forward,
    gru_step,
    init_params,
    readout,
    sigmoid,
)
from .ingest import (
    MAX_SLOTS,
    RECORD_DTYPE,
    SECTOR_LABELS,
    SLOT_MS,
    ParseIssue,
    ParseResult,
    SectorMap,
    SectorSeries,
    WindowedDataset,
    aggregate,
    load_sector_series,
    make_windows,
    parse_raw,
    write_sector_series,
)
from .model_io import dumps_model, load_model, loads_model, save_model
from .scheduler import (
    BURST_DURATION_US,
    BURST_PERIOD_US,
    SSB_OFFSETS_US,
    SSB_SLOTS,
    SectorRanking,
    SweepSchedule,
    build_schedule,
    rank_sectors,
    sequential_ranking,
)
from .simulator import (
    REPORT_HEADER,
    SLOT_US,
    Comparison,
    PerSlotPolicy,
    SimConfig,
    SimReport,
    compare,
    draw_ues,
    expected_delay_static,
    rates_from_counts,
    report_bytes,
    report_csv,
    simulate,
    summary_csv,
)
from .training import (
    EvalResult,
    Normalizer,
    TrainConfig,
    TrainReport,
    backward,
    evaluate,
    fit,
    grad_check,
    grad_check_by_tensor,
    mse,
    predict_next,
)

__version__ = "0.1.0"

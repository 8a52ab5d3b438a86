"""Evaluation harness: prompts, backends, extraction, runner, reports."""

from .backends import (
    BackendSpec,
    ConfigError,
    FixtureMissError,
    HttpBackend,
    OracleBackend,
    OracleUnresolvableError,
    ReplayBackend,
    TransportError,
    backend_from_config,
    complete,
    load_fixtures,
    prompt_sha256,
    save_fixtures,
)
from .extraction import AnswerKind, answer_kind, extract_answer, is_correct, normalize_answer
from .prompts import (
    COT_TRIGGER,
    DISPLAY_NAMES,
    HarnessError,
    IncompatibleDemosError,
    Paradigm,
    assemble_prompt,
    paradigm_from_string,
)
from .reporting import format_pct, render_table, report_csv, report_json
from .runner import (
    CellStats,
    DatasetSpec,
    DemoSpec,
    EmptyDatasetError,
    EvalConfig,
    EvalRecord,
    EvalReport,
    RecordLineError,
    RecordStore,
    load_records,
    run_eval,
    score,
)

"""Sparse tensor completion for dynamic QoS prediction.

Third-order user x service x time QoS observations are completed with a
biased nonnegative block term decomposition trained by multiplicative
updates, alongside a benchmark harness that compares the block term model
against CP- and Tucker-structured emulations across data densities.
"""

from .data_io import (
    IngestResult,
    SplitSpec,
    load_model,
    parse_qos_log,
    save_model,
    split,
    write_qos_log,
)
from .errors import (
    BtdqosError,
    ConfigError,
    CorruptCheckpointError,
    DimMismatchError,
    DuplicateIndexError,
    EmptyInputError,
    EmptyTestSetError,
    InvalidStructureError,
    NegativeValueError,
    NonFiniteError,
    OutOfBoundsError,
    ParseError,
    ValidationError,
)
from .evaluation import (
    BenchmarkCell,
    MetricsReport,
    ModelAggregate,
    rmse_and_mae,
    run_benchmark,
)
from .model import (
    BlockStructure,
    BnbtModel,
    cp_structure,
    init_random,
    predict_entries,
    tucker_structure,
    validate_model,
)
from .rng import derive_seed
from .sparse import MODES, SparseTensor3, SplitTensor
from .trainer import (
    TrainConfig,
    TrainReport,
    epoch,
    fit,
    grid_search,
    objective,
)

__version__ = "0.1.0"

"""Decoupled frontend: TAGE-SC-L, ITTAGE, BTB, RAS, and the FTQ."""

from .alternatives import (
    Gshare,
    GshareConfig,
    HashedPerceptron,
    PerceptronConfig,
)
from .btb import Btb, BtbConfig
from .decoupled import (
    BranchInfo,
    DecoupledFrontend,
    FetchBlock,
    FrontendConfig,
)
from .history import HistoryState, fold_history
from .offline import OfflineResult, evaluate_predictor
from .ittage import Ittage, IttageConfig, IttagePrediction
from .loop_predictor import LoopPredictor, LoopPredictorConfig
from .ras import ReturnAddressStack
from .statistical_corrector import StatisticalCorrector, StatisticalCorrectorConfig
from .tage import Tage, TageConfig, TagePrediction
from .tagescl import TageScl, TageSclConfig

__all__ = [
    "Gshare",
    "GshareConfig",
    "HashedPerceptron",
    "PerceptronConfig",
    "Btb",
    "BtbConfig",
    "BranchInfo",
    "DecoupledFrontend",
    "FetchBlock",
    "FrontendConfig",
    "HistoryState",
    "fold_history",
    "OfflineResult",
    "evaluate_predictor",
    "Ittage",
    "IttageConfig",
    "IttagePrediction",
    "LoopPredictor",
    "LoopPredictorConfig",
    "ReturnAddressStack",
    "StatisticalCorrector",
    "StatisticalCorrectorConfig",
    "Tage",
    "TageConfig",
    "TagePrediction",
    "TageScl",
    "TageSclConfig",
]

"""TAGE-SC-L: the paper's baseline conditional direction predictor.

Composition order follows Seznec's championship predictor: the loop
predictor overrides everything when confident; otherwise the
statistical corrector may flip a weak TAGE prediction.  All component
metadata needed for retirement-time training is folded into the
:class:`~repro.frontend.tage.TagePrediction` carried by the in-flight
branch queue entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .history import HistoryState
from .loop_predictor import LoopPredictor, LoopPredictorConfig
from .statistical_corrector import StatisticalCorrector, StatisticalCorrectorConfig
from .tage import Tage, TageConfig, TagePrediction


@dataclass(frozen=True)
class TageSclConfig:
    tage: TageConfig = field(default_factory=TageConfig)
    sc: StatisticalCorrectorConfig = field(default_factory=StatisticalCorrectorConfig)
    loop: LoopPredictorConfig = field(default_factory=LoopPredictorConfig)
    enable_sc: bool = True
    enable_loop: bool = True


class TageScl:
    """Combined TAGE + Statistical Corrector + Loop predictor."""

    def __init__(
        self,
        config: TageSclConfig | None = None,
        history: HistoryState | None = None,
    ):
        self.config = config or TageSclConfig()
        self.history = history if history is not None else HistoryState()
        self.tage = Tage(self.config.tage, self.history)
        self.sc = StatisticalCorrector(self.config.sc, self.history)
        self.loop = LoopPredictor(self.config.loop)
        self.predictions = 0
        self.mispredicts_trained = 0

    def predict(self, pc: int, is_backward: bool = False) -> TagePrediction:
        """Predict the direction of the conditional branch at ``pc``.

        ``is_backward`` marks loop-shaped branches (target PC below the
        branch) which are the loop predictor's candidates.
        """
        self.predictions += 1
        pred = self.tage.predict(pc)
        final_taken = pred.taken
        loop_used = False
        if self.config.enable_loop and is_backward:
            loop_pred = self.loop.predict(pc)
            if loop_pred is not None:
                final_taken = loop_pred
                loop_used = True
        if not loop_used and self.config.enable_sc:
            final_taken = self.sc.correct(
                pc, pred.taken, pred.provider_weak or pred.provider < 0
            )
            pred.sc_folds = self.history.folds
        pred.final_taken = final_taken
        pred.loop_used = loop_used
        pred.is_backward = is_backward
        return pred

    @staticmethod
    def predicted_taken(pred: TagePrediction) -> bool:
        """The post-SC/L direction for a prediction from :meth:`predict`."""
        final = pred.final_taken
        return pred.taken if final is None else final

    def train(self, pc: int, taken: bool, pred: TagePrediction) -> None:
        """Retirement-time training of all components."""
        if self.predicted_taken(pred) != taken:
            self.mispredicts_trained += 1
        self.tage.train(pc, taken, pred)
        if self.config.enable_sc and pred.sc_folds is not None:
            self.sc.train(pc, pred.sc_folds, taken)
        if self.config.enable_loop and pred.is_backward:
            self.loop.train(pc, taken)

    # Speculative loop-counter state must follow flush recovery.
    def snapshot_spec_state(self):
        return self.loop.snapshot()

    def restore_spec_state(self, snap) -> None:
        self.loop.restore(snap)

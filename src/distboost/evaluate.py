"""Holdout scoring by total negative log-likelihood.

Candidates trained with different parameterizations, link choices, or
hyperparameters are all comparable under the same index as long as they are
scored on the same rows; reports therefore carry a dataset identity
(source, row count, content hash) next to the model identity.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from . import model_io
from .booster import BoostedModel
from .dataset import Dataset
from .errors import NumericError, ValidationError
from .losses import Loss


@dataclass(frozen=True)
class EvalReport:
    model_id: str
    dataset_id: str
    total_nll: float
    mean_nll: float
    n: int

    def lines(self):
        return [
            f"model={self.model_id}",
            f"dataset={self.dataset_id}",
            f"n={self.n}",
            f"total_nll={self.total_nll!r}",
            f"mean_nll={self.mean_nll!r}",
        ]

    def to_dict(self):
        return asdict(self)


def nll_score(model: BoostedModel, loss: Loss, ds: Dataset, model_id=None):
    """Total and mean NLL on a dataset; model_id defaults to sha256 of the model's text."""
    if loss.name != model.loss_name:
        raise ValidationError(
            f"loss '{loss.name}' does not match model loss '{model.loss_name}'")
    if loss.nuisance != model.nuisance:
        raise ValidationError("loss nuisance constants do not match the model's")
    if ds.feature_names != model.feature_names:
        raise ValidationError(f"dataset features ({', '.join(ds.feature_names)}) do not "
                              f"match the model's ({', '.join(model.feature_names)})")
    loss.validate_rows(ds)
    theta = model.predict_many(ds.features)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        values = np.asarray(loss.value([theta[:, j] for j in range(model.n_params)],
                                       ds.response, ds.exposure, ds.adjustment))
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NumericError(f"non-finite per-sample loss at row {row}")
    total = float(np.sum(values))
    n = ds.n_rows
    return EvalReport(
        model_id=(hashlib.sha256(model_io.dumps(model).encode("utf-8")).hexdigest()
                  if model_id is None else str(model_id)),
        dataset_id=ds.identifier(),
        total_nll=total,
        mean_nll=total / n,
        n=n,
    )

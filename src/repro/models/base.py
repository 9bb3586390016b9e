"""Common interface for learned (and baseline) cost estimators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ..engine.executor import LabeledPlan
from ..engine.operators import OperatorType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.snapshot import SnapshotSet

#: Plans per fused forward in ``predict_prepared_batch``: a larger flush
#: runs as consecutive chunks of this many plans, which bounds the
#: working buffers.  Chunk boundaries never show in the output bits,
#: since the fused path is batch-size-invariant.
PREDICT_CHUNK_PLANS = 512


class ReductionSet(NamedTuple):
    """One trained network whose input columns feature reduction scores.

    ``data`` holds the network's input rows over the training set.
    Only the columns in ``block`` are reducible; the columns before it
    are scored but always kept.  ``output_weights`` picks the outputs
    the scores measure (None: all of them), and ``seed`` draws
    difference propagation's references.  The keep vector over
    ``block`` goes back to :meth:`CostEstimator.install_masks` under
    ``key``.
    """

    key: Hashable
    net: object
    data: np.ndarray
    block: slice
    output_weights: Optional[np.ndarray]
    seed: object


@dataclass
class TrainStats:
    """What :meth:`CostEstimator.fit` reports (paper's "time" column)."""

    epochs: int = 0
    final_loss: float = float("nan")
    train_seconds: float = 0.0
    n_parameters: int = 0
    loss_history: List[float] = field(default_factory=list)


class CostEstimator:
    """Interface: fit on labelled plans, predict latencies in ms.

    ``snapshot_set`` is the QCFE hook: when provided, implementations
    append the per-environment feature-snapshot coefficients to their
    operator encodings (QCFE(qpp), QCFE(mscn)); when None they reduce
    to the base estimators the paper compares against.

    Feature reduction needs three more methods: :meth:`reduction_sets`
    names the trained networks whose inputs it scores,
    :meth:`install_masks` installs the keep vectors it chose, and
    :meth:`keep_masks` reports what is installed.  Estimators without
    reducible inputs keep the defaults.
    """

    name: str = "estimator"

    def fit(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> TrainStats:  # pragma: no cover - abstract
        """Train on *train*'s labelled plans; returns the fit's stats."""
        raise NotImplementedError

    def predict_many(
        self,
        labeled: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:  # pragma: no cover - abstract
        """Predicted latency in ms of every record of *labeled*."""
        raise NotImplementedError

    def predict(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ) -> float:
        """Predicted latency in ms of one record."""
        return float(self.predict_many([record], snapshot_set=snapshot_set)[0])

    def keep_masks(self) -> Optional[Dict[OperatorType, np.ndarray]]:
        """The feature-reduction keep-masks, one boolean vector over the
        operator encoding per operator, or None when nothing was pruned.

        The estimator is the only holder of its reduction state: the
        serving layer's recall watcher reads it here, and
        :meth:`warm_retrain` takes the same mapping back widened.  The
        default (no reduction) is None.
        """
        return None

    def reduction_sets(
        self,
        train: Sequence[LabeledPlan],
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> List[ReductionSet]:
        """The trained, unmasked networks feature reduction runs on, with
        their input rows over *train*.  The default has none."""
        return []

    def install_masks(
        self,
        masks: Mapping[Hashable, np.ndarray],
        fold_means: Optional[Mapping[Hashable, np.ndarray]] = None,
    ) -> None:
        """Install keep vectors over the reducible blocks, keyed as
        :meth:`reduction_sets` keys them, and rebuild the masked nets.

        Without ``fold_means`` the rebuilt nets start from fresh
        weights.  With them (each key's mean input row over the
        training set), each rebuilt net is warm-started: kept
        first-layer rows are copied, each dropped dimension's
        contribution, which is constant over the data, folds into the
        bias, and newly kept rows start at zero.  The default has no
        reducible block and refuses.
        """
        raise NotImplementedError(f"{self.name} has no reducible inputs")

    # ------------------------------------------------------------------
    # serving hooks (repro.serving)
    # ------------------------------------------------------------------
    def prepare_one(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ):
        """Cacheable per-record encoding for the serving layer.

        Returns an opaque object that :meth:`predict_prepared_batch`
        accepts in place of re-encoding *record*.  It must be reusable
        across plan objects that share a fingerprint (same structure and
        estimates), which is what lets a
        :class:`repro.serving.FeatureCache` skip featurization on
        repeated plans.  The default returns None ("no cacheable
        form"), which predict_prepared_batch treats as
        encode-on-demand.
        """
        return None

    def predict_prepared_batch(
        self,
        labeled: Sequence[LabeledPlan],
        prepared: Optional[Sequence] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
    ) -> np.ndarray:
        """Fused whole-flush prediction reusing :meth:`prepare_one`
        encodings: the MicroBatcher entry point.

        ``prepared[i]`` is the cached encoding of ``labeled[i]`` or None,
        in which case the record is encoded on the fly (with
        ``snapshot_set``).  Implementations that support it make one
        vectorized forward pass over all records (grouped, zero
        per-item dispatch) and must return results *bit-identical* to
        calling it per record — the batched path may never perturb a
        prediction.  The default ignores ``prepared`` and calls
        :meth:`predict_many`.

        Empty-flush contract: a zero-length ``labeled`` returns an
        empty **float64** array — never raises, never a default-dtype
        array — so batcher flushes that raced to empty stay cheap and
        dtype-stable.
        """
        if not labeled:
            return np.zeros(0, dtype=np.float64)
        return self.predict_many(labeled, snapshot_set=snapshot_set)

    def prepare_template(
        self, record: LabeledPlan, snapshot_set: Optional["SnapshotSet"] = None
    ):
        """Literal-independent featurized skeleton for template memoization.

        Cached under
        :func:`~repro.featurization.fingerprint.template_fingerprint`,
        so every instantiation of one statement template shares it;
        :meth:`prepare_from_template` patches the literal-derived
        dimensions per request.  The default returns None ("no
        template form"), which the serving layer treats as
        prepare-from-scratch.
        """
        return None

    def prepare_from_template(
        self,
        record: LabeledPlan,
        template,
        snapshot_set: Optional["SnapshotSet"] = None,
    ):
        """Instantiate a cached template with *record*'s literals.

        Must return exactly what :meth:`prepare_one` would — template
        memoization is a cost optimization, never an approximation.
        The default ignores the template and prepares from scratch.
        """
        return self.prepare_one(record, snapshot_set=snapshot_set)

    def warm_retrain(
        self,
        train: Sequence[LabeledPlan],
        masks: Optional[Mapping[OperatorType, np.ndarray]] = None,
        snapshot_set: Optional["SnapshotSet"] = None,
        epochs: Optional[int] = None,
    ) -> TrainStats:
        """Refit from the current weights, optionally widening masks.

        The online-adaptation entry point (see
        :mod:`repro.serving.adaptation`): when workload drift recalls
        pruned dimensions, the refit should *extend* the deployed model
        rather than retrain it from scratch.  ``masks`` are recalled
        keep-masks in the per-operator shape :meth:`keep_masks`
        returns; the reduced models install them through
        :meth:`install_masks`.  Recall only *adds* dimensions, whose new
        weights start at zero — function preserving — so a short
        ``epochs`` budget suffices.  The default ignores ``masks`` and
        simply refits.
        """
        previous = getattr(self, "epochs", None)
        if epochs is not None and previous is not None:
            self.epochs = epochs
        try:
            return self.fit(train, snapshot_set=snapshot_set)
        finally:
            if epochs is not None and previous is not None:
                self.epochs = previous


def snapshot_mapping_for(
    record: LabeledPlan, snapshot_set: Optional["SnapshotSet"]
) -> Optional[Dict]:
    """The encoder snapshot mapping for a record's environment."""
    if snapshot_set is None:
        return None
    return snapshot_set.normalized(record.env_name)


def warm_start_remap(
    old: "object",
    new: "object",
    old_mask: Optional[np.ndarray],
    new_mask: Optional[np.ndarray],
    block: slice,
    fold_mean: np.ndarray,
) -> None:
    """Re-mask an MLP's input space function-preservingly, in place.

    ``old``/``new`` are Sequential MLPs whose first module is a linear
    layer (weight shape: input rows x hidden).  ``old_mask``/``new_mask``
    are the keep vectors over the reducible ``block`` of the full
    input (None: all kept) that each network's first layer was built
    with; the columns outside the block are always kept, and
    ``fold_mean`` spans the full input.  Rows kept in both are copied;
    rows dropped from the old net fold their contribution —
    ``fold_mean[dim] * weight_row``, sound when the dimension is
    constant over the data — into the bias; newly added rows start at
    zero (also function-preserving).  Deeper layers are copied
    verbatim.

    Shared by QPPNet (per-operator units) and MSCN (the final MLP): the
    subtle index arithmetic lives once, here.
    """

    def rows(mask: Optional[np.ndarray]) -> np.ndarray:
        """Full-input indices of the first layer's rows under *mask*."""
        keep = np.ones(len(fold_mean), dtype=bool)
        if mask is not None:
            keep[block] = mask
        return np.nonzero(keep)[0]

    old_rows, new_rows = rows(old_mask), rows(new_mask)
    old_pos = {int(d): i for i, d in enumerate(old_rows)}
    new_set = set(int(d) for d in new_rows)
    old_first = old.modules[0]
    new_first = new.modules[0]
    weight = np.zeros((len(new_rows), old_first.weight.data.shape[1]))
    for row, dim in enumerate(new_rows):
        source = old_pos.get(int(dim))
        if source is not None:
            weight[row] = old_first.weight.data[source]
    bias = old_first.bias.data.copy()
    for dim, source in old_pos.items():
        if dim not in new_set:
            bias = bias + fold_mean[dim] * old_first.weight.data[source]
    new_first.weight.data = weight
    new_first.bias.data = bias
    for old_layer, new_layer in zip(old.modules[1:], new.modules[1:], strict=True):
        new_layer.load_state_dict(old_layer.state_dict())

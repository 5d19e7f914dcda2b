"""Fleet-wide batched scoring: one stacked operator for many VMs.

This is the shared engine behind both consumers of fleet batching:

* the **online serving layer** (:mod:`repro.serve.service`), whose
  micro-batching dispatcher coalesces samples from many connections
  into one :class:`FleetScorer` call, and
* the **offline controller** (:mod:`repro.core.controller`), whose
  predictive and reactive paths score every monitored VM each tick
  with a single fleet contraction.

:class:`FleetScorer` concatenates every VM's per-attribute Markov
chains into a single :class:`~repro.core.predictor.
BatchedAttributeChains` (``total_attrs = Σ n_attrs``) and stacks the
discretizer edges and classifier tensors alongside, precomputing a
k-step *horizon operator* per look-ahead so a mixed-VM batch is scored
with a handful of fleet-wide gathers and einsums instead of one full
pipeline pass per sample.  Naive Bayes enters the stack as a TAN with
no attribute parents: every attribute is a root, and its ``(a, b)``
difference rows are broadcast along the parent axis.

The scorer has one lifecycle: :meth:`FleetScorer.refresh` builds it
from the current predictors (the constructor calls it), and it scores
until the next retrain.  Staleness is one per-VM fact, the identity of
the ``value_models`` list :meth:`AnomalyPredictor.train` replaces, and
it is checked only for the VMs in a batch.

There are two tiers.  The **fast tier** runs whenever the chains
stack (one Markov variant and state count across the fleet) and no VM
in the batch was retrained since the last build; otherwise the
**sequential tier** calls each VM's own pipeline, so a retrained VM is
scored exactly until :meth:`FleetScorer.refresh` re-stacks it.  A
chain updated *in place* keeps its list, so the scorer does not notice
it: call :meth:`FleetScorer.refresh` after one.  Both tiers are
bitwise-identical to :meth:`AnomalyPredictor.predict` /
:meth:`AnomalyPredictor.classify_current`: the stacked einsum
reductions are independent along the attribute axis, and per-VM
reductions keep their shapes.  ``serve_check.py``, the replay harness
and the controller parity tests assert it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bayes import ABNORMAL as TAN_ABNORMAL, NORMAL as TAN_NORMAL
from repro.core.markov import expected_bins
from repro.core.predictor import (
    AnomalyPredictor,
    BatchedAttributeChains,
    PredictionResult,
)
from repro.core.tan import TANClassifier

__all__ = ["FleetScorer"]


def _tan_view(clf) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(diff_soft, diff_hard, parent_or_self, is_root)`` of a
    classifier in TAN form, both difference tensors ``(a, b, b)``.

    Naive Bayes is TAN with no attribute parents: every attribute is a
    root (its own pseudo-parent) and its ``(a, b)`` rows are broadcast
    along the parent axis.
    """
    if isinstance(clf, TANClassifier):
        return (clf._diff_soft, clf._diff_hard, clf._parent_or_self,
                clf.parents < 0)
    a, b = clf._diff_soft.shape
    return (
        np.broadcast_to(clf._diff_soft[:, None, :], (a, b, b)),
        np.broadcast_to(clf._diff_hard[:, None, :], (a, b, b)),
        np.arange(a),
        np.ones(a, dtype=bool),
    )


@dataclass
class _FastTensors:
    """Fleet-stacked scoring state for the fast tier.

    Everything an arriving batch needs, concatenated along one global
    attribute axis (``A = Σ per-VM attrs``): discretizer edges for the
    batched transform, and the per-attribute difference tensors and
    tree metadata for stacked classification.
    """

    edges: np.ndarray        # (A, n_bins - 1)
    diff_soft: np.ndarray    # (A, b, b) clipped Eq. (2) tensors
    diff_hard: np.ndarray    # (A, b, b) unclipped variant
    root_row: np.ndarray     # (A, b) root rows of diff_soft
    rel_parent: np.ndarray   # (A,) parent index *within* the VM
    is_root: np.ndarray      # (A,) bool
    mask: np.ndarray         # (A,) attribute-selection mask
    prior_diff: Dict[str, float]          # vm -> log-prior difference


class FleetScorer:
    """Scores samples from many VMs through one stacked fleet operator.

    See the module docstring for the lifecycle, tiering and parity
    guarantees.
    """

    def __init__(self, predictors: Dict[str, AnomalyPredictor]) -> None:
        if not predictors:
            raise ValueError("need at least one predictor")
        self.predictors = dict(predictors)
        self.refresh()

    @property
    def n_vms(self) -> int:
        return len(self.predictors)

    @property
    def n_states(self) -> int:
        if self._stacked is None:
            raise RuntimeError("fleet is not stacked")
        return self._stacked.n_states

    @property
    def stacked(self) -> bool:
        """True while the fast tier serves the whole fleet: the chains
        stacked and no VM was retrained since the last build."""
        return self._fast is not None and self._current(self.predictors)

    def _current(self, vms) -> bool:
        """True when no VM in ``vms`` was retrained since the build."""
        built = self._built
        predictors = self.predictors
        return all(predictors[vm].value_models is built[vm] for vm in vms)

    def refresh(self) -> bool:
        """(Re)build the scorer from the current predictors.

        The scorer's only build path: the constructor calls it, and
        callers call it after a retrain (or after updating a chain in
        place, which the per-VM staleness check does not see).  It
        re-stacks every VM's chains, classifier and discretizer, drops
        the cached horizon operators, and returns whether the fast
        tier exists (False when the chain variants or state counts do
        not stack).  Raises :class:`ValueError` for an untrained
        predictor.
        """
        for vm, predictor in self.predictors.items():
            if not predictor.trained:
                raise ValueError(f"predictor for VM {vm!r} is not trained")
        order = sorted(self.predictors)
        #: vm -> the value_models list stacked; train() replaces it
        self._built = {vm: self.predictors[vm].value_models for vm in order}
        self._slices: Dict[str, np.ndarray] = {}
        chains = []
        for vm in order:
            start = len(chains)
            chains.extend(self._built[vm])
            self._slices[vm] = np.arange(start, len(chains))
        try:
            self._stacked: Optional[BatchedAttributeChains] = (
                BatchedAttributeChains(chains)
            )
        except ValueError:
            self._stacked = None
        self._fast = self._build_fast() if self._stacked is not None else None
        #: steps -> (A, [p0,] c0, x) final-horizon transition operator
        self._horizon_cache: Dict[int, np.ndarray] = {}
        return self._fast is not None

    def _build_fast(self) -> _FastTensors:
        order = sorted(self.predictors)
        classifiers = [self.predictors[vm].classifier for vm in order]
        discretizers = [self.predictors[vm].discretizer for vm in order]
        soft, hard, parent, root = zip(
            *(_tan_view(clf) for clf in classifiers)
        )
        diff_soft = np.concatenate(soft)
        return _FastTensors(
            edges=np.stack([
                bins.edges
                for disc in discretizers for bins in disc._bins
            ]),
            diff_soft=diff_soft,
            diff_hard=np.concatenate(hard),
            root_row=np.ascontiguousarray(diff_soft[:, 0, :]),
            rel_parent=np.concatenate(parent),
            is_root=np.concatenate(root),
            mask=np.concatenate(
                [clf.attribute_mask for clf in classifiers]
            ),
            prior_diff={
                vm: float(clf._log_prior[TAN_ABNORMAL]
                          - clf._log_prior[TAN_NORMAL])
                for vm, clf in zip(order, classifiers)
            },
        )

    def _horizon_operator(self, steps: int) -> np.ndarray:
        """Final-horizon transition operator for every stacked chain.

        For 2-dependent chains, ``F[a, p0, c0, x]`` is the probability
        of state ``x`` exactly ``steps`` ticks after observing the
        combined state ``(p0, c0)`` — i.e. the whole iterated
        propagation folded into one gather table.  Built by running
        the *same* einsum recurrence :meth:`BatchedAttributeChains.
        predict_all` runs, once per start state, so the gathered row
        is bitwise-identical to propagating live.
        """
        cached = self._horizon_cache.get(steps)
        if cached is not None:
            return cached
        tensor = self._stacked._tensor
        a, n = tensor.shape[0], self._stacked.n_states
        idx = np.arange(n)
        if self._stacked.two_dependent:
            # G[a, p0, c0, c, x]: the live path's dense combined-state
            # matrix after each step, for every (p0, c0) start.
            combined = np.zeros((a, n, n, n, n))
            combined[:, :, idx, idx, :] = tensor
            for _ in range(steps - 1):
                combined = np.einsum(
                    "aspc,apcx->ascx",
                    combined.reshape(a, n * n, n, n),
                    tensor,
                ).reshape(a, n, n, n, n)
            operator = combined.sum(axis=3)
        else:
            dist = tensor.copy()
            for _ in range(steps - 1):
                dist = np.einsum("asc,acx->asx", dist, tensor)
            operator = dist
        self._horizon_cache[steps] = operator
        return operator

    def score(
        self, batch: Sequence[Tuple[str, np.ndarray, int]]
    ) -> List[PredictionResult]:
        """Score ``(vm, recent_values, steps)`` items, preserving order.

        Each result is bitwise-identical to
        ``predictors[vm].predict(recent, steps)``.
        """
        vms = [vm for vm, _, _ in batch]
        if (
            self._fast is None
            or not self._current(vms)
            or not all(self.predictors[vm].vectorized for vm in vms)
        ):
            return [
                self.predictors[vm].predict(recent, steps)
                for vm, recent, steps in batch
            ]
        results: List[Optional[PredictionResult]] = [None] * len(batch)
        by_steps: Dict[int, List[int]] = {}
        for i, (_, _, steps) in enumerate(batch):
            by_steps.setdefault(steps, []).append(i)
        for steps, positions in by_steps.items():
            if steps < 1:
                raise ValueError(f"steps must be >= 1, got {steps}")
            self._score_fast(batch, positions, steps, results)
        return results  # type: ignore[return-value]

    def classify_batch(
        self, batch: Sequence[Tuple[str, np.ndarray]]
    ) -> List[PredictionResult]:
        """Classify ``(vm, observed_values)`` items, preserving order.

        The observed-state (``steps=0``) companion of :meth:`score`,
        used by the controller's reactive path.  Each result is
        bitwise-identical to
        ``predictors[vm].classify_current(values)``: the batched
        transform counts ``edges <= value`` exactly like
        ``searchsorted(side="right")``, and the per-VM strength sums
        reduce the same contiguous 13-element rows the scalar
        ``log_odds`` path reduces.
        """
        if self._fast is None or not self._current(
            vm for vm, _ in batch
        ):
            return [
                self.predictors[vm].classify_current(values)
                for vm, values in batch
            ]
        fast = self._fast
        values = []
        attr_idx = []
        bounds = [0]
        for vm, observed in batch:
            observed = np.asarray(observed, dtype=float)
            sl = self._slices[vm]
            if observed.shape != (sl.shape[0],):
                raise ValueError(
                    f"expected {sl.shape[0]} observed values for "
                    f"{vm!r}, got {observed.shape}"
                )
            values.append(observed)
            attr_idx.append(sl)
            bounds.append(bounds[-1] + sl.shape[0])
        flat = np.concatenate(values)
        sel = np.concatenate(attr_idx)
        bounds = np.asarray(bounds, dtype=np.intp)
        bins = (fast.edges[sel] <= flat[:, None]).sum(axis=1)
        parent_local = fast.rel_parent[sel] + np.repeat(
            bounds[:-1], np.diff(bounds)
        )
        raw = fast.diff_hard[sel][
            np.arange(sel.shape[0]), bins[parent_local], bins
        ]
        strengths_all = np.where(fast.mask[sel], raw, 0.0)
        results: List[PredictionResult] = []
        for j, (vm, _) in enumerate(batch):
            lo, hi = bounds[j], bounds[j + 1]
            strengths = strengths_all[lo:hi]
            score = float(strengths.sum() + fast.prior_diff[vm])
            results.append(PredictionResult(
                abnormal=score > 0.0,
                probability=float(1.0 / (1.0 + np.exp(-score))),
                score=score,
                bins=tuple(int(b) for b in bins[lo:hi]),
                strengths=tuple(float(v) for v in strengths),
                attributes=self.predictors[vm].attributes,
                steps=0,
            ))
        return results

    def _gather_group(
        self,
        batch: Sequence[Tuple[str, np.ndarray, int]],
        positions: List[int],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (histories, global attr indices, item bounds)
        for one same-steps group of the batch."""
        need = self._stacked.history_needed
        values = []
        attr_idx = []
        bounds = [0]
        for i in positions:
            vm, recent, _ = batch[i]
            recent = np.asarray(recent, dtype=float)
            sl = self._slices[vm]
            if recent.ndim != 2 or recent.shape[1] != sl.shape[0]:
                raise ValueError(
                    f"expected (n, {sl.shape[0]}) recent values for "
                    f"{vm!r}, got {recent.shape}"
                )
            if recent.shape[0] < need:
                raise ValueError(
                    f"need {need} recent samples for {vm!r}, "
                    f"got {recent.shape[0]}"
                )
            values.append(recent[-need:])
            attr_idx.append(sl)
            bounds.append(bounds[-1] + sl.shape[0])
        return (
            np.concatenate(values, axis=1),
            np.concatenate(attr_idx),
            np.asarray(bounds, dtype=np.intp),
        )

    def _score_fast(
        self,
        batch: Sequence[Tuple[str, np.ndarray, int]],
        positions: List[int],
        steps: int,
        results: List[Optional[PredictionResult]],
    ) -> None:
        """Fast tier: one batched transform, one horizon-operator
        gather, and two fleet-wide classifier einsums per group."""
        fast = self._fast
        values, sel, bounds = self._gather_group(batch, positions)
        # searchsorted(side="right") == count of edges <= value.
        bins = (fast.edges[sel][None, :, :] <= values[:, :, None]).sum(axis=2)
        operator = self._horizon_operator(steps)
        if self._stacked.two_dependent:
            final = operator[sel, bins[-2], bins[-1]]
        else:
            final = operator[sel, bins[-1]]
        rel_parent = fast.rel_parent[sel]
        parent_local = rel_parent + np.repeat(
            bounds[:-1], np.diff(bounds)
        )
        is_root = fast.is_root[sel]
        mask = fast.mask[sel]
        roots = np.flatnonzero(is_root)
        children = np.flatnonzero(~is_root)
        strengths_all = np.zeros(sel.shape[0])
        if roots.size:
            strengths_all[roots] = np.einsum(
                "ac,ac->a", final[roots], fast.root_row[sel][roots]
            )
        if children.size:
            strengths_all[children] = np.einsum(
                "ap,apc,ac->a",
                final[parent_local[children]],
                fast.diff_soft[sel][children],
                final[children],
            )
        strengths_all = np.where(mask, strengths_all, 0.0)
        diff_hard = fast.diff_hard[sel]
        for j, i in enumerate(positions):
            vm = batch[i][0]
            predictor = self.predictors[vm]
            lo, hi = bounds[j], bounds[j + 1]
            dists = final[lo:hi]
            predicted = expected_bins(dists)
            if predictor.prediction_mode == "hard":
                clipped = np.clip(predicted, 0, predictor.n_bins - 1)
                raw = diff_hard[lo:hi][
                    np.arange(hi - lo), clipped[rel_parent[lo:hi]], clipped
                ]
                strengths = np.where(mask[lo:hi], raw, 0.0)
            else:
                strengths = strengths_all[lo:hi]
            score = float(strengths.sum() + fast.prior_diff[vm])
            results[i] = PredictionResult(
                abnormal=score > 0.0,
                probability=float(1.0 / (1.0 + np.exp(-score))),
                score=score,
                bins=tuple(int(b) for b in predicted),
                strengths=tuple(float(v) for v in strengths),
                attributes=predictor.attributes,
                steps=steps,
            )

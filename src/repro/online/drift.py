"""Workload drift detection over the served-graph stream.

The detector watches the same stream the experience buffer records:
one :class:`GraphObservation` per serve, carrying the graph's
isomorphism-invariant :func:`~repro.graphs.fingerprint
.structural_fingerprint` plus cheap shape statistics (node count, width,
op-type histogram).  Drift is declared by a **Page-Hinkley test** over a
per-observation drift score:

``score = w_n * novelty + w_s * tanh(shape deviation / 3) + w_d * JS``

* *novelty* — is the structural fingerprint absent from the reference
  set?  (Synthetic streams are near-always novel; the Page-Hinkley
  baseline absorbs any constant novelty rate, so only a *change* in the
  rate signals drift.)
* *shape deviation* — z-scores of node count and graph width against the
  reference distribution.
* *JS* — Jensen-Shannon divergence (base 2, in ``[0, 1]``) between the
  recent window's op-type histogram and the reference histogram.

The first ``reference_size`` observations calibrate the reference
(fingerprints, shape moments, op histogram, and the mean score of the
reference against itself).  Page-Hinkley then accumulates
``score - ref_mean - delta`` and triggers when the excursion above the
running minimum exceeds ``threshold`` — the standard sequential test for
a sustained mean increase, robust to single outlier graphs.

After a trigger the detector disarms (one adaptation at a time); call
:meth:`rebaseline` once the policy has been adapted so the *new* traffic
mix becomes the reference.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

from repro.errors import ServiceError
from repro.graphs.dag import ComputationalGraph
from repro.graphs.fingerprint import structural_fingerprint
from repro.graphs.topology import asap_levels


@dataclass(frozen=True)
class GraphObservation:
    """Drift-relevant summary of one served graph."""

    fingerprint: str
    num_nodes: int
    width: int
    op_histogram: Mapping[str, int]

    @classmethod
    def from_graph(cls, graph: ComputationalGraph) -> "GraphObservation":
        levels = asap_levels(graph)
        width = max(Counter(levels.values()).values()) if levels else 0
        return cls(
            fingerprint=structural_fingerprint(graph),
            num_nodes=graph.num_nodes,
            width=width,
            op_histogram=dict(
                Counter(graph.node(n).op_type for n in graph.node_names)
            ),
        )


@dataclass(frozen=True)
class DriftEvent:
    """One detected distribution change."""

    #: Index (0-based) of the observation that tripped the test.
    at_observation: int
    #: Page-Hinkley excursion at the trigger (``> threshold``).
    statistic: float
    #: Drift score of the triggering observation.
    score: float
    #: Reference-phase mean score the excursion is measured against.
    reference_mean_score: float
    #: Fraction of window fingerprints unseen in the reference.
    novelty_rate: float
    #: Mean node count over the recent window.
    window_mean_nodes: float
    #: Window-vs-reference op-histogram Jensen-Shannon divergence.
    op_divergence: float

    def summary(self) -> Dict[str, float]:
        """JSON-friendly view (stored in promotion provenance)."""
        return {
            "at_observation": self.at_observation,
            "statistic": self.statistic,
            "score": self.score,
            "reference_mean_score": self.reference_mean_score,
            "novelty_rate": self.novelty_rate,
            "window_mean_nodes": self.window_mean_nodes,
            "op_divergence": self.op_divergence,
        }


def _js_divergence(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Jensen-Shannon divergence, base 2, of two discrete distributions."""
    keys = set(p) | set(q)
    if not keys:
        return 0.0

    def _kl(a: Mapping[str, float], b: Mapping[str, float]) -> float:
        total = 0.0
        for key in keys:
            pa = a.get(key, 0.0)
            if pa > 0.0:
                total += pa * math.log2(pa / b[key])
        return total

    mixture = {k: 0.5 * (p.get(k, 0.0) + q.get(k, 0.0)) for k in keys}
    return 0.5 * _kl(p, mixture) + 0.5 * _kl(q, mixture)


def _normalize(counts: Mapping[str, int]) -> Dict[str, float]:
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {k: v / total for k, v in counts.items()}


@dataclass
class _Reference:
    """Frozen statistics of the calibration phase."""

    fingerprints: frozenset
    mean_nodes: float
    std_nodes: float
    mean_width: float
    std_width: float
    op_probs: Dict[str, float]
    mean_score: float


class DriftDetector:
    """Page-Hinkley drift detector over served-graph observations.

    Parameters
    ----------
    reference_size:
        Observations used to calibrate the reference distribution.
    window_size:
        Recent-window length for novelty rate and op-histogram
        divergence.
    delta:
        Page-Hinkley slack: mean score must rise by more than ``delta``
        before excursions accumulate (absorbs noise).
    threshold:
        Page-Hinkley trigger level (``lambda``); larger values trade
        detection delay for fewer false alarms.
    novelty_weight / shape_weight / divergence_weight:
        Score composition (see module docstring).
    """

    def __init__(
        self,
        reference_size: int = 64,
        window_size: int = 32,
        delta: float = 0.05,
        threshold: float = 2.0,
        novelty_weight: float = 0.4,
        shape_weight: float = 0.3,
        divergence_weight: float = 0.3,
    ) -> None:
        if reference_size < 2:
            raise ServiceError("reference_size must be >= 2")
        if window_size < 1:
            raise ServiceError("window_size must be >= 1")
        if delta < 0 or threshold <= 0:
            raise ServiceError("delta must be >= 0 and threshold > 0")
        self.reference_size = reference_size
        self.window_size = window_size
        self.delta = delta
        self.threshold = threshold
        self.novelty_weight = novelty_weight
        self.shape_weight = shape_weight
        self.divergence_weight = divergence_weight

        self._calibration: List[GraphObservation] = []
        self._reference: Optional[_Reference] = None
        self._window: Deque[GraphObservation] = deque(maxlen=window_size)
        self._observations = 0
        self._armed = True
        # Page-Hinkley state.
        self._ph_sum = 0.0
        self._ph_min = 0.0

    # ------------------------------------------------------------------
    @property
    def calibrated(self) -> bool:
        """True once the reference phase is complete."""
        return self._reference is not None

    @property
    def armed(self) -> bool:
        """False between a trigger and the next :meth:`rebaseline`."""
        return self._armed

    @property
    def observations(self) -> int:
        return self._observations

    # ------------------------------------------------------------------
    def _score(
        self,
        obs: GraphObservation,
        ref: _Reference,
        novelty: Optional[float] = None,
    ) -> float:
        if novelty is None:
            novelty = 0.0 if obs.fingerprint in ref.fingerprints else 1.0
        dev_nodes = abs(obs.num_nodes - ref.mean_nodes) / max(ref.std_nodes, 1e-9)
        dev_width = abs(obs.width - ref.mean_width) / max(ref.std_width, 1e-9)
        shape = math.tanh(max(dev_nodes, dev_width) / 3.0)
        window_probs = _normalize(self._window_counts())
        divergence = _js_divergence(window_probs, ref.op_probs)
        return (
            self.novelty_weight * novelty
            + self.shape_weight * shape
            + self.divergence_weight * divergence
        )

    def _window_counts(self) -> Counter:
        counts: Counter = Counter()
        for obs in self._window:
            counts.update(obs.op_histogram)
        return counts

    def _build_reference(self, observations: List[GraphObservation]) -> None:
        nodes = [o.num_nodes for o in observations]
        widths = [o.width for o in observations]
        mean_nodes = sum(nodes) / len(nodes)
        mean_width = sum(widths) / len(widths)
        std_nodes = math.sqrt(
            sum((n - mean_nodes) ** 2 for n in nodes) / len(nodes)
        )
        std_width = math.sqrt(
            sum((w - mean_width) ** 2 for w in widths) / len(widths)
        )
        op_counts: Counter = Counter()
        for obs in observations:
            op_counts.update(obs.op_histogram)
        ref = _Reference(
            fingerprints=frozenset(o.fingerprint for o in observations),
            mean_nodes=mean_nodes,
            std_nodes=max(std_nodes, 1.0),
            mean_width=mean_width,
            std_width=max(std_width, 1.0),
            op_probs=_normalize(op_counts),
            mean_score=0.0,
        )
        # Self-calibrate the score baseline: replay the reference
        # observations through the score with a warm window, so constant
        # properties of the stream (e.g. every synthetic graph being
        # structurally novel) cancel out of the Page-Hinkley excursion.
        # Novelty is estimated leave-one-out — a reference observation
        # whose fingerprint appears only once must count as novel, or a
        # stream of always-unique graphs calibrates to novelty 0 and
        # every live observation reads as drift.  Scores from a
        # still-warming window are excluded for the same reason (their
        # histogram divergence is systematically off).
        fingerprint_counts = Counter(o.fingerprint for o in observations)
        self._window.clear()
        scores = []
        for count, obs in enumerate(observations):
            self._window.append(obs)
            loo_novelty = 1.0 if fingerprint_counts[obs.fingerprint] <= 1 else 0.0
            score = self._score(obs, ref, novelty=loo_novelty)
            if count + 1 >= min(self.window_size, len(observations)):
                scores.append(score)
        ref.mean_score = sum(scores) / len(scores)
        self._reference = ref
        self._ph_sum = 0.0
        self._ph_min = 0.0

    # ------------------------------------------------------------------
    def update(self, obs: GraphObservation) -> Optional[DriftEvent]:
        """Feed one observation; returns a :class:`DriftEvent` on drift."""
        index = self._observations
        self._observations += 1
        if self._reference is None:
            self._calibration.append(obs)
            self._window.append(obs)
            if len(self._calibration) >= self.reference_size:
                self._build_reference(self._calibration)
                self._calibration = []
            return None
        self._window.append(obs)
        ref = self._reference
        score = self._score(obs, ref)
        if not self._armed:
            return None
        self._ph_sum += score - ref.mean_score - self.delta
        self._ph_min = min(self._ph_min, self._ph_sum)
        statistic = self._ph_sum - self._ph_min
        if statistic <= self.threshold:
            return None
        self._armed = False
        window = list(self._window)
        novel = sum(
            1 for o in window if o.fingerprint not in ref.fingerprints
        )
        return DriftEvent(
            at_observation=index,
            statistic=statistic,
            score=score,
            reference_mean_score=ref.mean_score,
            novelty_rate=novel / len(window) if window else 0.0,
            window_mean_nodes=(
                sum(o.num_nodes for o in window) / len(window) if window else 0.0
            ),
            op_divergence=_js_divergence(
                _normalize(self._window_counts()), ref.op_probs
            ),
        )

    # ------------------------------------------------------------------
    def rearm(self) -> None:
        """Re-arm against the *existing* reference (Page-Hinkley reset).

        Used after a drift event whose adaptation did not promote: the
        workload is still drifted relative to the reference, so keeping
        it lets sustained drift re-trigger — the next attempt sees a
        larger drifted sample.  (After a *promotion* call
        :meth:`rebaseline` instead.)
        """
        self._ph_sum = 0.0
        self._ph_min = 0.0
        self._armed = True

    def rebaseline(self) -> None:
        """Adopt the recent window as the new reference and re-arm.

        Called after an adaptation promotes (or declines) so the detector
        tracks the *current* traffic mix instead of re-firing on the
        drift it already reported.  With fewer window observations than
        ``reference_size`` the available ones are used — the window is
        the best estimate of the new regime.
        """
        window = list(self._window)
        if len(window) >= 2:
            self._build_reference(window)
        else:
            self._reference = None
            self._calibration = list(window)
        self._armed = True


__all__ = ["DriftDetector", "DriftEvent", "GraphObservation"]

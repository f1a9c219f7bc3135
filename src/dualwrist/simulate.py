"""Synthetic dual-wrist gait corpus with exact ground-truth events.

The waveform model is deliberately simple: gravity baseline on one axis, a
stride-frequency arm-swing sinusoid, and a Gaussian impact bump on both wrists
at every toe-off. Impact heights carry independent per-wrist jitter, so a
single wrist occasionally misses a step that the other wrist still sees; the
wrist-common part of each impact cancels in the left/right difference signal.
All waveform constants are simulator choices, not measured values.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import GroundTruth, Recording, TriaxialSeries, WalkTask

COMFORTABLE_CADENCE = 1.7  # steps per second

# Table-style default per-task corpus sizes (total 203).
DEFAULT_TASK_COUNTS = {
    WalkTask.SLOW_PACE: 25,
    WalkTask.COMFORTABLE_PACE: 26,
    WalkTask.FAST_PACE: 24,
    WalkTask.BAG_RIGHT_HAND: 27,
    WalkTask.PHONE_TWO_HANDS: 26,
    WalkTask.NO_ARM_SWING: 27,
    WalkTask.NO_RIGHT_SHOE: 25,
    WalkTask.CANE_RIGHT_HAND: 23,
}


@dataclass(frozen=True)
class GaitModelParams:
    """Waveform and schedule knobs for one simulated trial."""

    cadence: float = COMFORTABLE_CADENCE
    duration: float = 64.3
    swing_amp_left: float = 0.30
    swing_amp_right: float = 0.30
    impact_amp_left: float = 0.80
    impact_amp_right: float = 0.80
    impact_width: float = 0.05
    toe_off_lag: float = 0.15
    heel_strike_lead: float = 0.08
    step_time_asymmetry: float = 0.0
    noise_std: float = 0.12
    rate: float = 128.0
    baseline: float = 1.0
    # Std of the lognormal per-step, per-wrist impact height jitter.
    amp_jitter: float = 0.38
    # Relative impact height on the wrist on the same side as the stepping
    # foot (the contralateral wrist sees the full impact).
    ipsilateral_ratio: float = 0.55
    # Post-impact rebound: a smaller second bump trailing each toe-off impact.
    rebound_lag: float = 0.36
    rebound_ratio: float = 0.35
    # Extra right-wrist impacts (cane strikes); 0 disables them.
    spurious_impact_amp: float = 0.0
    # Standing time before the first and after the last step (no gait events).
    lead_in: float = 0.0
    lead_out: float = 0.0

    def __post_init__(self):
        if self.cadence <= 0 or self.duration <= 0 or self.rate <= 0:
            raise ValueError("cadence, duration, and rate must be positive")
        for name in (
            "swing_amp_left",
            "swing_amp_right",
            "impact_amp_left",
            "impact_amp_right",
            "noise_std",
            "amp_jitter",
            "rebound_lag",
            "rebound_ratio",
            "spurious_impact_amp",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.impact_width > 0:
            raise ValueError("impact_width must be > 0")
        if self.lead_in < 0 or self.lead_out < 0:
            raise ValueError("lead_in and lead_out must be >= 0")
        if not 0.0 <= self.step_time_asymmetry < 0.5:
            raise ValueError("step_time_asymmetry must lie in [0, 0.5)")


def task_profile(task: WalkTask) -> GaitModelParams:
    """Deterministic baseline waveform profile for each walking task."""
    p = GaitModelParams()
    if task is WalkTask.SLOW_PACE:
        return dataclasses.replace(
            p,
            cadence=COMFORTABLE_CADENCE * 0.75,
            impact_amp_left=p.impact_amp_left * 0.75,
            impact_amp_right=p.impact_amp_right * 0.75,
        )
    if task is WalkTask.FAST_PACE:
        return dataclasses.replace(p, cadence=COMFORTABLE_CADENCE * 1.25)
    if task is WalkTask.BAG_RIGHT_HAND:
        return dataclasses.replace(p, swing_amp_right=p.swing_amp_right * 0.2)
    if task is WalkTask.PHONE_TWO_HANDS:
        return dataclasses.replace(
            p,
            swing_amp_left=p.swing_amp_left * 0.2,
            swing_amp_right=p.swing_amp_right * 0.2,
        )
    if task is WalkTask.NO_ARM_SWING:
        return dataclasses.replace(p, swing_amp_left=0.05, swing_amp_right=0.05)
    if task is WalkTask.NO_RIGHT_SHOE:
        return dataclasses.replace(p, step_time_asymmetry=0.1)
    if task is WalkTask.CANE_RIGHT_HAND:
        return dataclasses.replace(
            p,
            swing_amp_right=p.swing_amp_right * 0.2,
            spurious_impact_amp=0.4,
        )
    return p


def _step_schedule(p: GaitModelParams) -> tuple:
    """Alternating-foot step anchors. Returns (anchor_times, sides) with
    sides[i] == 0 for left, 1 for right."""
    step = 1.0 / p.cadence
    a = p.step_time_asymmetry
    anchors = []
    t = p.lead_in + 0.5 * step
    k = 0
    while t < p.duration - p.lead_out - 0.5 * step:
        anchors.append(t)
        t += step * (1 + a) if k % 2 == 0 else step * (1 - a)
        k += 1
    if not anchors:
        raise ValueError("duration too short for one full step")
    anchors = np.array(anchors)
    sides = np.arange(len(anchors)) % 2  # left foot starts
    return anchors, sides


def _add_bumps(signal: np.ndarray, t: np.ndarray, centers: np.ndarray, heights: np.ndarray,
               width: float, rate: float):
    """Add ``h * exp(-0.5 * ((t - c) / width) ** 2)`` to ``signal`` for each
    center ``c`` and height ``h``, over the samples within ``half`` of the
    center's nearest sample (rounded half to even) that lie inside ``signal``.

    One scatter over a (bumps, samples) grid, and exact against adding the
    bumps one slice at a time: each kept element is the same elementwise
    expression on the same float64 values, and ``np.add.at`` is unbuffered
    and applies its elements in order, bump by bump, so overlapping bumps (an
    impact and its rebound) sum into ``signal`` in the same sequence. Grid
    cells outside ``signal`` are evaluated at a clipped sample and dropped.
    """
    half = int(np.ceil(4 * width * rate)) + 1
    grid = np.rint(centers * rate).astype(np.intp)[:, None] + np.arange(-half, half + 1)
    values = heights[:, None] * np.exp(-0.5 * ((t.take(grid, mode="clip") - centers[:, None]) / width) ** 2)
    keep = (grid >= 0) & (grid < len(signal))
    np.add.at(signal, grid[keep], values[keep])


def simulate_recording(
    task: WalkTask,
    overrides: Optional[Mapping] = None,
    subject_id: str = "subj00",
    seed: int = 0,
    recording_id: Optional[str] = None,
) -> Recording:
    """Generate one trial with exact labels. Deterministic in (task, overrides, seed)."""
    p = task_profile(task)
    if overrides:
        p = dataclasses.replace(p, **dict(overrides))

    anchors, sides = _step_schedule(p)
    heel = anchors - p.heel_strike_lead
    toe = anchors + p.toe_off_lag
    gt = GroundTruth(
        step_times=anchors,
        heel_strikes_left=heel[sides == 0],
        heel_strikes_right=heel[sides == 1],
        toe_offs_left=toe[sides == 0],
        toe_offs_right=toe[sides == 1],
        label_count=len(anchors),
    )

    ss = np.random.SeedSequence(seed)
    ev_rng, noise_rng, meta_rng = (np.random.default_rng(c) for c in ss.spawn(3))

    n = int(round(p.duration * p.rate))
    t = np.arange(n) / p.rate
    stride_hz = p.cadence / 2.0

    # Arm swing only happens while walking; ramp it in/out over the pauses.
    walk_start = p.lead_in
    walk_end = p.duration - p.lead_out
    envelope = np.ones(n)
    ramp_in = min(1.0, p.lead_in)
    ramp_out = min(1.0, p.lead_out)
    if ramp_in > 0:
        envelope *= np.clip((t - (walk_start - ramp_in)) / ramp_in, 0.0, 1.0)
    if ramp_out > 0:
        envelope *= np.clip((walk_end + ramp_out - t) / ramp_out, 0.0, 1.0)

    # Per-step, per-wrist impact height jitter (lognormal, mean height ~ impact_amp).
    jitter = np.exp(ev_rng.normal(0.0, p.amp_jitter, size=(len(anchors), 2)))
    # Rebounds vary much less than impacts; keeping them below their own bump
    # means an impact too faint to register never leaves a lone rebound behind.
    rebound_jitter = np.exp(ev_rng.normal(0.0, 0.15, size=(len(anchors), 2)))
    spurious = None
    if p.spurious_impact_amp > 0:
        right_toes = toe[sides == 1]
        offsets = ev_rng.uniform(0.10, 0.20, size=len(right_toes))
        sp_jit = np.exp(ev_rng.normal(0.0, p.amp_jitter, size=len(right_toes)))
        spurious = (right_toes + offsets, p.spurious_impact_amp * sp_jit)

    series = {}
    for w, (swing_amp, impact_amp, phase) in enumerate(
        [
            (p.swing_amp_left, p.impact_amp_left, 0.0),
            (p.swing_amp_right, p.impact_amp_right, np.pi),
        ]
    ):
        x = envelope * swing_amp * np.sin(2 * np.pi * stride_hz * t + phase)
        y = envelope * 0.3 * swing_amp * np.cos(2 * np.pi * stride_hz * t + phase)
        z = np.full(n, p.baseline)
        scale = np.where(sides == w, p.ipsilateral_ratio, 1.0)
        heights = impact_amp * scale * jitter[:, w]
        _add_bumps(z, t, toe, heights, p.impact_width, p.rate)
        if p.rebound_ratio > 0:
            # Rebounds echo the bump they follow, so a wrist that barely felt
            # an impact gets a proportionally faint rebound.
            _add_bumps(
                z,
                t,
                toe + p.rebound_lag,
                heights * p.rebound_ratio * rebound_jitter[:, w],
                p.impact_width,
                p.rate,
            )
        if w == 1 and spurious is not None:
            _add_bumps(z, t, spurious[0], spurious[1], p.impact_width, p.rate)
        if p.noise_std > 0:
            x = x + noise_rng.normal(0.0, p.noise_std, n)
            y = y + noise_rng.normal(0.0, p.noise_std, n)
            z = z + noise_rng.normal(0.0, p.noise_std, n)
        series[w] = TriaxialSeries(rate=p.rate, x=x, y=y, z=z)

    self_count = int(gt.label_count + meta_rng.integers(-3, 4))
    return Recording(
        id=recording_id or f"{task.value}_{seed}",
        subject_id=subject_id,
        task=task,
        left=series[0],
        right=series[1],
        duration=p.duration,
        ground_truth=gt,
        self_count=self_count,
    )


@dataclass(frozen=True)
class CorpusSpec:
    """How many recordings to generate per task, plus the master seed."""

    task_counts: Mapping[WalkTask, int] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_TASK_COUNTS)
    )
    seed: int = 42

    def total(self) -> int:
        return sum(self.task_counts.values())


def simulate_corpus(spec: CorpusSpec = CorpusSpec()) -> list:
    """Generate the corpus described by ``spec``.

    Per-recording variation (duration, cadence, impact/swing scale) is drawn
    from seeds derived deterministically from the master seed.
    """
    ss = np.random.SeedSequence(spec.seed)
    recordings = []
    idx = 0
    for task in WalkTask:
        count = int(spec.task_counts.get(task, 0))
        if count < 0:
            raise ValueError("per-task counts must be >= 0")
        for j in range(count):
            child = ss.spawn(1)[0]
            var_rng = np.random.default_rng(child)
            base = task_profile(task)
            overrides = {
                # Walking span targets the 30-110 s trial range; standing
                # lead-in/out comes on top of it.
                "duration": float(np.clip(var_rng.normal(72.0, 15.0), 38.0, 118.0)),
                "lead_in": float(var_rng.uniform(2.0, 6.0)),
                "lead_out": float(var_rng.uniform(2.0, 6.0)),
                "cadence": base.cadence * float(var_rng.uniform(0.93, 1.07)),
                "impact_amp_left": base.impact_amp_left * float(np.exp(var_rng.normal(0, 0.15))),
                "impact_amp_right": base.impact_amp_right * float(np.exp(var_rng.normal(0, 0.15))),
                "swing_amp_left": base.swing_amp_left * float(var_rng.uniform(0.8, 1.2)),
                "swing_amp_right": base.swing_amp_right * float(var_rng.uniform(0.8, 1.2)),
            }
            rec_seed = int(var_rng.integers(0, 2**31 - 1))
            recordings.append(
                simulate_recording(
                    task,
                    overrides=overrides,
                    subject_id=f"subj{idx % 27:02d}",
                    seed=rec_seed,
                    recording_id=f"{task.value}_{j:03d}",
                )
            )
            idx += 1
    return recordings

"""saleval: evaluate predicted saliency maps against eye-tracking fixations.

The package covers the classic scores (CC, SIM, NSS, the AUC family) and
their shuffled counterparts (SAUC, SNSS, SSKLD, SJSD, SEMD), which draw
negative points from the fixations of other images so that center bias
cancels instead of inflating scores. A harness runs the full protocol
(resize, per-metric blur search, seeded shuffled trials), aggregates by
distortion strata, ranks models and emits replayable reports.

Modules:
    maps: map transforms, fixation sets, density maps, baselines.
    io: PGM map files and fixation text files.
    shuffle: seeded uniform and cross-image negative sampling.
    metrics_fixation: CC, SIM, NSS, SNSS and the AUC family.
    metrics_histogram: value histograms, KLD/JSD, EMD, shuffled forms.
    flow: the exact min-cost transport solver behind the EMD.
    harness: manifests, the evaluation protocol, statistics, reports.
    cli: the `saleval` command.
"""

from .errors import DegenerateInputError, ManifestError
from .flow import FlowSolution, min_cost_transport
from .harness import (
    ALL_METRICS,
    SHUFFLED_METRICS,
    DatasetManifest,
    EvalConfig,
    EvaluationRecord,
    aggregate_scores,
    build_rankings,
    emit_report,
    evaluate_batch,
    evaluate_pair,
    kendalls_w,
    load_manifest,
    normalized_std_table,
    optimal_blur_search,
    rank_by_score,
    read_records,
    synth_dataset,
)
from .io import read_fixations, read_pgm, write_fixations, write_pgm
from .maps import (
    FixationSet,
    centered_gaussian_baseline,
    density_from_fixations,
    gaussian_blur,
    invert_map,
    normalize_map,
    resize_map,
    values_at,
)
from .metrics_fixation import (
    MetricScore,
    auc_f,
    auc_pair_oracle,
    auc_s,
    cc,
    nss,
    sauc,
    sim,
    snss,
)
from .metrics_histogram import (
    emd_brute_oracle,
    emd_hat,
    jsd,
    semd,
    sjsd,
    sskld,
)
from .shuffle import (
    RNG_ALGORITHM,
    SEED_DERIVATION,
    ShuffleBank,
    TrialPlan,
    build_shuffle_bank,
    derive_trial_seed,
    sample_shuffled_nonfixated,
    sample_uniform_nonfixated,
)

__version__ = "0.1.0"

"""The paper's contribution: multi-time-scale disk workload characterization.

This package is the analysis layer a storage analyst actually calls. It
consumes the trace containers (:mod:`repro.traces`), drives the disk
substrate (:mod:`repro.disk`) where busy/idle ground truth is needed, and
applies the statistics substrate (:mod:`repro.stats`) to answer the
paper's questions at each time scale:

* *How utilized are the drives?* — :mod:`repro.core.utilization`
* *How much idleness is there, and in what shape?* —
  :mod:`repro.core.idleness`, :mod:`repro.core.busyness`
* *How bursty is the arriving workload across time scales?* —
  :mod:`repro.core.burstiness`
* *How do read and write traffic behave over time?* —
  :mod:`repro.core.traffic`
* *What do the hour- and lifetime-granularity data show across a drive
  population?* — :mod:`repro.core.hour_analysis`,
  :mod:`repro.core.lifetime_analysis`
* *Do the scales tell one consistent story?* —
  :mod:`repro.core.timescales`
"""

from repro.core.summary import WorkloadSummary, summarize_trace
from repro.core.utilization import UtilizationAnalysis, analyze_utilization
from repro.core.idleness import IdlenessAnalysis, analyze_idleness
from repro.core.busyness import BusynessAnalysis, analyze_busyness
from repro.core.burstiness import BurstinessAnalysis, analyze_burstiness
from repro.core.traffic import TrafficDynamics, analyze_traffic
from repro.core.hour_analysis import HourScaleAnalysis, analyze_hour_scale
from repro.core.lifetime_analysis import FamilyAnalysis, analyze_family
from repro.core.timescales import CrossScaleStudy, MillisecondStudy, run_millisecond_study
from repro.core.background import (
    BackgroundRunReport,
    BackgroundTask,
    ScrubPlan,
    chunk_size_sweep,
    plan_media_scrub,
    run_in_idle,
    scrub_latent_regions,
)
from repro.core.comparison import ComparisonResult, compare_studies, feature_vector
from repro.core.idleness import chunks_available
from repro.core.latency import (
    DegradedTailAnalysis,
    LatencyAnalysis,
    TierTailAnalysis,
    analyze_degraded_tail,
    analyze_latency,
    analyze_tier_tail,
    queue_depth_series,
    response_ecdf,
    tail_inflation,
)
from repro.core.prediction import IdlePredictor
from repro.core.dossier import render_family_report, render_hour_report, render_study_report
from repro.core.spatial_analysis import SpatialAnalysis, analyze_spatial, seek_distance_ecdf, zone_traffic
from repro.core.streaming import StreamingCharacterizer, characterize_events
from repro.core.forecast import ForecastScore, flat_mean_forecast, score_forecast, seasonal_ewma_forecast, seasonal_naive_forecast
from repro.core.anomaly import DriveAnomaly, inject_regime_change, population_anomalies, self_anomalies
from repro.core.suite import run_profile_studies, suite_table
from repro.core.backoff import BackoffPolicy, backoff_delays
from repro.core.chaos import (
    ChaosPlan,
    ChaosPolicy,
    available_chaos_policies,
    get_chaos_policy,
)
from repro.core.journal import SuiteJournal, job_fingerprint, suite_fingerprint
from repro.core.runner import (
    ExperimentJob,
    ExperimentRunner,
    JobFailure,
    JobResult,
    SuiteReport,
    derive_seeds,
    experiment_matrix,
    run_job,
)
from repro.core.report import Table, ascii_plot, render_series

__all__ = [
    "WorkloadSummary",
    "summarize_trace",
    "UtilizationAnalysis",
    "analyze_utilization",
    "IdlenessAnalysis",
    "analyze_idleness",
    "BusynessAnalysis",
    "analyze_busyness",
    "BurstinessAnalysis",
    "analyze_burstiness",
    "TrafficDynamics",
    "analyze_traffic",
    "HourScaleAnalysis",
    "analyze_hour_scale",
    "FamilyAnalysis",
    "analyze_family",
    "CrossScaleStudy",
    "MillisecondStudy",
    "run_millisecond_study",
    "Table",
    "ascii_plot",
    "render_series",
    "BackgroundTask",
    "BackgroundRunReport",
    "ScrubPlan",
    "run_in_idle",
    "chunk_size_sweep",
    "plan_media_scrub",
    "scrub_latent_regions",
    "chunks_available",
    "ComparisonResult",
    "compare_studies",
    "feature_vector",
    "LatencyAnalysis",
    "analyze_latency",
    "queue_depth_series",
    "response_ecdf",
    "DegradedTailAnalysis",
    "analyze_degraded_tail",
    "TierTailAnalysis",
    "analyze_tier_tail",
    "tail_inflation",
    "IdlePredictor",
    "render_study_report",
    "render_hour_report",
    "render_family_report",
    "SpatialAnalysis",
    "analyze_spatial",
    "zone_traffic",
    "seek_distance_ecdf",
    "StreamingCharacterizer",
    "characterize_events",
    "ForecastScore",
    "seasonal_naive_forecast",
    "seasonal_ewma_forecast",
    "flat_mean_forecast",
    "score_forecast",
    "DriveAnomaly",
    "self_anomalies",
    "population_anomalies",
    "inject_regime_change",
    "run_profile_studies",
    "suite_table",
    "BackoffPolicy",
    "backoff_delays",
    "ChaosPlan",
    "ChaosPolicy",
    "available_chaos_policies",
    "get_chaos_policy",
    "SuiteJournal",
    "job_fingerprint",
    "suite_fingerprint",
    "ExperimentJob",
    "ExperimentRunner",
    "JobFailure",
    "JobResult",
    "SuiteReport",
    "derive_seeds",
    "experiment_matrix",
    "run_job",
]

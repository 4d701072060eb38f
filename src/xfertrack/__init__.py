"""Cross-system transfer of inverse dynamics modules with online
error-prediction learning for trajectory tracking."""

__version__ = "0.1.0"

from .systems import (EPS_GAIN, EPS_RELATIVE_DEGREE, IllDefinedRelativeDegree,
                      LtiSystem, NonlinearSystem, SimTrace, SimulationDiverged,
                      simulate, step)
from .trajectory import (SampledTrajectory, SinusoidTrajectory,
                         ingest_csv_trajectory, training_references)
from .inverse import (AnalyticInverse, InverseDataset, MlpInverseModel,
                      SingularInverse, TrainingConfig, TrainingDiverged,
                      build_inverse_dataset, train_mlp)
from .gp import GpCfg, GpHyperparams, GpWindowModel
from .control import (EstimatedGain, FixedGain, StepLog, TransferController,
                      track_trajectory)
from .stability import (AssumptionViolation, Lemma1Verdict, NotSchurStable,
                        SimilarityVector, StabilityBudget, UndefinedSimilarity,
                        assemble_budget, fit_prediction_budget, iss_gains,
                        lemma1_check, nonlinear_similarity, similarity,
                        stability_report)
from .bench import (BenchConfig, ConfigError, Metrics, RunReport,
                    StrategyResult, SystemCfg, TrajectoryCfg, alpha_sweep,
                    config_digest, default_benchmark_config, metrics,
                    run_comparison, run_strategy)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Continual test-time learning on a toy dual-encoder classifier.

Supervised sessions train a sparse, gradient-scored subset of parameters
while a teacher copy trails by a per-coordinate dual-momentum blend; between
sessions the student adapts on unlabeled streams with max-logit pseudo-label
routing between teacher and student.
"""

__version__ = "0.1.0"

from .autodiff import Graph, Optimizer, OptimizerConfig, Tensor, backward, cross_entropy_from_logits
from .config import ConfigError, RunConfig
from .data import ReplayBuffer, SyntheticTaskSpec, generate_tasks
from .ema import compute_pq, ema_update
from .harness import (RunAudit, VARIANTS, compute_metrics, evaluate, run_experiment,
                      run_supervised_session)
from .masking import Mask, MaskHistory, ScoreMap, reselect_topk, score_parameters, select_topk, union_masks
from .model import (ClassEmbeddingTable, EncoderConfig, ParameterSet, encode, init_class_table,
                    init_model, load_checkpoint, logits, model_loss, predict, save_checkpoint)
from .reporting import (ReportBundle, RunRecord, build_report, evaluate_trends,
                        load_run, persist_run, write_report_files)
from .ttl import route_pseudo_label, ttl_session

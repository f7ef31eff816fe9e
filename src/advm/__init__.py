"""Momentum-family L-infinity adversarial attacks on small numpy models.

The package covers the full pipeline at desk scale: synthetic or IDX
datasets, differentiable classifiers with exact hand-derived gradients,
the momentum attack family (fgsm through the sampled variants), the
diversity/smoothing/scaling gradient transforms, and a transferability
evaluation harness. Everything is deterministic given its seeds.
"""

__version__ = "0.1.0"

from .attacks import (
    VARIANTS,
    AttackConfig,
    AttackResult,
    attack_batch,
    attack_one,
    run_attack,
)
from .data import LabeledDataset, generate_synthetic, load_idx, subsample
from .errors import AdvmError
from .evaluate import (
    RateTable,
    ablation_sweep,
    attack_success_rate,
    emit_report,
    fooled,
    load_attack_set,
    parse_report_csv,
    save_attack_set,
    transfer_matrix,
)
from .models import (
    EnsembleOracle,
    Model,
    ModelSpec,
    load_model,
    save_model,
    train_sgd,
)
from .sampling import SamplingSpec, derive_rng, make_rng, sample_coefficients
from .tensor import project_linf
from .transforms import TransformConfig

__all__ = [
    "AdvmError",
    "AttackConfig",
    "AttackResult",
    "EnsembleOracle",
    "LabeledDataset",
    "Model",
    "ModelSpec",
    "RateTable",
    "SamplingSpec",
    "TransformConfig",
    "VARIANTS",
    "attack_batch",
    "attack_one",
    "attack_success_rate",
    "ablation_sweep",
    "derive_rng",
    "emit_report",
    "fooled",
    "generate_synthetic",
    "load_attack_set",
    "load_idx",
    "load_model",
    "make_rng",
    "parse_report_csv",
    "project_linf",
    "run_attack",
    "sample_coefficients",
    "save_attack_set",
    "save_model",
    "subsample",
    "train_sgd",
    "transfer_matrix",
    "__version__",
]

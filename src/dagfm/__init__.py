"""Feature-interaction laboratory for CTR models.

A numpy implementation of a DAG-propagation factorization machine student,
explicit-interaction teachers (compressed interaction network, cross
network), shallow baselines, a three-stage knowledge-distillation pipeline,
an exact enumeration oracle for the propagation dynamics, and efficiency
accounting (closed-form params / FLOPs; timing lives in ``perfbench/``).
"""

from .checkpoint import build_model, load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    DatasetSplit,
    FieldSchema,
    build_vocab,
    iterate_batches,
    load_dataset,
    read_csv,
    split_dataset,
)
from .distill import (
    DistillPlan,
    StageConfig,
    TrainReport,
    ctr_loss,
    distill_student,
    evaluate,
    finetune_student,
    kd_loss,
    run_pipeline,
    total_loss,
    train_teacher,
)
from .interactions import (
    DagfmModel,
    DagfmPlusModel,
    DagfmPlusSpec,
    DagfmSpec,
    phi_basic_inner,
    phi_inner,
    phi_kernel,
    phi_outer,
)
from .metrics import (
    auc,
    count_flops,
    count_params,
    efficiency_report,
    instrumented_flops,
    logloss,
)
from .numcore import ParamStore, adam_step, grad_check
from .oracle import (
    assert_dp_equivalence,
    enumerate_suffix_set,
    oracle_node_state,
    outer_kernel_equivalence,
    suffix_set_size,
)
from .teachers import (
    CinModel,
    CinSpec,
    CrossNetModel,
    CrossNetSpec,
    FmfmModel,
    FmfmSpec,
    FwfmModel,
    FwfmSpec,
    TinyMlpModel,
    TinyMlpSpec,
)

__version__ = "0.1.0"

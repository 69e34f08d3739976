"""survmamba: selective state-space survival modeling on paired
histology/genomics bags, in plain numpy.

Layers of the library, bottom up:

* ``numerics``  - float64 tensors with reverse-mode autodiff, the tape
  ops the model records, the numpy kernels its block nodes run (conv,
  softplus, layer norm), the ``Runs`` layout of independent sequences
  laid end to end, plus finite-difference gradient verification.
* ``ssm``       - the selective scan: discretization and the sequential
  recurrence, one differentiable tape node.
* ``blocks``    - the bidirectional scan block and the cross-gated
  two-modality fusion block, each call one tape node.
* ``hierarchy`` - two-level bags, per-modality encoders, and the
  dual-level aggregation pipeline (shared fine block, pooling, coarse
  block).
* ``fusion``    - token alignment, fine/coarse fusion, the adaptive
  gate, the discrete hazard head and the survival likelihood.
* ``survstats`` - concordance index, Kaplan-Meier and log-rank from one
  risk table, the 1-dof chi-square tail, median risk stratification.
* ``model`` / ``training`` / ``synth`` / ``dataio`` / ``optim`` - the
  end-to-end model, cross-validated training and evaluation, the
  synthetic-data generator, file formats, and rectified Adam.
* ``cli``       - the ``survmamba`` command (synth / train / eval /
  gradcheck / scan-bench / km).
"""

from .blocks import BiMambaBlock, IFMBlock
from .data import PatientRecord, SurvivalDataset, assign_bins, make_folds
from .dataio import load_checkpoint, load_dataset, save_checkpoint, save_dataset
from .fusion import (
    AlphaParam,
    FusedFeatures,
    HazardHead,
    HazardOutput,
    adaptive_fuse,
    align_fine_tokens,
    fuse_coarse,
    fuse_fine,
    hazard_output_from,
    survival_nll,
)
from .hierarchy import (
    GenomicsEncoder,
    GroupingConfig,
    HierarchicalBag,
    HistologyEncoder,
    default_catalog,
    him_coarse,
    him_fine,
    make_grouping,
)
from .model import ModelConfig, SurvMambaModel, report_complexity
from .numerics import Runs, Tensor, grad_check, no_grad
from .optim import RAdam
from .ssm import DiscreteParams, bench_scan, discretize, selective_scan_recurrent
from .survstats import (
    KmCurve,
    SurvivalOutcome,
    chi2_sf,
    concordance_index,
    kaplan_meier,
    logrank_test,
    risk_stratify,
)
from .synth import SynthSpec, synth_generate
from .training import EvalReport, TrainConfig, build_model, evaluate, train

__version__ = "0.1.0"

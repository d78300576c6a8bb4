"""Transformer substrate: layers, ViT/DeiT, op counting, quantized inference."""

from repro.models.attention import MultiHeadSelfAttention
from repro.models.backend import BACKENDS, PolicyBackend, get_backend
from repro.models.configs import CONFIGS, DEIT_BASE, DEIT_SMALL, DEIT_TINY, ViTConfig
from repro.models.data import (
    TASKS,
    Dataset,
    additive_lm_sequences,
    majority_task,
    matching_pairs_task,
    needle_task,
)
from repro.models.decoder import DecoderBlock, RMSNorm, SwiGLUMLP, TinyLM
from repro.models.layers import (
    GELU,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Softmax,
    gelu,
    softmax,
)
from repro.models.policy import (
    POLICY_PRESETS,
    ROLES,
    PolicyRule,
    PrecisionPolicy,
    get_policy,
    load_policy,
)
from repro.models.ops_count import (
    PAPER_TABLE4_OPS,
    LinearOpCounts,
    NonlinearElementCounts,
    count_linear_macs,
    count_nonlinear_elements,
    nonlinear_flops_per_element,
    table4_partitions,
)
from repro.models.integer_nonlinear import i_exp, i_gelu, i_softmax, i_sqrt
from repro.models.quantized import RegimeResult, evaluate_regimes, logit_deviation
from repro.models.sensitivity import SelectiveBackend, component_sensitivity
from repro.models.serialization import (
    load_state_dict,
    load_weights,
    save_weights,
    state_dict,
)
from repro.models.training import (
    Adam,
    TrainResult,
    accuracy,
    cross_entropy,
    lm_cross_entropy,
    next_token_accuracy,
    train_classifier,
    train_lm,
)
from repro.models.vit import (
    MLP,
    PatchEmbed,
    SequenceClassifier,
    TransformerBlock,
    VisionTransformer,
)

__all__ = [
    "Adam",
    "BACKENDS",
    "CONFIGS",
    "DEIT_BASE",
    "DEIT_SMALL",
    "DEIT_TINY",
    "Dataset",
    "DecoderBlock",
    "RMSNorm",
    "SwiGLUMLP",
    "TinyLM",
    "SelectiveBackend",
    "load_state_dict",
    "load_weights",
    "save_weights",
    "state_dict",
    "additive_lm_sequences",
    "component_sensitivity",
    "lm_cross_entropy",
    "next_token_accuracy",
    "train_lm",
    "Embedding",
    "GELU",
    "i_exp",
    "i_gelu",
    "i_softmax",
    "i_sqrt",
    "LayerNorm",
    "Linear",
    "LinearOpCounts",
    "MLP",
    "Module",
    "MultiHeadSelfAttention",
    "NonlinearElementCounts",
    "PAPER_TABLE4_OPS",
    "POLICY_PRESETS",
    "PatchEmbed",
    "PolicyBackend",
    "PolicyRule",
    "PrecisionPolicy",
    "ROLES",
    "RegimeResult",
    "SequenceClassifier",
    "Softmax",
    "TASKS",
    "TrainResult",
    "TransformerBlock",
    "ViTConfig",
    "VisionTransformer",
    "accuracy",
    "count_linear_macs",
    "count_nonlinear_elements",
    "cross_entropy",
    "evaluate_regimes",
    "gelu",
    "get_backend",
    "get_policy",
    "load_policy",
    "logit_deviation",
    "majority_task",
    "matching_pairs_task",
    "needle_task",
    "nonlinear_flops_per_element",
    "quantize_int8",
    "softmax",
    "table4_partitions",
    "train_classifier",
]

from repro.formats.int8q import quantize_int8  # re-export used in examples

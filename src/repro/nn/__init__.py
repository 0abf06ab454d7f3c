"""A from-scratch NumPy deep-learning framework.

This subpackage replaces the TensorFlow/Keras stack the paper ran on:
reverse-mode autodiff (:mod:`repro.nn.tensor`), layers
(:mod:`repro.nn.layers`), losses and optimizers — everything the RPTCN
architecture and its deep baselines need, with vectorized NumPy kernels.
"""

from . import functional, init, kernels, optim
from .layers import (
    ELU,
    GELU,
    GRU,
    LSTM,
    AvgPool1d,
    BahdanauAttention,
    BatchNorm1d,
    CausalConv1d,
    Conv1d,
    Dropout,
    FeatureAttention,
    Flatten,
    GlobalAvgPool1d,
    GRUCell,
    Lambda,
    LayerNorm,
    LeakyReLU,
    Linear,
    LSTMCell,
    LuongAttention,
    MaxPool1d,
    ModuleList,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    SpatialDropout1d,
    Tanh,
    TemporalAttention,
    WeightNormConv1d,
)
from .init import default_rng, set_default_seed
from .losses import HuberLoss, MAELoss, MSELoss
from .module import Module, Parameter
from .plan import InferencePlan, TraceError, compile_inference
from .tensor import (
    Tensor,
    dtype_policy,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "dtype_policy",
    "set_default_seed",
    "default_rng",
    "Module",
    "Parameter",
    "compile_inference",
    "InferencePlan",
    "TraceError",
    "functional",
    "init",
    "optim",
    "MSELoss",
    "MAELoss",
    "HuberLoss",
    # layers
    "Linear",
    "Conv1d",
    "CausalConv1d",
    "WeightNormConv1d",
    "LayerNorm",
    "BatchNorm1d",
    "Dropout",
    "SpatialDropout1d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "LeakyReLU",
    "ELU",
    "GELU",
    "Sequential",
    "ModuleList",
    "Flatten",
    "Lambda",
    "MaxPool1d",
    "AvgPool1d",
    "GlobalAvgPool1d",
    "LSTM",
    "LSTMCell",
    "GRU",
    "GRUCell",
    "FeatureAttention",
    "TemporalAttention",
    "BahdanauAttention",
    "LuongAttention",
]

"""Neural-net building blocks over :class:`~repro.nn.tensor.Tensor`."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


class Module:
    """Base class: parameter registration, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._params: Dict[str, Tensor] = {}
        self._children: Dict[str, "Module"] = {}
        self.training = True

    def register(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        tensor.name = name
        self._params[name] = tensor
        return tensor

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def parameters(self) -> List[Tensor]:
        out = list(self._params.values())
        for child in self._children.values():
            out.extend(child.parameters())
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, tensor in self._params.items():
            yield f"{prefix}{name}", tensor
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self.training = True
        for child in self._children.values():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self._children.values():
            child.eval()
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, tensor in own.items():
            if tensor.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{tensor.data.shape} vs {state[name].shape}"
                )
            tensor.data = np.asarray(state[name], dtype=np.float64).copy()

    def clone(self) -> "Module":
        """Deep copy of the module (weights only, optimizer state excluded)."""
        import copy

        twin = copy.deepcopy(self)
        twin.zero_grad()
        return twin


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0,
                 bias: bool = True) -> None:
        super().__init__()
        rng = derive_rng(seed, "linear", in_features, out_features)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = self.register(
            "weight", Tensor(rng.uniform(-bound, bound, size=(in_features, out_features)))
        )
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = self.register("bias", Tensor(np.zeros(out_features)))

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id -> vector lookup table."""

    def __init__(self, vocab_size: int, dim: int, seed: int = 0) -> None:
        super().__init__()
        rng = derive_rng(seed, "embedding", vocab_size, dim)
        self.weight = self.register(
            "weight", Tensor(rng.normal(0.0, 0.6 / np.sqrt(dim), size=(vocab_size, dim)))
        )

    def __call__(self, indices: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(indices, dtype=np.int64))


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, epsilon: float = 1e-5) -> None:
        super().__init__()
        self.epsilon = epsilon
        self.gamma = self.register("gamma", Tensor(np.ones(dim)))
        self.beta = self.register("beta", Tensor(np.zeros(dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.gamma, self.beta, self.epsilon)


class FeedForward(Module):
    """Two-layer MLP with ReLU, the transformer FFN block."""

    def __init__(self, dim: int, hidden: int, seed: int = 0) -> None:
        super().__init__()
        self.up = self.add_child("up", Linear(dim, hidden, seed=seed))
        self.down = self.add_child("down", Linear(hidden, dim, seed=seed + 1))

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).relu())


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal positional code (Vaswani et al.), shape ``(length, dim)``."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    code = np.zeros((length, dim))
    code[:, 0::2] = np.sin(positions * div)
    code[:, 1::2] = np.cos(positions * div[: (dim + 1) // 2][: code[:, 1::2].shape[1]])
    return code

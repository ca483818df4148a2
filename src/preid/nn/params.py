"""Named parameters and initialization helpers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ParameterStore:
    """Ordered name -> parameter tensor map; lexicographic order is canonical.

    Names are hierarchical and unique per model. Parameters start frozen
    (``requires_grad`` off), so inference records no tape; training turns
    gradients on with :meth:`set_requires_grad`.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(data)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def n_values(self) -> int:
        return sum(t.data.size for _, t in self.items())

    def zero_grad(self):
        for _, t in self.items():
            t.grad = None

    def set_requires_grad(self, flag: bool):
        for _, t in self.items():
            t.requires_grad = flag


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape, dtype=np.float32) -> np.ndarray:
    bound = np.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)

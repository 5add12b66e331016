"""Small numpy predictors trainable against mixed hard/soft targets.

Two model families, both with hand-written backward passes so gradient
correctness can be established by finite differences rather than trust:

* TextClassifier: embeddings, multi-width convolution with tanh feature
  maps, max-over-time pooling, softmax output.
* SequenceTagger: embeddings, a tanh window MLP around each position,
  per-position softmax outputs (positions conditionally independent).

The mixed loss is (1 - pi) * CE(hard, pred) + pi * CE(soft, pred); its
logit gradient is softmax - ((1 - pi) * hard + pi * soft).  Log arguments
are floored at 1e-12; the analytic gradient treats the floor as inactive,
which only matters in saturated regions.

Both models are batch-native: ``forward`` takes a list of 1-d token-id
arrays and returns one distribution per sentence, (K,) for the classifier
and (T_i, K) for the tagger, and training takes one forward and one
backward pass per minibatch.  The batch is padded to (B, T_max), windows
are strided views of it, and each conv width (or the tagger's hidden
layer) is one stacked matmul.  Trailing padding ids are stripped first, so a
padded and an unpadded copy of a sentence produce identical outputs, and
whatever else shares its batch.  Masks work by position, not by id: an
interior id 0 keeps its embedding row, while positions past a sentence's
end are zero vectors.  The classifier pools only over windows that start
within max(length, widest window) - w; the tagger's out-of-sentence
positions get no gradient.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PAD_TOKEN",
    "UNK_TOKEN",
    "Vocabulary",
    "MixedTarget",
    "mixed_loss",
    "mixed_target_gradient",
    "TextClassifier",
    "SequenceTagger",
    "Adadelta",
    "NonFiniteGradientError",
    "backward_and_step",
    "finite_difference_check",
    "num_params",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
LOG_FLOOR = 1e-12
CHECKPOINT_VERSION = 1
# Adadelta's decay rate and conditioning constant.
_RHO = 0.95
_EPS = 1e-6


# --- vocabulary --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Dense token-to-index map with padding at 0 and unknown at 1."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        tokens = tuple(self.tokens)
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the pad and unk tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(
            self, "_index", {tok: i for i, tok in enumerate(tokens)}
        )

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]) -> "Vocabulary":
        """Every corpus token, most frequent first, ties in lexical order."""
        counts = Counter(tok for sent in corpus for tok in sent)
        kept = sorted(counts, key=lambda tok: (-counts[tok], tok))
        return cls((PAD_TOKEN, UNK_TOKEN) + tuple(kept))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        idx = self._index
        return np.array([idx.get(t, 1) for t in tokens], dtype=int)

    def to_list(self) -> list[str]:
        return list(self.tokens)


# --- targets and loss --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixedTarget:
    """Hard one-hot target plus an optional soft target with weight pi.

    Shapes are (K,) for classification or (T, K) for tagging; hard and
    soft must match.  pi > 0 requires a soft target.
    """

    hard: np.ndarray
    soft: Optional[np.ndarray] = None
    pi: float = 0.0

    def __post_init__(self):
        hard = np.asarray(self.hard, dtype=float)
        if hard.ndim not in (1, 2):
            raise ValueError("targets must be (K,) or (T, K)")
        _check_simplex(hard, "hard")
        object.__setattr__(self, "hard", hard)
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must lie in [0, 1], got {self.pi}")
        if self.soft is None:
            if self.pi > 0.0:
                raise ValueError("pi > 0 requires a soft target")
        else:
            soft = np.asarray(self.soft, dtype=float)
            if soft.shape != hard.shape:
                raise ValueError("hard and soft target shapes must match")
            _check_simplex(soft, "soft")
            object.__setattr__(self, "soft", soft)

    def combined(self) -> np.ndarray:
        """(1 - pi) * hard + pi * soft; the loss is CE against this blend."""
        if self.soft is None:
            return self.hard
        return (1.0 - self.pi) * self.hard + self.pi * self.soft


def _check_simplex(arr: np.ndarray, name: str) -> None:
    if (arr < 0).any() or np.isnan(arr).any():
        raise ValueError(f"{name} target entries must be nonnegative")
    sums = arr.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise ValueError(f"{name} target rows must sum to 1")


def _cross_entropy(target, pred):
    clipped = np.maximum(np.asarray(pred, dtype=float), LOG_FLOOR)
    return float(-np.sum(target * np.log(clipped)))


def mixed_loss(pred, target: MixedTarget) -> float:
    """(1 - pi) * CE(hard, pred) + pi * CE(soft, pred), summed over positions."""
    pred = np.asarray(pred, dtype=float)
    if pred.shape != target.hard.shape:
        raise ValueError("prediction and target shapes must match")
    loss = (1.0 - target.pi) * _cross_entropy(target.hard, pred)
    if target.soft is not None and target.pi > 0.0:
        loss += target.pi * _cross_entropy(target.soft, pred)
    return loss


def mixed_target_gradient(pred, target: MixedTarget) -> np.ndarray:
    """Gradient of the mixed loss with respect to the logits: pred - blend."""
    return np.asarray(pred, dtype=float) - target.combined()


# --- model base --------------------------------------------------------------


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _clean_ids(ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=int)
    if ids.ndim != 1:
        raise ValueError("token ids must be a 1-d array")
    end = len(ids)
    while end > 0 and ids[end - 1] == 0:
        end -= 1
    if end == 0:
        raise ValueError("empty input (no non-padding tokens)")
    return ids[:end]


def _pad_batch(ids_list, min_len: int = 1):
    """Strip each sentence's trailing padding and pad the batch to (B, T),
    T = max(longest sentence, min_len).  Returns the padded ids, the (B, T)
    mask of in-sentence positions and the sentence lengths."""
    ids_list = [_clean_ids(ids) for ids in ids_list]
    if not ids_list:
        raise ValueError("empty batch")
    lengths = np.array([len(ids) for ids in ids_list])
    mask = np.arange(max(int(lengths.max()), min_len)) < lengths[:, None]
    padded = np.zeros(mask.shape, dtype=int)
    padded[mask] = np.concatenate(ids_list)
    return padded, mask, lengths


def _windows(x: np.ndarray, w: int) -> np.ndarray:
    """(B, T, E) -> (B, T - w + 1, w * E); row i of sentence b is
    x[b, i : i + w] flattened."""
    view = np.lib.stride_tricks.sliding_window_view(x, w, axis=1)
    b, n, e, _ = view.shape
    return view.transpose(0, 1, 3, 2).reshape(b, n, w * e)


def _unwindow(dm: np.ndarray, w: int, length: int) -> np.ndarray:
    """Adjoint of ``_windows``: (B, n, w * E) -> (B, length, E), summing
    each position's share of the windows that cover it."""
    b, n, we = dm.shape
    dm = dm.reshape(b, n, w, we // w)
    dx = np.zeros((b, length, we // w))
    for j in range(w):
        dx[:, j : j + n] += dm[:, :, j]
    return dx


# Every matmul on a (B, n, d) batch array is stacked, one small product
# per sentence: a single (B * n, d) product is large enough for BLAS to
# split it over threads, which costs more than it saves at these sizes and
# stalls when the other cores are busy.


def _weight_grad(m: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Sum over sentences and positions of outer(m, dz), for (B, n, d) m
    and (B, n, k) dz."""
    return (m.transpose(0, 2, 1) @ dz).sum(axis=0)


class _Model:
    """A batch-native model: ``forward`` takes a list of 1-d token-id
    arrays and returns one output distribution per sentence."""

    kind: str = ""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, ids_list) -> list[np.ndarray]:
        return self._forward_cache(ids_list)[0]

    def _forward_cache(self, ids_list):
        """(per-sentence outputs, cache for ``backward``)."""
        raise NotImplementedError

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        """Parameter gradients given one logit gradient per sentence."""
        raise NotImplementedError

    def config_dict(self) -> dict:
        raise NotImplementedError


class TextClassifier(_Model):
    """Convolutional sentence classifier with max-over-time pooling."""

    kind = "text_classifier"

    def __init__(
        self,
        vocab_size: int,
        n_classes: int,
        emb_dim: int = 32,
        window_sizes: tuple[int, ...] = (2, 3),
        n_filters: int = 16,
        seed: int = 0,
    ):
        super().__init__()
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if not window_sizes or any(w < 1 for w in window_sizes):
            raise ValueError("window sizes must be positive")
        self.vocab_size = int(vocab_size)
        self.n_classes = int(n_classes)
        self.emb_dim = int(emb_dim)
        self.window_sizes = tuple(int(w) for w in window_sizes)
        self.n_filters = int(n_filters)
        rng = np.random.default_rng(seed)
        u = lambda shape: rng.uniform(-0.05, 0.05, size=shape)
        self.params["emb"] = u((self.vocab_size, self.emb_dim))
        for w in self.window_sizes:
            self.params[f"conv{w}_w"] = u((w * self.emb_dim, self.n_filters))
            self.params[f"conv{w}_b"] = np.zeros(self.n_filters)
        feat_dim = len(self.window_sizes) * self.n_filters
        self.params["out_w"] = u((feat_dim, self.n_classes))
        self.params["out_b"] = np.zeros(self.n_classes)

    def config_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "n_classes": self.n_classes,
            "emb_dim": self.emb_dim,
            "window_sizes": list(self.window_sizes),
            "n_filters": self.n_filters,
        }

    def _forward_cache(self, ids_list):
        widest = max(self.window_sizes)
        ids, mask, lengths = _pad_batch(ids_list, widest)
        x = self.params["emb"][ids] * mask[..., None]
        # Each sentence is zero-padded to max(length, widest window); a
        # window starting beyond that is batch padding and never pools.
        last_start = np.maximum(lengths, widest)[:, None]
        segments, pooled = [], []
        for w in self.window_sizes:
            m = _windows(x, w)
            a = np.tanh(m @ self.params[f"conv{w}_w"] + self.params[f"conv{w}_b"])
            valid = np.arange(m.shape[1]) <= last_start - w
            arg = np.argmax(np.where(valid[..., None], a, -np.inf), axis=1)[:, None, :]
            segments.append((w, m, a, arg))
            pooled.append(np.take_along_axis(a, arg, axis=1)[:, 0])
        feat = np.concatenate(pooled, axis=1)
        probs = _softmax_rows(feat @ self.params["out_w"] + self.params["out_b"])
        return list(probs), (ids, mask, segments, feat)

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        ids, mask, segments, feat = cache
        dlogits = np.asarray(dlogits, dtype=float)
        g = {"out_w": feat.T @ dlogits, "out_b": dlogits.sum(axis=0)}
        dfeat = (dlogits @ self.params["out_w"].T).reshape(len(ids), -1, self.n_filters)
        dx = np.zeros(mask.shape + (self.emb_dim,))
        for (w, m, a, arg), dpool in zip(segments, np.moveaxis(dfeat, 1, 0)):
            da = np.zeros_like(a)
            np.put_along_axis(da, arg, dpool[:, None, :], axis=1)
            dz = da * (1.0 - a * a)
            g[f"conv{w}_w"] = _weight_grad(m, dz)
            g[f"conv{w}_b"] = dz.sum(axis=(0, 1))
            dx += _unwindow(dz @ self.params[f"conv{w}_w"].T, w, mask.shape[1])
        g["emb"] = np.zeros_like(self.params["emb"])
        np.add.at(g["emb"], ids[mask], dx[mask])
        return {name: g[name] for name in self.params}


class SequenceTagger(_Model):
    """Window MLP tagger: independent per-position softmax outputs."""

    kind = "sequence_tagger"

    def __init__(
        self,
        vocab_size: int,
        n_tags: int,
        emb_dim: int = 32,
        hidden: int = 32,
        radius: int = 2,
        seed: int = 0,
    ):
        super().__init__()
        if n_tags < 2:
            raise ValueError("need at least two tags")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.vocab_size = int(vocab_size)
        self.n_tags = int(n_tags)
        self.emb_dim = int(emb_dim)
        self.hidden = int(hidden)
        self.radius = int(radius)
        rng = np.random.default_rng(seed)
        u = lambda shape: rng.uniform(-0.05, 0.05, size=shape)
        win = 2 * self.radius + 1
        self.params["emb"] = u((self.vocab_size, self.emb_dim))
        self.params["hidden_w"] = u((win * self.emb_dim, self.hidden))
        self.params["hidden_b"] = np.zeros(self.hidden)
        self.params["out_w"] = u((self.hidden, self.n_tags))
        self.params["out_b"] = np.zeros(self.n_tags)

    def config_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "n_tags": self.n_tags,
            "emb_dim": self.emb_dim,
            "hidden": self.hidden,
            "radius": self.radius,
        }

    def _forward_cache(self, ids_list):
        ids, mask, lengths = _pad_batch(ids_list)
        r = self.radius
        xpad = np.zeros((len(ids), mask.shape[1] + 2 * r, self.emb_dim))
        xpad[:, r : r + mask.shape[1]] = self.params["emb"][ids] * mask[..., None]
        m = _windows(xpad, 2 * r + 1)
        h = np.tanh(m @ self.params["hidden_w"] + self.params["hidden_b"])
        probs = _softmax_rows(h @ self.params["out_w"] + self.params["out_b"])
        return [p[:n] for p, n in zip(probs, lengths)], (ids, mask, m, h)

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        ids, mask, m, h = cache
        # Positions past a sentence's end get no gradient.
        d = np.zeros(mask.shape + (self.n_tags,))
        d[mask] = np.concatenate(dlogits)
        g = {"out_w": _weight_grad(h, d), "out_b": d.sum(axis=(0, 1))}
        dz = (d @ self.params["out_w"].T) * (1.0 - h * h)
        g["hidden_w"] = _weight_grad(m, dz)
        g["hidden_b"] = dz.sum(axis=(0, 1))
        r, t = self.radius, mask.shape[1]
        dxpad = _unwindow(dz @ self.params["hidden_w"].T, 2 * r + 1, t + 2 * r)
        g["emb"] = np.zeros_like(self.params["emb"])
        np.add.at(g["emb"], ids[mask], dxpad[:, r : r + t][mask])
        return {name: g[name] for name in self.params}


# --- optimization ------------------------------------------------------------


class NonFiniteGradientError(RuntimeError):
    """A gradient block became NaN or infinite."""

    def __init__(self, block: str):
        super().__init__(f"non-finite gradient in parameter block {block!r}")
        self.block = block


class Adadelta:
    """Adaptive per-parameter steps; no global learning rate."""

    def __init__(self):
        self._state: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        for name, g in grads.items():
            if name not in self._state:
                self._state[name] = (np.zeros_like(g), np.zeros_like(g))
            eg2, edx2 = self._state[name]
            eg2 *= _RHO
            eg2 += (1.0 - _RHO) * g * g
            dx = -np.sqrt(edx2 + _EPS) / np.sqrt(eg2 + _EPS) * g
            edx2 *= _RHO
            edx2 += (1.0 - _RHO) * dx * dx
            params[name] += dx


def _batch_gradients(model, batch):
    """Mean mixed loss and mean gradients over a batch: one forward and
    one backward pass over the padded batch."""
    probs, cache = model._forward_cache([ids for ids, _ in batch])
    scale = 1.0 / len(batch)
    pairs = list(zip(probs, (target for _, target in batch)))
    total = sum(mixed_loss(p, t) for p, t in pairs)
    grads = model.backward(cache, [mixed_target_gradient(p, t) * scale for p, t in pairs])
    return total * scale, grads


def backward_and_step(
    model, batch, optimizer: Adadelta, loss_scale: float = 1.0
) -> float:
    """One optimizer step on the batch-mean mixed loss; returns that loss.

    ``loss_scale`` multiplies the whole batch objective, for terms that
    enter the total loss with their own weight (imitation-only batches).
    """
    if not batch:
        raise ValueError("empty batch")
    if not 0.0 <= loss_scale or not np.isfinite(loss_scale):
        raise ValueError("loss_scale must be finite and nonnegative")
    loss, grads = _batch_gradients(model, batch)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(name)
    if loss_scale != 1.0:
        loss = loss * loss_scale
        grads = {name: g * loss_scale for name, g in grads.items()}
    optimizer.step(model.params, grads)
    return loss


def finite_difference_check(model, batch, epsilon: float = 1e-4) -> dict[str, float]:
    """Per-block relative error between analytic and central-difference
    gradients of the batch-mean mixed loss.  Exhaustive over coordinates,
    so use a tiny model."""

    def batch_loss():
        probs = model.forward([ids for ids, _ in batch])
        return sum(mixed_loss(p, tgt) for p, (_, tgt) in zip(probs, batch)) / len(batch)

    _, analytic = _batch_gradients(model, batch)
    report = {}
    for name, arr in model.params.items():
        fd = np.zeros_like(arr)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = batch_loss()
            flat[i] = orig - epsilon
            down = batch_loss()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * epsilon)
        ga = analytic[name]
        denom = np.linalg.norm(ga) + np.linalg.norm(fd) + 1e-12
        report[name] = float(np.linalg.norm(ga - fd) / denom)
    return report


def num_params(model) -> int:
    return int(sum(v.size for v in model.params.values()))


# --- checkpoints -------------------------------------------------------------

_MODEL_KINDS = {"text_classifier": TextClassifier, "sequence_tagger": SequenceTagger}


def save_checkpoint(path, model, vocab: Vocabulary, extra: Optional[dict] = None) -> None:
    """Versioned npz container: metadata JSON plus one array per block.
    `extra` is an optional JSON-serializable dict for caller metadata such
    as the task name or tag categories."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "config": model.config_dict(),
        "vocab": vocab.to_list(),
        "extra": dict(extra) if extra else {},
    }
    arrays = {f"param_{k}": v for k, v in model.params.items()}
    # Write through a handle: np.savez would append ".npz" to a bare path.
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (model, vocabulary, extra)."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        kind = meta["kind"]
        if kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        model = _MODEL_KINDS[kind](**meta["config"])
        for name in model.params:
            model.params[name] = np.array(data[f"param_{name}"])
    vocab = Vocabulary(tuple(meta["vocab"]))
    return model, vocab, meta.get("extra", {})

"""Small numpy predictors trainable against blended hard/soft targets.

Two model families, both with hand-written backward passes so gradient
correctness can be established by finite differences rather than trust:

* TextClassifier: embeddings, multi-width convolution with tanh feature
  maps, max-over-time pooling, softmax output.
* SequenceTagger: embeddings, a tanh window MLP around each position,
  per-position softmax outputs (positions conditionally independent).

Both models are batch-native: ``forward`` takes a ``TokenBatch`` (one
flat id array and the sentence lengths, as ``Vocabulary.encode`` returns
it) and returns one (rows, K) array of output distributions: a row per
sentence for the classifier, (B, K), and a row per position for the
tagger, (P, K), in the order of ``batch.ids``.  Only the batch knows where
a sentence's rows begin and end.  Neither model pads a sentence to the
longest of its batch: each lays the sentences' embedding rows out in one
flat array with zero rows between them, gathers each window as one row
and runs its layers on those rows in blocks of ``_ROW_BLOCK``.  The
classifier has max(length, widest) - narrowest + 1 windows per sentence,
for all its conv widths at once, and max-pools width w over all but a
sentence's last w - narrowest; the tagger has one per position.  Either
way a sentence's outputs do not depend on its batch, bit for bit, and an
id 0 keeps its embedding row: masks work by position, not by id.

Training takes one forward and one backward pass per minibatch and fits
each output row to a target row, the blend (1 - pi) * hard + pi * q of
the hard labels and the teacher's q.  The loss is the cross-entropy of
the target rows against the output rows, summed in one expression over
the batch and divided by its number of sentences; its logit gradient is
(output - target) over that number.  Log arguments are floored at 1e-12;
the analytic gradient treats the floor as inactive, which only matters in
saturated regions.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PAD_TOKEN",
    "UNK_TOKEN",
    "Vocabulary",
    "TokenBatch",
    "TextClassifier",
    "SequenceTagger",
    "Adadelta",
    "NonFiniteGradientError",
    "backward_and_step",
    "check_targets",
    "finite_difference_check",
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
    """Token-to-index map: padding at 0, unknown and reserved strings at 1."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        tokens = tuple(self.tokens)
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise ValueError("vocabulary must start with the pad and unk tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be distinct")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(tokens) if i > 1})

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]) -> "Vocabulary":
        """Every corpus token but the reserved ones, by count, then lexically."""
        counts = Counter(tok for sent in corpus for tok in sent)
        kept = sorted(counts.keys() - {PAD_TOKEN, UNK_TOKEN}, key=lambda t: (-counts[t], t))
        return cls((PAD_TOKEN, UNK_TOKEN) + tuple(kept))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, corpus: Sequence[Sequence[str]]) -> "TokenBatch":
        """All sentences' ids in one batch; 1 for a token outside the vocabulary."""
        lengths = np.fromiter(map(len, corpus), dtype=int, count=len(corpus))
        ids = map(self._index.get, itertools.chain.from_iterable(corpus), itertools.repeat(1))
        return TokenBatch(np.fromiter(ids, dtype=int, count=int(lengths.sum())), lengths)

    def to_list(self) -> list[str]:
        return list(self.tokens)


@dataclass(frozen=True, eq=False)
class TokenBatch:
    """Sentences of token ids, concatenated: sentence i is the ``lengths[i]``
    ids of the flat ``ids`` from ``starts[i]`` on.  None is empty."""

    ids: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        ids, lengths = np.asarray(self.ids, dtype=int), np.asarray(self.lengths, dtype=int)
        if ids.ndim != 1 or lengths.ndim != 1:
            raise ValueError("a batch takes a 1-d id array and 1-d lengths")
        if not len(lengths):
            raise ValueError("empty batch")
        if lengths.min() < 1:
            raise ValueError("every sentence of a batch needs a token")
        ends = np.cumsum(lengths)
        if ends[-1] != len(ids):
            raise ValueError(f"sentence lengths add up to {ends[-1]}, not to {len(ids)} ids")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "starts", ends - lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def positions(self, index, skip=0) -> np.ndarray:
        """Where sentences ``index`` lie in ``ids``, without their first ``skip`` tokens."""
        lengths = self.lengths[index] - skip
        ends = np.cumsum(lengths)
        return np.arange(ends[-1]) + np.repeat(self.starts[index] + skip - ends + lengths,
                                               lengths)

    def take(self, index, skip=0) -> "TokenBatch":
        """Sentences ``index``, in that order, without their first ``skip`` tokens."""
        return TokenBatch(self.ids[self.positions(index, skip)], self.lengths[index] - skip)


# --- model base --------------------------------------------------------------


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Every matmul is a stack of products of _ROW_BLOCK rows: the classifier's
# window and sentence rows, the tagger's position rows.  A single (R, d)
# product is large enough for BLAS to split it over threads, which costs
# more than it saves at these sizes, stalls when the other cores are busy
# and grows the process by the threads' buffers.  A fixed block also gives
# a row the same bits whatever shares its batch.
_ROW_BLOCK = 32


def _weight_grad(m: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Sum over blocks and rows of outer(m, dz), for (N, n, d) m and
    (N, n, k) dz."""
    return (m.transpose(0, 2, 1) @ dz).sum(axis=0)


def _embedding_grad(ids: np.ndarray, rows: np.ndarray, vocab_size: int) -> np.ndarray:
    """(V, E) sums of the (P, E) ``rows`` by id, in ``np.add.at``'s order."""
    e = rows.shape[1]
    flat = (ids[:, None] * e + np.arange(e)).ravel()
    return np.bincount(flat, rows.ravel(), vocab_size * e).reshape(vocab_size, e)


def _check_sizes(vocab_size: int, **sizes: int) -> None:
    if vocab_size < 2:
        raise ValueError(f"vocab_size must be at least 2, for the pad and unk tokens, "
                         f"got {vocab_size}")
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")


def _check_widths(widths, name: str) -> None:
    if not widths or min(widths) < 1:
        raise ValueError(f"{name} must be nonempty widths >= 1, got {tuple(widths)}")
    repeated = sorted(w for w, n in Counter(widths).items() if n > 1)
    if repeated:
        raise ValueError(f"{name} must be distinct widths; {repeated} repeat")


class _Model:
    """A batch-native model: ``forward`` takes a ``TokenBatch`` and returns
    its (rows, K) output distributions, in the order of ``batch.ids``."""

    kind: str = ""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, batch: TokenBatch) -> np.ndarray:
        return self._forward_cache(batch)[0]

    def _forward_cache(self, batch: TokenBatch):
        """((rows, K) outputs, cache for ``backward``)."""
        raise NotImplementedError

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        """Parameter gradients given the (rows, K) logit gradient, one row
        per output row."""
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
        _check_widths(window_sizes, "window sizes")
        self.vocab_size = int(vocab_size)
        self.n_classes = int(n_classes)
        self.emb_dim = int(emb_dim)
        self.window_sizes = tuple(int(w) for w in window_sizes)
        self.n_filters = int(n_filters)
        _check_sizes(self.vocab_size, emb_dim=self.emb_dim, n_filters=self.n_filters)
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

    def _forward_cache(self, batch):
        ws, e, f, b = self.window_sizes, self.emb_dim, self.n_filters, len(batch)
        widest, narrowest, c = max(ws), min(ws), len(ws) * f
        # A sentence has max(length, widest) - narrowest + 1 windows.  Its
        # rows in one flat array are its embedding rows, then zero rows to
        # the end of its last window; window i starts at row at[i].
        n_win = np.maximum(batch.lengths, widest) - narrowest + 1
        ends = np.cumsum(n_win)
        at = np.arange(ends[-1]) + (widest - 1) * np.repeat(np.arange(b), n_win)
        tok = np.arange(len(batch.ids)) + np.repeat(at[ends - n_win] - batch.starts, batch.lengths)
        x = np.zeros((at[-1] + widest, e))
        x[tok] = self.params["emb"][batch.ids]
        # The tail of the last row block reads the window at row 0 and is dropped.
        rows = np.concatenate([at, np.zeros(-len(at) % _ROW_BLOCK, dtype=int)])
        m = x.take(rows[:, None] + np.arange(widest), axis=0).reshape(-1, _ROW_BLOCK, widest * e)
        # One conv of the widest window for all widths, width w's weights on
        # top of zeros.
        w_all = np.zeros((widest * e, c))
        for j, w in enumerate(ws):
            w_all[: w * e, j * f : (j + 1) * f] = self.params[f"conv{w}_w"]
        a = np.tanh(m @ w_all + np.concatenate([self.params[f"conv{w}_b"] for w in ws]))
        # Width w pools over all but its sentence's last w - narrowest windows.
        pooled = a.reshape(-1, c)[: len(at)]
        for j, w in enumerate(ws):
            for k in range(1, w - narrowest + 1):
                pooled[ends - k, j * f : (j + 1) * f] = -np.inf
        feat = np.concatenate([np.maximum.reduceat(pooled, ends - n_win, axis=0),
                               np.zeros((-b % _ROW_BLOCK, c))]).reshape(-1, _ROW_BLOCK, c)
        probs = _softmax_rows(feat @ self.params["out_w"] + self.params["out_b"])
        return probs.reshape(-1, self.n_classes)[:b], (batch.ids, tok, at, n_win, m, pooled,
                                                       feat, w_all)

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        ids, tok, at, n_win, m, pooled, feat, w_all = cache
        ws, e, f, b = self.window_sizes, self.emb_dim, self.n_filters, len(n_win)
        widest, c = max(ws), len(ws) * f
        d = np.zeros(feat.shape[:2] + (self.n_classes,))
        d.reshape(-1, self.n_classes)[:b] = dlogits
        g = {"out_w": _weight_grad(feat, d), "out_b": d.sum(axis=(0, 1))}
        feat = feat.reshape(-1, c)[:b]
        dfeat = (d @ np.ascontiguousarray(self.params["out_w"].T)).reshape(-1, c)[:b]
        # Each (sentence, filter)'s first window at its maximum gets dz.  A
        # NaN maximum equals no window and falls to its sentence's last one.
        ends = np.cumsum(n_win)
        hit = np.where(pooled == np.repeat(feat, n_win, axis=0),
                       np.arange(len(at))[:, None], np.repeat(ends - 1, n_win)[:, None])
        dzw = dfeat * (1.0 - feat * feat)
        dz = np.zeros((len(m) * _ROW_BLOCK, c))
        dz[np.minimum.reduceat(hit, ends - n_win, axis=0), np.arange(c)] = dzw
        dz = dz.reshape(m.shape[:2] + (c,))
        dw, db = _weight_grad(m, dz), dzw.sum(axis=0)
        for j, w in enumerate(ws):
            g[f"conv{w}_w"] = dw[: w * e, j * f : (j + 1) * f]
            g[f"conv{w}_b"] = db[j * f : (j + 1) * f]
        # Window i's slice j back into row at[i] + j of the forward's flat array.
        dm = np.zeros((at[-1] + widest, widest, e))
        dm[at] = (dz @ np.ascontiguousarray(w_all.T)).reshape(-1, widest, e)[: len(at)]
        dx = dm[:, 0].copy()
        for j in range(1, widest):
            dx[j:] += dm[:-j, j]
        g["emb"] = _embedding_grad(ids, dx[tok], self.vocab_size)
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
        _check_sizes(self.vocab_size, emb_dim=self.emb_dim, hidden=self.hidden)
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

    def _forward_cache(self, batch):
        # Sentence rows in one flat array, r zero rows before each sentence
        # and after the last; position i's window starts at row at[i].
        r, e, p = self.radius, self.emb_dim, len(batch.ids)
        at = np.arange(p) + r * np.repeat(np.arange(len(batch)), batch.lengths)
        x = np.zeros((p + r * (len(batch) + 1), e))
        x[at + r] = self.params["emb"][batch.ids]
        # The tail of the last row block reads the window at row 0 and is dropped.
        rows = np.concatenate([at, np.zeros(-p % _ROW_BLOCK, dtype=at.dtype)])
        m = x[rows[:, None] + np.arange(2 * r + 1)].reshape(-1, _ROW_BLOCK, (2 * r + 1) * e)
        del x  # freed before the products, where an evaluation forward peaks
        h = np.tanh(m @ self.params["hidden_w"] + self.params["hidden_b"])
        probs = _softmax_rows(h @ self.params["out_w"] + self.params["out_b"])
        return probs.reshape(-1, self.n_tags)[:p], (batch.ids, at, m, h)

    def backward(self, cache, dlogits) -> dict[str, np.ndarray]:
        ids, at, m, h = cache
        p, win = len(ids), 2 * self.radius + 1
        d = np.zeros(h.shape[:2] + (self.n_tags,))
        d.reshape(-1, self.n_tags)[:p] = dlogits
        g = {"out_w": _weight_grad(h, d), "out_b": d.sum(axis=(0, 1))}
        dz = (d @ np.ascontiguousarray(self.params["out_w"].T)) * (1.0 - h * h)
        g["hidden_w"] = _weight_grad(m, dz)
        g["hidden_b"] = dz.sum(axis=(0, 1))
        dm = dz @ np.ascontiguousarray(self.params["hidden_w"].T)
        dm = dm.reshape(-1, win, self.emb_dim)[:p]
        # The flat array of the forward, which ends with the last window.
        dx = np.zeros((at[-1] + win, self.emb_dim))
        for j in range(win):
            dx[at + j] += dm[:, j]
        g["emb"] = _embedding_grad(ids, dx[at + self.radius], self.vocab_size)
        return {name: g[name] for name in self.params}


# --- optimization ------------------------------------------------------------


class NonFiniteGradientError(RuntimeError):
    """A gradient block became NaN or infinite."""

    def __init__(self, block: str):
        super().__init__(f"non-finite gradient in parameter block {block!r}")
        self.block = block


class Adadelta:
    """Adaptive per-parameter steps; no global learning rate.  One flat state
    over the first step's blocks, whose names and shapes every step repeats."""

    _layout: Optional[list] = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        layout = [(name, g.shape) for name, g in grads.items()]
        g = np.concatenate([g.ravel() for g in grads.values()])
        if self._layout is None:
            self._layout, self._eg2, self._edx2 = layout, np.zeros_like(g), np.zeros_like(g)
        elif layout != self._layout:
            raise ValueError(f"blocks {layout} differ from the first step's {self._layout}")
        eg2, edx2 = self._eg2, self._edx2
        eg2 *= _RHO
        eg2 += (1.0 - _RHO) * g * g
        dx = -np.sqrt(edx2 + _EPS) / np.sqrt(eg2 + _EPS) * g
        edx2 *= _RHO
        edx2 += (1.0 - _RHO) * dx * dx
        for name, block in grads.items():
            params[name] += dx[: block.size].reshape(block.shape)
            dx = dx[block.size :]


def check_targets(targets, shape=None) -> np.ndarray:
    """``targets`` as a float (rows, K) array, checked in one pass to hold a
    distribution in every row and, when given, to have ``shape``."""
    targets = np.asarray(targets, dtype=float)
    if shape is not None and targets.shape != shape:
        raise ValueError(f"target shape {targets.shape} does not match the outputs' {shape}")
    # NaN fails the comparison too.
    if not (targets >= 0).all():
        raise ValueError("target entries must be nonnegative")
    if np.max(np.abs(targets.sum(axis=1) - 1.0)) > 1e-6:
        raise ValueError("target rows must sum to 1")
    return targets


def _loss_and_dlogits(probs: np.ndarray, targets: np.ndarray, n: int):
    """Cross-entropy of the target rows against the output rows and its
    logit gradient, both divided by the batch's ``n`` sentences."""
    scale = 1.0 / n
    loss = -np.sum(targets * np.log(np.maximum(probs, LOG_FLOOR))) * scale
    return float(loss), (probs - targets) * scale


def backward_and_step(
    model, batch: TokenBatch, outputs, cache, targets, optimizer: Adadelta,
    loss_scale: float = 1.0,
) -> float:
    """One optimizer step on the loss averaged over the batch's sentences;
    returns that loss.

    ``outputs, cache = model._forward_cache(batch)`` is the batch's
    training forward, and ``targets`` the (rows, K) array of target rows,
    one per output row.  ``loss_scale`` multiplies the whole batch objective, for terms that
    enter the total loss with their own weight (imitation-only batches).
    """
    if not 0.0 <= loss_scale or not np.isfinite(loss_scale):
        raise ValueError("loss_scale must be finite and nonnegative")
    loss, dlogits = _loss_and_dlogits(outputs, check_targets(targets, outputs.shape), len(batch))
    grads = model.backward(cache, dlogits)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(name)
    if loss_scale != 1.0:
        loss = loss * loss_scale
        grads = {name: g * loss_scale for name, g in grads.items()}
    optimizer.step(model.params, grads)
    return loss


def finite_difference_check(model, batch: TokenBatch, targets,
                            epsilon: float = 1e-4) -> dict[str, float]:
    """Per-block relative error between analytic and central-difference
    gradients of the batch-mean loss against the (rows, K) ``targets``.
    Exhaustive over coordinates, so use a tiny model."""
    n = len(batch)

    def batch_loss():
        return _loss_and_dlogits(model.forward(batch), targets, n)[0]

    probs, cache = model._forward_cache(batch)
    targets = check_targets(targets, probs.shape)
    analytic = model.backward(cache, _loss_and_dlogits(probs, targets, n)[1])
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
    """Inverse of save_checkpoint; returns (model, vocabulary, extra).  A
    checkpoint without metadata or a block, of another version or model
    kind, whose config builds no model, with a block of another shape than
    that model's, or with more tokens than it embeds is rejected with a
    ValueError naming what is wrong."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"])) if "meta" in data.files else None
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint {path} holds no metadata dict")
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        kind = meta.get("kind")
        if kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        try:
            model = _MODEL_KINDS[kind](**meta.get("config", {}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint config builds no {kind}: {exc}") from exc
        for name, block in model.params.items():
            key = f"param_{name}"
            if key not in data.files:
                raise ValueError(f"checkpoint has no block {key!r}")
            model.params[name] = value = np.array(data[key])
            if value.shape != block.shape:
                raise ValueError(f"checkpoint block {key!r} has shape {value.shape}, "
                                 f"but its config's {kind} needs {block.shape}")
    vocab = Vocabulary(tuple(meta.get("vocab", ())))
    if len(vocab) > model.vocab_size:
        raise ValueError(f"checkpoint vocabulary has {len(vocab)} tokens, but its "
                         f"config's {kind} embeds {model.vocab_size}")
    return model, vocab, meta.get("extra", {})

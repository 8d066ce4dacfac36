"""Independent oracles and random cases shared by the test suite.

The oracles deliberately avoid the library's own computation paths: the
gradient checker uses central finite differences on plain arrays, and the
metric oracle is a double loop.
"""

from __future__ import annotations

import math

import numpy as np

from rubric import data
from rubric.data import SCORE_MAX, SCORE_MIN, EssayRecord, SynthSpec, nearest_half
from rubric.encoder import MASK_NEG
from rubric.tensor import Tensor, attention, dropout, embedding, layer_norm

FD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def finite_difference_gradients(func, arrays, step: float = FD_STEP):
    """Central-difference gradients of scalar ``func(arrays)`` w.r.t. each array."""
    grads = []
    for which, base in enumerate(arrays):
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        for i in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[which].reshape(-1)[i] += step
            f_plus = func(bumped)
            bumped[which].reshape(-1)[i] -= 2 * step
            f_minus = func(bumped)
            flat[i] = (f_plus - f_minus) / (2 * step)
        grads.append(grad)
    return grads


def grad_close(autodiff, fd, rtol: float = GRAD_RTOL, atol: float = GRAD_ATOL) -> bool:
    return bool(
        np.all(np.abs(autodiff - fd) <= rtol * np.maximum(np.abs(autodiff), np.abs(fd)) + atol)
    )


def check_gradients(build, arrays, rtol: float = GRAD_RTOL, step: float = FD_STEP):
    """Compare autodiff gradients of ``build`` against finite differences.

    ``build`` maps a list of Tensors to a scalar Tensor; ``arrays`` are the
    leaf values. Raises AssertionError with the offending input index.
    """

    def scalar(values):
        return build([Tensor(v) for v in values]).item()

    fd = finite_difference_gradients(scalar, [np.asarray(a, dtype=np.float64) for a in arrays],
                                     step=step)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    out.backward()
    for i, (leaf, expected) in enumerate(zip(leaves, fd)):
        got = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert grad_close(got, expected, rtol=rtol), (
            f"gradient mismatch on input {i}:\nautodiff={got}\nfinite-diff={expected}"
        )


def brute_force_mcrmse(truth, pred) -> float:
    """Double-loop reference for the columnwise RMSE mean."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    n, n_targets = truth.shape
    total = 0.0
    for j in range(n_targets):
        acc = 0.0
        for i in range(n):
            acc += (truth[i, j] - pred[i, j]) ** 2
        total += math.sqrt(acc / n)
    return total / n_targets


def max_fold_mean_deviation(records, plan) -> float:
    """Largest |fold mean - global mean| over all (fold, target) pairs."""
    scores = np.array([r.scores for r in records], dtype=np.float64)
    global_mean = scores.mean(axis=0)
    worst = 0.0
    for fold in range(plan.k):
        rows = [i for i, r in enumerate(records) if plan.assignment[r.text_id] == fold]
        fold_mean = scores[rows].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(fold_mean - global_mean))))
    return worst


def attention_case(rng):
    """Random inputs for ``rubric.tensor.attention``: four (T, D) arrays (q,
    k, v and output weights), a key bias that masks some keys but always
    keeps one, and the head count. n_heads is 1, 2 or 4 and T runs 1 to 9."""
    n_heads = int(rng.choice([1, 2, 4]))
    seq_len = int(rng.integers(1, 10))
    width = n_heads * int(rng.integers(1, 4))
    keep = rng.random(seq_len) < 0.7
    keep[rng.integers(seq_len)] = True
    arrays = [rng.normal(size=(seq_len, width)) for _ in range(4)]
    return arrays, np.where(keep, 0.0, MASK_NEG), n_heads


def reference_encode(state, token_ids, attention_mask, train=False, rng=None, capture=None):
    """Frozen copy of the encoder before its sublayers became single ops.

    Each block is composed from primitive Tensor ops (layer norm, matmuls,
    bias adds, ``attention``, GELU, ``dropout`` and residual adds), one
    graph node each, and draws its dropout masks in the same order;
    ``rubric.encoder.encode`` must give the same outputs bit for bit. Input
    checks are left to ``encode``.
    """
    spec = state.spec
    ids = np.asarray(token_ids, dtype=np.int64)
    mask = np.asarray(attention_mask, dtype=bool)
    seq_len = len(ids)
    p = spec.dropout_p if train else 0.0
    key_bias = np.where(mask, 0.0, MASK_NEG)
    if capture is not None:
        capture.setdefault("attention", [])

    x = embedding(state.tok_emb, ids) + embedding(state.pos_emb, np.arange(seq_len))
    x = dropout(x, p, rng)
    for layer in state.layers:
        h = layer_norm(x, layer.ln1_g, layer.ln1_b)
        ctx, probs = attention(h @ layer.wq + layer.bq, h @ layer.wk, h @ layer.wv + layer.bv,
                               key_bias, spec.n_heads)
        if capture is not None:
            capture["attention"].append(probs)
        x = x + dropout(ctx @ layer.wo + layer.bo, p, rng)

        h2 = layer_norm(x, layer.ln2_g, layer.ln2_b)
        ff = (h2 @ layer.w1 + layer.b1).gelu() @ layer.w2 + layer.b2
        x = x + dropout(ff, p, rng)
    return layer_norm(x, state.lnf_g, state.lnf_b)


def reference_stratified_kfold(records, k: int = 5, seed: int = 0):
    """Frozen copy of the splitter before incremental refinement.

    It rescans every record per stratification round, rebuilds every fold
    pair's swap matrix on every refinement pass and tallies the audit with
    a dict per value; ``rubric.crossval.stratified_kfold`` must return the
    same plan for every input.
    """
    from rubric.crossval import _KFOLD_TAG, FoldPlan, _check_split_inputs
    from rubric.data import TARGETS

    _check_split_inputs(records, k, seed)
    n = len(records)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _KFOLD_TAG)))
    rec_indicators = [
        tuple((j, int(round(2 * s))) for j, s in enumerate(r.scores)) for r in records
    ]
    capacity = [n // k + (1 if f < n % k else 0) for f in range(k)]
    remaining: dict[tuple, int] = {}
    for inds in rec_indicators:
        for ind in inds:
            remaining[ind] = remaining.get(ind, 0) + 1
    desired = [
        {ind: total * capacity[f] / n for ind, total in remaining.items()} for f in range(k)
    ]
    order = rng.permutation(n)
    unassigned = set(range(n))
    assignment: dict[str, int] = {}
    while unassigned:
        ind_star = min(
            (ind for ind, cnt in remaining.items() if cnt > 0),
            key=lambda ind: (remaining[ind], ind),
        )
        members = [i for i in order if i in unassigned and ind_star in rec_indicators[i]]
        for i in members:
            candidates = [f for f in range(k) if capacity[f] > 0]
            best_demand = max(desired[f][ind_star] for f in candidates)
            candidates = [f for f in candidates if desired[f][ind_star] == best_demand]
            if len(candidates) > 1:
                most_room = max(capacity[f] for f in candidates)
                candidates = [f for f in candidates if capacity[f] == most_room]
            fold = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 \
                else candidates[0]
            assignment[records[i].text_id] = fold
            capacity[fold] -= 1
            unassigned.remove(i)
            for ind in rec_indicators[i]:
                desired[fold][ind] -= 1
                remaining[ind] -= 1

    # best-improvement swaps, every fold pair rebuilt on every pass
    scores = np.array([r.scores for r in records], dtype=np.float64)
    fold_of = np.array([assignment[r.text_id] for r in records])
    idx_by_fold = [np.flatnonzero(fold_of == f) for f in range(k)]
    sums = np.stack([scores[idx].sum(axis=0) for idx in idx_by_fold])
    sizes = np.array([len(idx) for idx in idx_by_fold], dtype=np.float64)
    global_mean = scores.mean(axis=0)
    for _ in range(4 * n):
        deviation = sums / sizes[:, None] - global_mean
        best_gain = -1e-10
        best_swap = None
        for a in range(k):
            for b in range(a + 1, k):
                sa = scores[idx_by_fold[a]]
                sb = scores[idx_by_fold[b]]
                direction = deviation[a] / sizes[a] - deviation[b] / sizes[b]
                curvature = 1.0 / sizes[a] ** 2 + 1.0 / sizes[b] ** 2
                dot = sb @ direction - (sa @ direction)[:, None]
                dist2 = (
                    (sa * sa).sum(axis=1)[:, None]
                    + (sb * sb).sum(axis=1)[None, :]
                    - 2.0 * (sa @ sb.T)
                )
                delta = 2.0 * dot + dist2 * curvature
                candidate = float(delta.min())
                if candidate < best_gain:
                    best_gain = candidate
                    p, q = np.unravel_index(int(np.argmin(delta)), delta.shape)
                    best_swap = (a, b, int(p), int(q))
        if best_swap is None:
            break
        a, b, p, q = best_swap
        i, j = int(idx_by_fold[a][p]), int(idx_by_fold[b][q])
        idx_by_fold[a][p], idx_by_fold[b][q] = j, i
        move = scores[j] - scores[i]
        sums[a] += move
        sums[b] -= move
        assignment[records[i].text_id] = b
        assignment[records[j].text_id] = a

    by_fold = [[] for _ in range(k)]
    for r in records:
        by_fold[assignment[r.text_id]].append(r)
    means, counts = [], []
    for fold in by_fold:
        fold_scores = np.array([r.scores for r in fold], dtype=np.float64)
        means.append([float(v) for v in fold_scores.mean(axis=0)])
        fold_counts = {}
        for j, name in enumerate(TARGETS):
            col: dict[str, int] = {}
            for v in fold_scores[:, j]:
                key = repr(float(v))
                col[key] = col.get(key, 0) + 1
            fold_counts[name] = col
        counts.append(fold_counts)
    return FoldPlan(k, assignment, [len(fold) for fold in by_fold], means, counts)


def reference_best_swap(scores_a, scores_b, left_a, right_b, direction, curvature):
    """Frozen copy of the blocked pair scan before the screened swap search.

    Every block of 128 rows of fold a gets its full squared-distance product,
    scaled in place, and the change matrix gain_a + gain_b + dist2 * curvature
    with its first argmin; a strict < across blocks keeps ties on the first
    flat index. ``rubric.crossval._best_swap`` must return the same
    (change, p, q) bit for bit.
    """
    block, cols = 128, len(scores_b)
    buf_dist = np.empty(min(block, len(scores_a)) * cols)
    buf_delta = np.empty_like(buf_dist)
    gain_a = -2.0 * (scores_a @ direction)
    gain_b = 2.0 * (scores_b @ direction)
    found = (np.inf, 0, 0)
    for start in range(0, len(scores_a), block):
        rows = min(block, len(scores_a) - start)
        dist2 = buf_dist[: rows * cols].reshape(rows, cols)
        delta = buf_delta[: rows * cols].reshape(rows, cols)
        np.matmul(left_a[start : start + rows], right_b, out=dist2)
        dist2 *= curvature
        np.copyto(delta, gain_a[start : start + rows, None])
        delta += gain_b
        delta += dist2
        flat = int(np.argmin(delta))
        if delta.flat[flat] < found[0]:
            p, q = divmod(flat, cols)
            found = (float(delta.flat[flat]), start + p, q)
    return found


def reference_adamw_step(params, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """Frozen copy of ``AdamW.step`` before it wrote into scratch buffers.

    ``params`` maps names to Tensors, ``m`` and ``v`` to their moment
    arrays (updated in place), and ``t`` is the step number, from 1.
    ``rubric.optim.AdamW`` must give the same bits.
    """
    b1, b2 = betas
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update


def reference_accumulate(shapes, slot_grads, start=None):
    """Frozen copy of how the trainer summed a pass's gradients before
    shards: ``Tensor.accumulate_grad`` on each sequence's gradients, last
    sequence first.

    ``shapes`` maps names to shapes, ``slot_grads`` is one dict per
    sequence of dense arrays or row-sparse ``(ids, rows)``, and ``start``
    holds the gradients of earlier passes, which are added to. A
    parameter's first contribution is copied (a row-sparse one scattered
    into zeros with ``np.add.at`` by row), the rest added in place.
    """
    total = {name: g.copy() for name, g in (start or {}).items()}
    for grads in reversed(slot_grads):
        for name, grad in grads.items():
            if isinstance(grad, tuple):
                if name not in total:
                    total[name] = np.zeros(shapes[name])
                np.add.at(total[name], *grad)
            elif name not in total:
                total[name] = grad.copy()
            else:
                total[name] += grad
    return total


def reference_unit(stat: str, value: float) -> float:
    """Frozen copy of ``rubric.data._unit`` before it clipped in Python floats."""
    lo, hi = data._STAT_RANGES[stat]
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def reference_raw_scores(stats: dict[str, float]) -> list[float]:
    """The six unrounded trait scores of ``reference_scores_from_statistics``."""
    units = (
        reference_unit("connective_rate", stats["connective_rate"]),
        reference_unit("words_per_sentence", stats["words_per_sentence"]),
        0.65 * reference_unit("rare_word_rate", stats["rare_word_rate"])
        + 0.35 * reference_unit("type_token_ratio", stats["type_token_ratio"]),
        reference_unit("bigram_diversity", stats["bigram_diversity"]),
        1.0 - reference_unit("agreement_error_rate", stats["agreement_error_rate"]),
        reference_unit("punctuation_rate", stats["punctuation_rate"]),
    )
    return [SCORE_MIN + (SCORE_MAX - SCORE_MIN) * u for u in units]


def reference_scores_from_statistics(stats: dict[str, float]) -> tuple[float, ...]:
    """Frozen copy of ``rubric.data.scores_from_statistics`` before it
    rounded in Python floats: numpy ``clip`` and ``nearest_half``."""
    raw = reference_raw_scores(stats)
    return tuple(float(np.clip(nearest_half(r), SCORE_MIN, SCORE_MAX)) for r in raw)


def _reference_synth_essay(rng: np.random.Generator, spec: SynthSpec) -> str:
    """Frozen copy of ``rubric.data._synth_essay`` before it drew table
    entries by index: each word comes from ``Generator.choice``."""
    q = rng.uniform(size=6)  # latent quality knobs, one per trait
    conn_p = 0.05 + 0.90 * q[0]
    complexity = q[1]
    rare_p = 0.60 * q[2]
    filler_p = 0.75 * (1.0 - q[3])
    agr_err_p = 0.65 * (1.0 - q[4])
    period_p = 0.35 + 0.65 * q[5]
    filler = data._FILLERS[rng.integers(len(data._FILLERS))]

    n_sent = int(rng.integers(spec.min_sentences, spec.max_sentences + 1))
    sentences = []
    for _ in range(n_sent):
        toks: list[str] = []
        if rng.random() < conn_p:
            toks += [str(rng.choice(data._CONNECTIVES)), ","]
        singular = rng.random() < 0.7
        subject = str(rng.choice(data._SG_SUBJECTS if singular else data._PL_SUBJECTS))
        base, third = data._VERBS[rng.integers(len(data._VERBS))]
        if singular:
            verb = base if rng.random() < agr_err_p else third
        else:
            verb = base
        toks += [subject, verb]
        n_phrases = 1 + int(rng.random() < 0.3 + 0.65 * complexity)
        for _ in range(n_phrases):
            toks.append(str(rng.choice(data._PREPOSITIONS)))
            toks.append("the")
            n_adj = int(rng.integers(0, 2 + round(2 * complexity)))
            for _ in range(n_adj):
                toks.append(str(rng.choice(data._ADJECTIVES)))
            pool = data._RARE_NOUNS if rng.random() < rare_p else data._COMMON_NOUNS
            toks.append(str(rng.choice(pool)))
        if rng.random() < filler_p:
            toks += list(filler)
        if rng.random() < period_p:
            toks.append(".")
        sentences.append(data._render(toks))

    if n_sent >= spec.paragraph_break_at:
        split = n_sent // 2
        return " ".join(sentences[:split]) + "\n\n" + " ".join(sentences[split:])
    return " ".join(sentences)


def reference_synth_corpus(n: int, seed: int, spec: SynthSpec = SynthSpec()) -> list[EssayRecord]:
    """Frozen copy of ``rubric.data.synth_corpus`` before its index draws
    and Python-float score mapping; ``synth_corpus`` must give the same
    records. Argument checks are left to ``synth_corpus``. Text
    statistics and sentence rendering are the library's."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E5)))
    records = []
    for i in range(n):
        text = _reference_synth_essay(rng, spec)
        scores = reference_scores_from_statistics(data.text_statistics(text))
        records.append(EssayRecord(f"synth-{i:05d}", text, scores))
    return records

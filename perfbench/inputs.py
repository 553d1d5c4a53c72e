"""Workload inputs, all generated from the run's seed, and their properties.

The program receives only these generated inputs: a corpus configuration
for ``reproduce``, and for the serving workloads the windows of a small
dataset build plus a model fitted on it during set-up.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import pipeline
from repro.core.config import CorpusConfig
from repro.temporal.windows import PostWindow

#: Dataset scale of ``reproduce``: the repository's benchmark scale
#: (EXPERIMENTS.md), about 44k crawled posts and 380 annotated users.
REPRODUCE_SCALE = 0.3

#: Dataset scale the serving workloads draw their requests from: about
#: 125 users with 1,400 posts, enough for every window to be fresh.
SERVING_SCALE = 0.1

#: Posts per window: the author's latest post plus the previous four.
WINDOW_POSTS = 5


def corpus_config(seed: int, scale: float) -> CorpusConfig:
    return dataclasses.replace(CorpusConfig(), seed=seed).scaled(scale)


def serving_dataset(seed: int):
    return pipeline.build_dataset(corpus_config(seed, SERVING_SCALE)).dataset


def sliding_windows(dataset) -> list[PostWindow]:
    """One request per post, in post-time order: the window of the
    post's author that ends at that post."""
    history: dict[str, list] = {}
    windows = []
    for post in sorted(dataset.posts, key=lambda p: (p.created_utc, p.post_id)):
        posts = history.setdefault(post.author, [])
        posts.append(post)
        windows.append(
            PostWindow(
                author=post.author,
                posts=tuple(posts[-WINDOW_POSTS:]),
                label=dataset.labels[post.post_id],
            )
        )
    return windows


def padded_slots(lengths, batch_size: int) -> tuple[int, int]:
    """(padded, useful) token slots when ``lengths`` are batched in order
    and each batch is padded to its longest member."""
    padded = useful = 0
    for start in range(0, len(lengths), batch_size):
        chunk = lengths[start : start + batch_size]
        useful += int(chunk.sum())
        padded += int(chunk.max()) * len(chunk) - int(chunk.sum())
    return padded, useful


def window_properties(windows: list[PostWindow], model, batch_size: int) -> dict:
    """Input properties that decide which mechanisms a workload uses.

    Token counts are the flattened model input (posts plus separators,
    clipped at the model's ``max_len``), from the fitted model's own
    tokenizer.
    """
    texts = [post.text for window in windows for post in window.posts]
    encoded = model.pipeline.encode(windows)
    lengths = np.minimum(
        [sum(len(ids) + 1 for ids in posts) for posts in encoded.post_token_ids],
        model.config.max_len,
    )
    padded, useful = padded_slots(lengths, batch_size)
    return {
        "windows": len(windows),
        "distinct_windows": len({tuple(w.texts) for w in windows}),
        "repeated_post_text_share": 1.0 - len(set(texts)) / max(len(texts), 1),
        "mean_tokens_per_window": float(np.mean(lengths)),
        "max_tokens_per_window": int(np.max(lengths)),
        f"pad_waste_ratio_batch{batch_size}": padded / max(useful, 1),
    }

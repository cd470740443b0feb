import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipforge import data, evaluation
from clipforge import model as M
from clipforge.data import Vocabulary, generate_synthetic_corpus, pixel_batch, tokenize_batch
from clipforge.errors import ComparisonError, ConfigError, DimensionError, EvaluationError
from clipforge.evaluation import (
    IMAGE_TO_TEXT,
    METRIC_NAMES,
    TABLE_TO_FLORES,
    TEXT_TO_IMAGE,
    BaselineTable,
    MetricRow,
    RetrievalTask,
    baseline_keys,
    compare_to_baseline,
    evaluate,
    list_baseline_tables,
    load_baseline_table,
    metric_row_from_ranks,
    mrr_at_k,
    rank_items,
    read_report_jsonl,
    recall_at_k,
    write_report_csv,
    write_report_jsonl,
)


def task(queries, relevance, candidates, direction=TEXT_TO_IMAGE):
    return RetrievalTask(
        direction=direction,
        queries=np.asarray(queries, dtype=np.float64),
        relevance=tuple(frozenset(r) for r in relevance),
        candidates=np.asarray(candidates, dtype=np.float64),
    )


def oracle_ranks(queries, relevance, candidates):
    scores = np.asarray(queries) @ np.asarray(candidates).T
    out = []
    for i, relevant in enumerate(relevance):
        order = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        out.append(next(pos + 1 for pos, j in enumerate(order) if j in relevant))
    return np.asarray(out)


def loop_ranks(task):
    """The per-query loop rank_items used to run over a full score matrix,
    kept as the reference for the blocked, vectorized one."""
    scores = task.queries @ task.candidates.T
    ranks = np.empty(scores.shape[0], dtype=np.int64)
    for i, relevant in enumerate(task.relevance):
        row = scores[i]
        relevant = sorted(relevant)
        best = relevant[int(np.argmax(row[relevant]))]  # argmax keeps the first of equal maxima
        top = row[best]
        ranks[i] = 1 + np.count_nonzero(row > top) + np.count_nonzero(row[:best] == top)
    return ranks


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_exact_match_ranks_first():
    candidates = np.eye(5)
    ranks = rank_items(task(candidates[3][None, :], [{3}], candidates))
    assert list(ranks) == [1]


def test_tie_break_is_ascending_index():
    candidates = np.ones((6, 3))
    t = task(np.ones((3, 3)), [{0}, {4}, {2, 5}], candidates)
    assert list(rank_items(t)) == [1, 5, 3]


def test_ranks_match_sort_oracle():
    rng = np.random.default_rng(0)
    queries = rng.normal(size=(50, 16))
    candidates = rng.normal(size=(200, 16))
    relevance = [{int(rng.integers(200))} for _ in range(50)]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


def test_ranks_match_oracle_with_ties_and_multi_relevant():
    rng = np.random.default_rng(1)
    # low-entropy integer embeddings force plenty of exact score ties
    queries = rng.integers(-1, 2, size=(40, 6)).astype(np.float64)
    candidates = rng.integers(-1, 2, size=(500, 6)).astype(np.float64)
    relevance = [
        set(rng.choice(500, size=rng.integers(1, 4), replace=False).tolist())
        for _ in range(40)
    ]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


@pytest.mark.parametrize("queries", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("max_relevant", [1, 4])
def test_rank_items_equals_the_per_query_loop(queries, max_relevant):
    # small integer embeddings tie often; query counts straddle RANK_BLOCK (256)
    rng = np.random.default_rng(queries * 10 + max_relevant)
    candidates = rng.integers(-1, 2, size=(300, 4)).astype(np.float32)
    relevance = [
        set(rng.choice(300, size=rng.integers(1, max_relevant + 1), replace=False).tolist())
        for _ in range(queries)
    ]
    t = task(rng.integers(-1, 2, size=(queries, 4)), relevance, candidates)
    assert np.array_equal(rank_items(t), loop_ranks(t))


def test_rank_items_holds_no_queries_by_candidates_array():
    rng = np.random.default_rng(3)
    n = 2000
    t = RetrievalTask(
        direction=TEXT_TO_IMAGE,
        queries=rng.normal(size=(n, 64)).astype(np.float32),
        relevance=tuple(frozenset({i}) for i in range(n)),
        candidates=rng.normal(size=(n, 64)).astype(np.float32),
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ranks = rank_items(t)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < n * n * 4
    assert np.array_equal(ranks, loop_ranks(t))


def test_task_contract_errors():
    eye = np.eye(3)
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 3, np.empty((0, 3)))
    with pytest.raises(EvaluationError):
        task(eye, [{0}, set(), {1}], eye)
    with pytest.raises(EvaluationError):
        task(eye, [{0}, {1}, {3}], eye)
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 3, np.eye(4))
    with pytest.raises(EvaluationError):
        task(eye, [{0}] * 2, eye)
    with pytest.raises(EvaluationError):
        RetrievalTask("sideways", eye, (frozenset({0}),) * 3, eye)


# ---------------------------------------------------------------------------
# recall and mrr
# ---------------------------------------------------------------------------

def test_recall_counts_hits_within_k():
    assert recall_at_k([1, 3, 11, 2], 10) == 0.75
    assert recall_at_k([1, 1, 1], 1) == 1.0
    assert recall_at_k([1, 1, 1], 7) == 1.0


def test_mrr_truncates_beyond_k():
    assert mrr_at_k([1, 2, 4], 10) == pytest.approx((1 + 0.5 + 0.25) / 3)
    assert mrr_at_k([3], 1) == 0.0


def test_metric_oracles_on_simulated_ranks():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 40, size=1000)
    for k in (1, 5, 10, 25):
        assert recall_at_k(ranks, k) == sum(1 for r in ranks if r <= k) / 1000
        assert mrr_at_k(ranks, k) == pytest.approx(
            sum(1.0 / r for r in ranks if r <= k) / 1000, abs=1e-15
        )


def test_metric_argument_validation():
    with pytest.raises(EvaluationError):
        recall_at_k([1, 2], 0)
    with pytest.raises(EvaluationError):
        mrr_at_k([1, 2], 0)
    with pytest.raises(EvaluationError):
        recall_at_k([], 5)


@settings(max_examples=60, deadline=None)
@given(
    ranks=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40),
    k=st.integers(min_value=1, max_value=30),
)
def test_metric_ordering_properties(ranks, k):
    assert mrr_at_k(ranks, k) <= recall_at_k(ranks, k)
    assert recall_at_k(ranks, k) <= recall_at_k(ranks, k + 1)
    assert mrr_at_k(ranks, k) <= mrr_at_k(ranks, k + 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(2, 500))
def test_rank_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(4, 5)).round(1)  # rounding induces occasional ties
    candidates = rng.normal(size=(n, 5)).round(1)
    relevance = [{int(rng.integers(n))} for _ in range(4)]
    got = rank_items(task(queries, relevance, candidates))
    assert np.array_equal(got, oracle_ranks(queries, relevance, candidates))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@dataclass
class StubRecord:
    id: str
    captions: dict
    pixel_array: np.ndarray = field(default=None)

    def get_pixels(self):
        return self.pixel_array


@dataclass
class StubDataset:
    records: list
    languages: list


def micro_model(vocab_size, max_len, seed=0):
    config = M.ModelConfig(
        image_size=16,
        patch_size=8,
        image_layers=1,
        image_heads=2,
        image_dim=8,
        text_layers=1,
        text_heads=2,
        text_dim=8,
        vocab_size=vocab_size,
        max_text_len=max_len,
        embed_dim=4,
    )
    return M.DualEncoderModel(config, init_seed=seed)


def constant_model(vocab_size, max_len):
    """Every image and every caption maps to the same embedding."""
    model = micro_model(vocab_size, max_len)
    p = model.params
    p["image/patch_embed/w"].data[:] = 0.0
    p["image/patch_embed/b"].data[:] = np.linspace(0.1, 0.9, 8, dtype=np.float32)
    p["text/token_embed"].data[:] = p["text/token_embed"].data[4]
    return model


def pixels(seed):
    return np.random.default_rng(seed).integers(0, 256, size=(16, 16, 3), dtype=np.uint8)


def single_caption_dataset(n):
    words = ["red", "blue", "green", "dark", "pale", "deep", "dim", "hot"]
    records = [
        StubRecord(f"img{i}", {"eng_Latn": f"{words[i]} thing"}, pixels(i))
        for i in range(n)
    ]
    return StubDataset(records, ["eng_Latn"]), Vocabulary.build(words + ["thing"])


def test_constant_embeddings_give_index_ranks():
    dataset, vocab = single_caption_dataset(7)
    model = constant_model(vocab.size, 6)
    report = evaluate(model, dataset, vocab)
    row = report.rows["eng_Latn"]
    # all scores tie, so caption i lands on rank i+1 and R@K = K/N exactly
    assert row.r_at_1 == 100.0 * (1 / 7)
    assert row.r_at_5 == 100.0 * (5 / 7)
    assert row.mrr_at_5 == pytest.approx(100.0 * sum(1 / r for r in range(1, 6)) / 7)
    assert report.average == row
    # image i's one relevant caption is caption i, which ties onto rank i+1 too
    assert evaluate(model, dataset, vocab, direction=IMAGE_TO_TEXT).rows["eng_Latn"] == row


def test_average_row_is_exact_mean():
    ds = generate_synthetic_corpus(10, 3, image_size=16, seed=0)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=1)
    report = evaluate(model, ds, vocab)
    assert len(report.rows) == 3
    for name in METRIC_NAMES:
        values = [getattr(row, name) for row in report.rows.values()]
        assert getattr(report.average, name) == float(np.mean(values))


def test_evaluate_is_deterministic(tmp_path):
    ds = generate_synthetic_corpus(12, 2, image_size=16, seed=3)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=2)
    a = evaluate(model, ds, vocab, metadata={"run": "x"})
    b = evaluate(model, ds, vocab, metadata={"run": "x"})
    assert a == b
    write_report_csv(a, tmp_path / "a.csv")
    write_report_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_batch_size_does_not_change_query_count():
    ds = generate_synthetic_corpus(9, 2, image_size=16, seed=5)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=4)
    whole = evaluate(model, ds, vocab, batch_size=64)
    chunked = evaluate(model, ds, vocab, batch_size=2)
    assert chunked == whole


def test_evaluate_language_selection_and_errors():
    ds = generate_synthetic_corpus(6, 2, image_size=16, seed=6)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8)
    only = evaluate(model, ds, vocab, languages=["eng_Latn"])
    assert list(only.rows) == ["eng_Latn"]
    with pytest.raises(EvaluationError):
        evaluate(model, ds, vocab, languages=["xx_None"])
    with pytest.raises(ConfigError):
        evaluate(model, ds, vocab, direction="both")
    with pytest.raises(EvaluationError):
        # vocabulary shares no token with the captions
        evaluate(model, ds, Vocabulary.from_tokens(["zzz", "qqq"]), languages=["eng_Latn"])


def test_evaluate_refuses_a_vocabulary_that_covers_no_caption_token():
    ds = generate_synthetic_corpus(6, 2, image_size=16, seed=6)
    model = micro_model(Vocabulary.for_dataset(ds).size, 8)  # stores no tokens: checked by size only
    foreign = Vocabulary.from_tokens([f"zz{i}" for i in range(model.config.vocab_size - 4)])
    assert foreign.size == model.config.vocab_size
    with pytest.raises(EvaluationError, match="covers no caption token"):
        evaluate(model, ds, foreign, languages=["eng_Latn"])


def test_evaluate_refuses_a_same_size_vocabulary_with_other_tokens_before_embedding(monkeypatch):
    ds = generate_synthetic_corpus(12, 2, image_size=16, seed=3)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8)
    model.metadata = {"vocabulary": vocab.ordered_tokens()}  # as a trained checkpoint stores them
    assert evaluate(model, ds, vocab).rows
    word = ds.records[0].captions["eng_Latn"].split()[1]  # a color
    for r in ds.records:
        r.captions = {k: " ".join("azure" if w == word else w for w in c.split()) for k, c in r.captions.items()}
    renamed = Vocabulary.for_dataset(ds)
    assert renamed.size == vocab.size and renamed.ordered_tokens() != vocab.ordered_tokens()
    calls = []
    encode_image = M.encode_image
    monkeypatch.setattr(M, "encode_image", lambda *a: calls.append(a) or encode_image(*a))
    with pytest.raises(EvaluationError, match="vocabulary mismatch"):
        evaluate(model, ds, renamed)
    assert calls == []


def test_evaluate_refuses_repeated_languages_before_embedding(counted):
    ds = generate_synthetic_corpus(6, 2, image_size=16, seed=6)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8)
    with pytest.raises(EvaluationError, match=r"more than once: \['eng_Latn'\]"):
        evaluate(model, ds, vocab, languages=["eng_Latn", ds.languages[1], "eng_Latn"])
    assert counted["text_rows"] == []


def test_evaluate_refuses_images_of_another_size():
    dataset, vocab = single_caption_dataset(3)
    small = StubDataset(
        [StubRecord(r.id, r.captions, r.pixel_array[:8, :8]) for r in dataset.records],
        dataset.languages,
    )
    with pytest.raises(DimensionError, match="encode_image: expected 16x16 images, got 8x8"):
        evaluate(micro_model(vocab.size, 6), small, vocab)


def _traced_peak(call):
    """(result, peak bytes) of ``call()`` beyond what is live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("regime", ["full", "text-encoder"])
def test_evaluate_runs_graph_free_for_a_trainable_model(regime):
    # 256 images of 16 patches: a graph-recording image forward holds 4096-row
    # activations, a graph-free one runs in blocks of M.ROW_BLOCK rows
    ds = generate_synthetic_corpus(256, 2, image_size=32, seed=8)
    vocab = Vocabulary.for_dataset(ds)
    model = M.DualEncoderModel(M.ModelConfig.from_presets("b-b", vocab.size, 16), init_seed=8)
    M.apply_freeze(model, M.FreezeRegime(regime))
    flags = {name: p.requires_grad for name, p in model.params.items()}
    frozen_report, frozen_peak = _traced_peak(lambda: evaluate(M.frozen(model), ds, vocab))
    report, peak = _traced_peak(lambda: evaluate(model, ds, vocab))
    assert report == frozen_report
    assert {name: p.requires_grad for name, p in model.params.items()} == flags
    assert all(p.grad is None for p in model.params.values())
    assert peak < 1.1 * frozen_peak + 2**16, (peak, frozen_peak)


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    # the snippet as printed, at tiny size: b-b, one epoch, 60 images
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    for old, new in {
        "n_images=500": "n_images=60",
        "epochs=2": 'epochs=1, preset="b-b", batch_size=16',
    }.items():
        assert snippet.count(old) == 1, old
        snippet = snippet.replace(old, new)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    report, model = namespace["report"], namespace["result"].model
    assert len(report.rows) == 4 and np.isfinite(report.average.r_at_1)
    # evaluate froze nothing of the trained model and left it no gradient
    assert all(p.requires_grad and p.grad is None for p in model.params.values())


def repeating_corpus(n, seed):
    """A synthetic corpus whose 384 caption templates repeat across records,
    so at 120 records every language's caption pool repeats."""
    ds = generate_synthetic_corpus(n, 3, image_size=16, seed=seed)
    return ds, Vocabulary.for_dataset(ds)


def caption_pool(dataset, language):
    return [record.captions[language] for record in dataset.records]


def every_row_rows(model, dataset, vocab, direction, batch_size):
    """Per-language rows of an evaluate that tokenizes and embeds every caption
    row, repeats included, and stacks every image at once, kept as the
    reference for the one that embeds each distinct caption once."""
    records = dataset.records
    pixels = pixel_batch(records)
    image_emb = np.concatenate(
        [M.encode_image(model, pixels[a : a + batch_size]).data for a in range(0, len(records), batch_size)]
    )
    rows = {}
    relevance = tuple(frozenset({i}) for i in range(len(records)))
    for language in dataset.languages:
        texts = caption_pool(dataset, language)
        tokens, lengths = tokenize_batch(texts, vocab, model.config.max_text_len)
        text_emb = np.concatenate(
            [
                M.encode_text(model, tokens[a : a + batch_size], lengths[a : a + batch_size]).data
                for a in range(0, len(texts), batch_size)
            ]
        )
        if direction == TEXT_TO_IMAGE:
            t = RetrievalTask(direction, text_emb, relevance, image_emb)
        else:
            t = RetrievalTask(direction, image_emb, relevance, text_emb)
        rows[language] = metric_row_from_ranks(loop_ranks(t))
    return rows


@pytest.fixture
def counted(monkeypatch):
    """Rows of each encode_text call, and tokenize calls."""
    seen = {"text_rows": [], "tokenize_calls": 0}
    encode_text, tokenize = M.encode_text, data.tokenize

    def counting_encode_text(model, tokens, lengths):
        seen["text_rows"].append(len(tokens))
        return encode_text(model, tokens, lengths)

    def counting_tokenize(text, vocab, max_len):
        seen["tokenize_calls"] += 1
        return tokenize(text, vocab, max_len)

    monkeypatch.setattr(M, "encode_text", counting_encode_text)
    monkeypatch.setattr(data, "tokenize", counting_tokenize)
    return seen


def test_evaluate_embeds_each_distinct_caption_once(counted):
    dataset, vocab = repeating_corpus(120, seed=11)
    model = micro_model(vocab.size, 8, seed=5)
    for language in dataset.languages:
        pool = caption_pool(dataset, language)
        distinct = len(set(pool))
        assert distinct < len(pool)  # the corpus repeats captions
        counted["text_rows"].clear()
        counted["tokenize_calls"] = 0
        evaluate(model, dataset, vocab, languages=[language], batch_size=16)
        assert sum(counted["text_rows"]) == distinct
        assert counted["tokenize_calls"] == distinct


@pytest.mark.parametrize("direction", [TEXT_TO_IMAGE, IMAGE_TO_TEXT])
def test_distinct_caption_reports_equal_an_every_row_encode(direction):
    dataset, vocab = repeating_corpus(120, seed=12)
    model = micro_model(vocab.size, 8, seed=6)
    for language in dataset.languages:  # the corpus repeats captions, so rows are gathered
        assert len(set(caption_pool(dataset, language))) < len(dataset.records)
    report = evaluate(model, dataset, vocab, direction=direction, batch_size=16)
    expected = every_row_rows(model, dataset, vocab, direction, batch_size=16)
    assert report.rows == expected
    assert report.average == evaluation._mean_row(expected)


def test_all_distinct_captions_are_each_encoded_once(counted):
    corpus = generate_synthetic_corpus(60, 2, image_size=16, seed=13)
    first = {}
    for r in corpus.records:  # the cipher is one-to-one, so this dedups every language
        first.setdefault(r.captions["eng_Latn"], r)
    dataset = StubDataset(list(first.values()), corpus.languages)
    vocab = Vocabulary.for_dataset(corpus)
    model = micro_model(vocab.size, 8, seed=7)
    n = len(dataset.records)
    for direction in (TEXT_TO_IMAGE, IMAGE_TO_TEXT):
        counted["text_rows"].clear()
        counted["tokenize_calls"] = 0
        report = evaluate(model, dataset, vocab, direction=direction, batch_size=16)
        assert sum(counted["text_rows"]) == counted["tokenize_calls"] == 2 * n
        assert report.rows == every_row_rows(model, dataset, vocab, direction, 16)


def test_perfectly_separable_embeddings_hit_rank_one():
    eye = np.eye(20)
    t = task(eye, [{i} for i in range(20)], eye)
    row = metric_row_from_ranks(rank_items(t))
    assert row.r_at_1 == 100.0
    assert row.mrr_at_10 == 100.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def small_report():
    ds = generate_synthetic_corpus(8, 2, image_size=16, seed=7)
    vocab = Vocabulary.for_dataset(ds)
    model = micro_model(vocab.size, 8, seed=3)
    return evaluate(model, ds, vocab, metadata={"config_hash": "abc", "seed": "11"})


def test_csv_layout(tmp_path):
    report = small_report()
    write_report_csv(report, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "language," + ",".join(METRIC_NAMES)
    assert len(lines) == 2 + len(report.rows)
    assert lines[-1].startswith("average,")
    for cell in lines[1].split(",")[1:]:
        assert len(cell.split(".")[1]) == 2


def test_jsonl_roundtrip(tmp_path):
    report = small_report()
    write_report_jsonl(report, tmp_path / "r.jsonl")
    back = read_report_jsonl(tmp_path / "r.jsonl")
    assert back == report


def test_jsonl_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n", encoding="utf-8")
    with pytest.raises(EvaluationError):
        read_report_jsonl(bad)
    with pytest.raises(EvaluationError):
        read_report_jsonl(tmp_path / "missing.jsonl")


# ---------------------------------------------------------------------------
# bundled baselines
# ---------------------------------------------------------------------------

def test_bundled_tables_enumerate():
    pairs = list_baseline_tables()
    assert ("crossmodal3600", "nllb-clip-large") in pairs
    assert ("xtd10", "m-clip") in pairs
    assert ("coco_it", "italian-clip") in pairs
    assert ("coco_flickr30k", "altclip") in pairs


def test_large_model_average_recomputes():
    table = load_baseline_table("crossmodal3600", "nllb-clip-large")
    assert len(table.entries) == 36
    recomputed = table.recompute_average()
    assert recomputed["r_at_1"] == pytest.approx(42.96, abs=0.005)
    assert recomputed["r_at_5"] == pytest.approx(69.65, abs=0.005)
    assert recomputed["r_at_10"] == pytest.approx(78.87, abs=0.005)
    assert table.average_discrepancies() == {}


def test_base_model_and_single_metric_averages_recompute():
    base = load_baseline_table("crossmodal3600", "nllb-clip-base")
    recomputed = base.recompute_average()
    assert recomputed["r_at_1"] == pytest.approx(33.99, abs=0.005)
    assert recomputed["r_at_5"] == pytest.approx(61.11, abs=0.005)
    assert recomputed["r_at_10"] == pytest.approx(71.85, abs=0.005)
    for model, value in (("msiglip", 34.87), ("pali", 28.46)):
        table = load_baseline_table("crossmodal3600", model)
        assert set(table.recompute_average()) == {"r_at_1"}
        assert table.recompute_average()["r_at_1"] == pytest.approx(value, abs=0.005)
        assert table.average_discrepancies() == {}


def test_known_rows_parse():
    xtd = load_baseline_table("xtd10", "nllb-clip-base")
    assert xtd.entries["en"] == {"r_at_1": 47.2, "r_at_5": 76.9, "r_at_10": 87.6}
    assert xtd.average == {}
    coco_it = load_baseline_table("coco_it", "nllb-clip-large")
    assert coco_it.entries["coco_it"] == {"mrr_at_1": 45.4, "mrr_at_5": 56.7, "mrr_at_10": 58.1}
    mural = load_baseline_table("xtd10", "mural")
    assert set(mural.entries) == {"zh", "es", "it", "tr", "ru", "ko", "pl"}
    assert all(set(v) == {"r_at_10"} for v in mural.entries.values())


def test_unknown_baseline_errors():
    with pytest.raises(ComparisonError):
        load_baseline_table("nope", "nllb-clip-base")
    with pytest.raises(ComparisonError):
        load_baseline_table("xtd10", "nope")


def baseline_from_report(report, model: str, source: str) -> BaselineTable:
    """A run report as a baseline table, for run-to-run deltas."""
    return BaselineTable(
        model=model,
        source=source,
        entries={language: row.as_dict() for language, row in report.rows.items()},
        average=report.average.as_dict(),
    )


def test_compare_report_to_itself_is_zero():
    report = small_report()
    mirror = baseline_from_report(report, "self", "run")
    cmp = compare_to_baseline(report, mirror)
    for language in report.rows:
        assert all(v == 0.0 for v in cmp.deltas[language].values())
    assert all(v == 0.0 for v in cmp.average_delta.values())
    assert mirror.average_discrepancies() == {}


def test_compare_requires_shared_languages():
    report = small_report()
    table = load_baseline_table("coco_it", "nllb-clip-base")
    with pytest.raises(ComparisonError):
        compare_to_baseline(report, table)


def test_table_codes_match_flores_languages():
    xtd = load_baseline_table("xtd10", "nllb-clip-base")
    xm = load_baseline_table("crossmodal3600", "nllb-clip-base")
    assert baseline_keys(["jpn_Jpan", "eng_Latn", "aab_Ciph", "en"], xtd) == {
        "jpn_Jpan": "jp", "eng_Latn": "en", "en": "en"
    }
    assert baseline_keys(["jpn_Jpan", "quy_Latn"], xm) == {"jpn_Jpan": "ja"}
    assert "quz" in xm.entries and "quz" not in TABLE_TO_FLORES
    cmp = compare_to_baseline(small_report(), xtd)
    assert cmp.languages == ("eng_Latn",)
    assert set(cmp.deltas) == {"eng_Latn"}


def test_compare_flags_inconsistent_average():
    report = small_report()
    language = next(iter(report.rows))
    table = BaselineTable(
        model="x",
        source="y",
        entries={language: {"r_at_1": 10.0}, "other": {"r_at_1": 20.0}},
        average={"r_at_1": 16.0},  # true mean is 15.0
    )
    cmp = compare_to_baseline(report, table)
    assert table.average_discrepancies() == {"r_at_1": pytest.approx(1.0)}
    assert table.recompute_average()["r_at_1"] == 15.0
    assert cmp.deltas[language]["r_at_1"] == pytest.approx(
        report.rows[language].r_at_1 - 10.0
    )
    # stored average wins for the delta even when flagged
    assert cmp.average_delta["r_at_1"] == pytest.approx(report.average.r_at_1 - 16.0)


def test_metric_row_helpers():
    row = MetricRow(1, 2, 3, 4, 5, 6)
    assert list(row.as_dict()) == list(METRIC_NAMES)

"""Dataset machinery: schema, filtering, splitting, epoch sampling,
tokenization, and a procedural multilingual corpus generator.

A dataset is a directory holding a tab-separated manifest plus one raw RGB
file per image.  Every record carries one caption per language in the
dataset's language set; the loader rejects anything else, which keeps all
languages represented exactly equally.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetFormatError
from .model import read_lines, write_lines

MANIFEST_NAME = "manifest.tsv"
SPLIT_NAME = "splits.tsv"
PIXEL_DIR = "pixels"

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

BASE_LANGUAGE = "eng_Latn"
SURROGATE = re.compile("[\ud800-\udfff]")  # text holding one does not encode as UTF-8

SIZES = {"small": 0.30, "medium": 0.45, "large": 0.60}
COLORS = {
    "red": (220, 40, 40),
    "green": (40, 200, 60),
    "blue": (50, 80, 230),
    "yellow": (230, 220, 50),
    "purple": (150, 60, 200),
    "orange": (240, 140, 30),
    "white": (240, 240, 240),
    "cyan": (60, 210, 220),
}
SHAPES = ("circle", "square", "triangle", "cross")
VERTICALS = ("top", "bottom")
HORIZONTALS = ("left", "right")
BASE_WORDS = tuple(SIZES) + tuple(COLORS) + SHAPES + VERTICALS + HORIZONTALS
BACKGROUND_DIV = 4  # background is the fill color dimmed by this factor


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@dataclass
class CaptionedImage:
    id: str
    aesthetic_score: float
    captions: dict
    pixels: np.ndarray | None = None  # uint8 [H, W, 3]; None for a record read from disk,
    pixel_path: Path | None = None  # whose get_pixels reads this file anew on every call

    def get_pixels(self) -> np.ndarray:
        if self.pixels is not None:
            return self.pixels
        if self.pixel_path is None:
            raise DatasetFormatError(f"record {self.id}: no pixel data or path")
        return read_pixel_file(self.pixel_path)


def pixel_batch(records) -> np.ndarray:
    """Stack the records' images as a uint8 [batch, 3, H, W] array; the first
    image whose shape is not the batch's most common one is refused."""
    images = [r.get_pixels() for r in records]
    try:
        return np.stack(images).transpose(0, 3, 1, 2)
    except ValueError:  # checked only when the stack fails: the hot path stays one call
        shapes = [image.shape for image in images]
        common = max(set(shapes), key=shapes.count)
        odd = next(i for i, shape in enumerate(shapes) if shape != common)
        raise DatasetFormatError(
            f"record {records[odd].id}: pixel array of shape {shapes[odd]}, where the"
            f" batch's other records mostly have {common}"
        ) from None


@dataclass
class Dataset:
    records: list
    languages: list
    ciphers: dict | None = None  # language -> {base word -> surface form}

    def __len__(self):
        return len(self.records)


@dataclass
class Vocabulary:
    token_to_id: dict

    @property
    def size(self) -> int:
        return len(self.token_to_id) + len(RESERVED_TOKENS)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def ordered_tokens(self) -> list:
        """Non-reserved tokens in id order, for serialization."""
        return sorted(self.token_to_id, key=self.token_to_id.get)

    @staticmethod
    def build(captions) -> "Vocabulary":
        # a corpus repeats captions (one per image per language): split each distinct one once
        tokens = sorted({word for text in set(captions) for word in text.lower().split()})
        return Vocabulary.from_tokens(tokens)

    @staticmethod
    def from_tokens(tokens) -> "Vocabulary":
        base = len(RESERVED_TOKENS)
        return Vocabulary({tok: base + i for i, tok in enumerate(tokens)})

    @staticmethod
    def for_dataset(dataset: Dataset) -> "Vocabulary":
        return Vocabulary.build(
            caption for record in dataset.records for caption in record.captions.values()
        )


# ---------------------------------------------------------------------------
# filtering, splitting, sampling
# ---------------------------------------------------------------------------

def aesthetic_filter(records, threshold: float = 4.5) -> list:
    """Keep records scoring strictly above the threshold, in input order."""
    return [r for r in records if r.aesthetic_score > threshold]


def split(records, val_fraction: float = 0.15, seed: int = 0):
    """Seeded disjoint train/validation split.

    The validation size is round(val_fraction * N); both sides keep the
    original record order.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"split: val_fraction must be in (0, 1), got {val_fraction}")
    if not records:
        raise DatasetFormatError("split: empty record list")
    n = len(records)
    n_val = int(round(val_fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = set(perm[:n_val].tolist())
    train = [r for i, r in enumerate(records) if i not in val_idx]
    val = [r for i, r in enumerate(records) if i in val_idx]
    return train, val


def choose_language(image_id: str, languages, epoch: int, seed: int) -> str:
    """Deterministic uniform language pick for one image in one epoch.

    Hash-based so the choice depends only on (seed, epoch, image id) and the
    language set, never on record order or subset iteration.
    """
    ordered = sorted(languages)
    digest = hashlib.sha256(f"{seed}:{epoch}:{image_id}".encode("utf-8")).digest()
    return ordered[int.from_bytes(digest[:8], "big") % len(ordered)]


def select_languages(available, requested, error) -> list:
    """The requested languages in their order; ``None`` requests every one of
    ``available``.  An empty, repeated or unknown request is refused with ``error``."""
    languages = list(available if requested is None else requested)
    missing = [lang for lang in languages if lang not in available]
    repeated = sorted({lang for lang in languages if languages.count(lang) > 1})
    if not languages:
        raise error("no language to evaluate")
    if missing:
        raise error(f"languages not in the dataset: {missing}; it has {sorted(available)}")
    if repeated:
        raise error(f"languages listed more than once: {repeated}")
    return languages


def sample_epoch(records, epoch: int, seed: int, languages) -> dict:
    """Pick one caption language per image for an epoch: {image id: language}."""
    languages = list(languages)
    if not languages:
        raise ConfigError("sample_epoch: empty language set")
    return {r.id: choose_language(r.id, languages, epoch, seed) for r in records}


def tokenize(text: str, vocab: Vocabulary, max_len: int):
    """Lowercase whitespace tokenization with BOS/EOS framing and padding.

    Returns (ids array of length max_len, valid length).  Over-long text is
    truncated to max_len with BOS and EOS preserved.
    """
    if max_len < 3:
        raise ConfigError(f"tokenize: max_len must be >= 3, got {max_len}")
    ids = [BOS_ID] + [vocab.id_of(w) for w in text.lower().split()] + [EOS_ID]
    if len(ids) > max_len:
        ids = ids[: max_len - 1] + [EOS_ID]
    length = len(ids)
    ids = ids + [PAD_ID] * (max_len - length)
    return np.asarray(ids, dtype=np.int64), length


def tokenize_batch(texts, vocab: Vocabulary, max_len: int):
    """Tokenize texts into (ids [n, max_len], valid lengths [n])."""
    encoded = [tokenize(text, vocab, max_len) for text in texts]
    return np.stack([ids for ids, _ in encoded]), np.asarray([n for _, n in encoded])


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def cipher_code(index: int) -> str:
    """Language code for cipher language #index (1-based): 'aab_Ciph', ..."""
    letters = []
    value = index
    for _ in range(3):
        letters.append(chr(ord("a") + value % 26))
        value //= 26
    return "".join(reversed(letters)) + "_Ciph"


def _cipher_map(corpus_seed: int, lang_index: int) -> dict:
    """Bijective word substitution for one cipher language.

    Surface forms carry the language's three-letter prefix, so tokens never
    collide across languages or with the base language.
    """
    rng = np.random.default_rng([corpus_seed, 7919, lang_index])
    perm = rng.permutation(len(BASE_WORDS))
    prefix = cipher_code(lang_index)[:3]
    return {BASE_WORDS[i]: prefix + BASE_WORDS[perm[i]] for i in range(len(BASE_WORDS))}


def render_image(shape: str, color: str, size_name: str, cx: int, cy: int, image_size: int) -> np.ndarray:
    """Draw one filled shape over a dark tint of the same color; uint8 [H, W, 3].

    The whole canvas carries the color cue so that global image statistics
    distinguish records even at small shape sizes; the bright region encodes
    shape, size, and quadrant.
    """
    img = np.empty((image_size, image_size, 3), dtype=np.uint8)
    img[:] = tuple(v // BACKGROUND_DIV for v in COLORS[color])
    half = max(1, round(image_size * SIZES[size_name])) / 2.0
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    if shape == "circle":
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= half * half
    elif shape == "square":
        mask = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
    elif shape == "triangle":
        rel = yy - (cy - half)
        mask = (rel >= 0) & (yy <= cy + half) & (np.abs(xx - cx) <= rel / 2.0)
    else:  # cross
        bar = max(1, round(half / 2.0))
        mask = ((np.abs(xx - cx) < bar) & (np.abs(yy - cy) <= half)) | (
            (np.abs(yy - cy) < bar) & (np.abs(xx - cx) <= half)
        )
    img[mask] = COLORS[color]
    return img


def generate_synthetic_corpus(
    n_images: int, n_languages: int, image_size: int = 32, seed: int = 0
) -> Dataset:
    """Procedural captioned-image corpus.

    Each image shows one shape (4 shapes x 8 colors x 3 sizes x 4 position
    quadrants) and carries a base caption like "small red circle top left"
    plus one deterministically ciphered caption per extra language.
    Aesthetic scores are uniform on [3.5, 6.5] so a 4.5 threshold keeps
    roughly two thirds.
    """
    if n_languages < 1:
        raise ConfigError(f"corpus: n_languages must be >= 1, got {n_languages}")
    if image_size < 8:
        raise ConfigError(f"corpus: image_size must be >= 8, got {image_size}")
    languages = [BASE_LANGUAGE] + [cipher_code(i) for i in range(1, n_languages)]
    ciphers = {
        cipher_code(i): _cipher_map(seed, i) for i in range(1, n_languages)
    }
    rng = np.random.default_rng(seed)
    quarter = image_size // 4
    jitter = max(1, image_size // 16)
    records = []
    for i in range(n_images):
        shape = SHAPES[rng.integers(len(SHAPES))]
        color = list(COLORS)[rng.integers(len(COLORS))]
        size_name = list(SIZES)[rng.integers(len(SIZES))]
        vert = VERTICALS[rng.integers(2)]
        horiz = HORIZONTALS[rng.integers(2)]
        cx = quarter + (image_size // 2) * (horiz == "right") + int(rng.integers(-jitter, jitter + 1))
        cy = quarter + (image_size // 2) * (vert == "bottom") + int(rng.integers(-jitter, jitter + 1))
        score = float(rng.uniform(3.5, 6.5))
        base = f"{size_name} {color} {shape} {vert} {horiz}"
        captions = {BASE_LANGUAGE: base}
        for lang in languages[1:]:
            table = ciphers[lang]
            captions[lang] = " ".join(table[w] for w in base.split())
        records.append(
            CaptionedImage(
                id=f"img{i:06d}",
                aesthetic_score=score,
                captions=captions,
                pixels=render_image(shape, color, size_name, cx, cy, image_size),
            )
        )
    return Dataset(records=records, languages=languages, ciphers=ciphers)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def pixel_shape(nbytes: int, where: str) -> tuple:
    """Shape (S, S, 3) of a pixel file of ``nbytes`` bytes: the raw bytes of a uint8 [S, S, 3] array."""
    if nbytes % 3:
        raise DatasetFormatError(f"{where}: size {nbytes} is not a multiple of 3")
    side = math.isqrt(nbytes // 3)
    if side * side * 3 != nbytes:
        raise DatasetFormatError(f"{where}: {nbytes} bytes is not a square RGB image")
    return (side, side, 3)


def read_pixel_file(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetFormatError(f"cannot read pixel file {path}: {exc.strerror}") from exc
    shape = pixel_shape(len(raw), f"pixel file {path}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape).copy()


def manifest_rows(rows, manifest) -> list:
    """(id, score, pixel path, captions) of each record row of a manifest's rows
    of cells, header first; every rule of the manifest format is checked here,
    before ``save_dataset`` writes and after ``load_dataset`` reads."""
    bad = [(row[0], c) for row in rows for c in row
           if "\t" in c or "\n" in c or "\r" in c or not c.isascii() and SURROGATE.search(c)]
    if bad:
        rid, cell = bad[0]
        fault = "a lone surrogate" if SURROGATE.search(cell) else "a tab or a line break"
        raise DatasetFormatError(f"manifest row {rid!r}: field {cell!r} holds {fault}")
    header = rows[0] if rows else []
    if header[:3] != ["id", "aesthetic_score", "pixels"]:
        raise DatasetFormatError(
            f"{manifest}: header must start with id/aesthetic_score/pixels, got {header[:3]}"
        )
    languages = header[3:]
    if not languages or "" in languages or len(set(languages)) != len(languages):
        raise DatasetFormatError(
            f"{manifest}: header needs distinct, non-empty language codes, got {languages}"
        )
    parsed, seen = [], set()
    for lineno, cells in enumerate(rows[1:], start=2):
        if len(cells) != 3 + len(languages):
            raise DatasetFormatError(
                f"{manifest}:{lineno}: record {cells[0]!r} has {len(cells)} fields,"
                f" expected {3 + len(languages)}"
            )
        rid, score_text, rel = cells[0], cells[1], cells[2]
        if rid in seen:
            raise DatasetFormatError(f"{manifest}:{lineno}: duplicate record id {rid!r}")
        seen.add(rid)
        if "/" in rid or "\0" in rid:  # the id names its pixel file
            raise DatasetFormatError(f"{manifest}:{lineno}: record id {rid!r} holds '/' or NUL")
        if len(f"{rid}.rgb".encode("utf-8")) > 255:  # the file name limit of Linux and macOS file systems
            raise DatasetFormatError(f"{manifest}:{lineno}: record {rid!r}: pixel file name over 255 bytes")
        try:
            score = float(score_text)
        except ValueError:
            raise DatasetFormatError(
                f"{manifest}:{lineno}: record {rid!r} has bad aesthetic score {score_text!r}"
            ) from None
        if not math.isfinite(score):
            raise DatasetFormatError(f"{manifest}:{lineno}: record {rid!r} has non-finite aesthetic score")
        empty = [lang for lang, caption in zip(languages, cells[3:]) if not caption]
        if empty:
            raise DatasetFormatError(f"{manifest}:{lineno}: record {rid!r} is missing its {empty[0]} caption")
        if rel != f"{PIXEL_DIR}/{rid}.rgb":  # the one pixel path save_dataset writes
            raise DatasetFormatError(
                f"{manifest}:{lineno}: record {rid!r}: pixels cell {rel!r} is not {PIXEL_DIR}/{rid}.rgb"
            )
        parsed.append((rid, score, rel, dict(zip(languages, cells[3:]))))
    return parsed


def save_dataset(dataset: Dataset, path) -> None:
    """Write manifest + raw pixel files under a directory.  A record whose caption
    languages are not the dataset's, a manifest ``manifest_rows`` refuses or pixels
    that are not a uint8 [S, S, 3] array are refused before anything is written."""
    root = Path(path)
    rows = [["id", "aesthetic_score", "pixels", *dataset.languages]]
    for record in dataset.records:
        if set(record.captions) != set(dataset.languages):
            raise DatasetFormatError(
                f"record {record.id}: caption languages do not match the dataset language set"
            )
        try:
            score = repr(float(record.aesthetic_score))
        except (TypeError, ValueError):  # manifest_rows refuses it, naming the record
            score = str(record.aesthetic_score)
        rows.append([record.id, score, f"{PIXEL_DIR}/{record.id}.rgb",
                     *(record.captions[lang] for lang in dataset.languages)])
    manifest_rows(rows, root / MANIFEST_NAME)
    for record in dataset.records:
        pixels, where = np.asarray(record.get_pixels()), f"record {record.id!r}: pixel array"
        if pixels.dtype != np.uint8 or pixels.shape != pixel_shape(pixels.nbytes, where):
            raise DatasetFormatError(f"{where} of {pixels.dtype} {pixels.shape} is not uint8 [S, S, 3]")
    (root / PIXEL_DIR).mkdir(parents=True, exist_ok=True)
    for record, row in zip(dataset.records, rows[1:]):
        (root / row[2]).write_bytes(record.get_pixels().tobytes())
    write_lines(root / MANIFEST_NAME, ["\t".join(row) for row in rows])


def load_dataset(path) -> Dataset:
    """Parse a dataset directory; each record holds its pixel file's path, read on use."""
    root = Path(path)
    manifest = root / MANIFEST_NAME
    rows = [line.split("\t") for line in read_lines(manifest, DatasetFormatError)]
    records = [
        CaptionedImage(rid, score, captions, pixel_path=root / rel)
        for rid, score, rel, captions in manifest_rows(rows, manifest)
    ]
    return Dataset(records=records, languages=rows[0][3:])


def split_ids(rows, path):
    """Train and validation ids of a split file's (id, label) rows.  Refused: an id
    listed twice or holding a tab or a line break, a label other than train/val."""
    train_ids, val_ids = [], []
    first_line: dict = {}  # record id -> line that listed it
    for lineno, (rid, label) in enumerate(rows, start=1):
        if rid in first_line:
            raise DatasetFormatError(
                f"{path}:{lineno}: record {rid!r} is already listed on line {first_line[rid]}"
            )
        first_line[rid] = lineno
        if "\t" in rid or "\n" in rid or "\r" in rid:  # a read line holds none: checks a write
            raise DatasetFormatError(f"{path}:{lineno}: record {rid!r} holds a tab or a line break")
        if label == "train":
            train_ids.append(rid)
        elif label == "val":
            val_ids.append(rid)
        else:
            raise DatasetFormatError(f"{path}:{lineno}: bad split label {label!r}")
    return train_ids, val_ids


def save_split(dataset_path, train_ids, val_ids) -> None:
    """Write the split file; ids that ``split_ids`` refuses are refused before writing."""
    path = Path(dataset_path) / SPLIT_NAME
    rows = [(rid, "train") for rid in train_ids] + [(rid, "val") for rid in val_ids]
    split_ids(rows, path)
    write_lines(path, [f"{rid}\t{label}" for rid, label in rows])


def load_split(dataset_path):
    path = Path(dataset_path) / SPLIT_NAME
    return split_ids((line.partition("\t")[::2] for line in read_lines(path, DatasetFormatError)), path)


def split_records(dataset: Dataset, dataset_path):
    """Train and validation records of the split file, in its order; a record
    id the manifest lacks is refused."""
    train_ids, val_ids = load_split(dataset_path)
    by_id = {r.id: r for r in dataset.records}
    missing = [i for i in (*train_ids, *val_ids) if i not in by_id]
    if missing:
        raise DatasetFormatError(
            f"split references {len(missing)} unknown record ids (first: {missing[0]})"
        )
    return [by_id[i] for i in train_ids], [by_id[i] for i in val_ids]


def file_sha256(path) -> str:
    """Hex sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_digest(dataset_path) -> str:
    """Stable identity of a dataset: sha256 of its manifest bytes."""
    return file_sha256(Path(dataset_path) / MANIFEST_NAME)

"""The address-major Bloom probe: bit-exact at byte edges, and never stale.

``bloom`` and ``hw-sim`` gather one packed language row (``ceil(L / 8)``
bytes) per hash address, and ``hail`` unpacks its ``uint64`` bucket bitmaps
through the same helper.  Language counts straddling every byte boundary must
give exactly the per-language references: ``ParallelBloomFilter.test_addresses``,
the hardware RAM snapshots, and the SRAM bitmap bits.  The packed table is a
cache, so retraining or re-importing an identifier must replace it.
"""

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier, backends
from repro.api.registry import get_backend
from repro.core.bloom import pack_language_rows, probe_language_rows, unpack_language_rows
from repro.core.profile import LanguageProfile

LANGUAGE_COUNTS = (1, 7, 8, 9, 16, 17, 64, 65)
#: HAIL packs its language bitmaps into 64-bit words
HAIL_LANGUAGE_COUNTS = tuple(count for count in LANGUAGE_COUNTS if count <= 64)
CONFIG = ClassifierConfig(m_bits=2048, k=3, t=150, seed=5)
KEY_SPACE = 1 << CONFIG.key_bits
#: per-document n-gram counts of the probe batch, an empty document included
LENGTHS = np.array([40, 0, 1, 233, 97, 300], dtype=np.int64)


def random_profiles(n_languages: int, seed: int = 0, t: int = 150) -> dict[str, LanguageProfile]:
    rng = np.random.default_rng(seed)
    profiles = {}
    for index in range(n_languages):
        ngrams = rng.choice(KEY_SPACE, size=t, replace=False).astype(np.uint64)
        counts = np.arange(t, 0, -1, dtype=np.int64)
        profiles[f"l{index:02d}"] = LanguageProfile(f"l{index:02d}", ngrams, counts, n=4, t=t)
    return profiles


def probe_batch(profiles: dict[str, LanguageProfile], seed: int = 1) -> np.ndarray:
    """Profile members of every language mixed with random (mostly non-member) keys."""
    rng = np.random.default_rng(seed)
    members = np.concatenate([profile.ngrams for profile in profiles.values()])
    size = int(LENGTHS.sum())
    packed = rng.integers(0, KEY_SPACE, size=size, dtype=np.uint64)
    from_profiles = rng.random(size) < 0.5
    packed[from_profiles] = rng.choice(members, size=int(from_profiles.sum()))
    return packed


def trained(backend_name: str, profiles):
    backend = get_backend(backend_name)(CONFIG)
    backend.fit_profiles(profiles)
    return backend


def reference_hits(backend_name: str, backend, packed: np.ndarray) -> np.ndarray:
    """Per-language membership read language by language, never through packed rows."""
    if backend_name == "bloom":
        addresses = backend.classifier.hashes.hash_all(packed)
        return np.stack(
            [filt.test_addresses(addresses) for filt in backend.classifier.filters.values()]
        )
    if backend_name == "hw-sim":
        addresses = backend.engine.hashes.hash_all(packed)
        rows = []
        for engine in backend.engine.units[0].engines.values():
            hits = np.ones(packed.size, dtype=bool)
            for i, vector in enumerate(engine.vectors):
                hits &= vector.snapshot()[addresses[i]]
            rows.append(hits)
        return np.stack(rows)
    classifier = backend.classifier
    bitmaps = classifier._table[classifier._index_hash.hash_array(packed)]
    return np.stack(
        [
            ((bitmaps >> np.uint64(index)) & np.uint64(1)).astype(bool)
            for index in range(len(classifier.languages))
        ]
    )


def reference_counts(backend_name: str, backend, packed: np.ndarray) -> np.ndarray:
    """Per-document counts from each engine's own single-document path."""
    ends = np.cumsum(LENGTHS)
    documents = [packed[end - length : end] for end, length in zip(ends, LENGTHS)]
    if backend_name == "hw-sim":
        languages = backend.languages
        return np.array(
            [
                [backend.engine.process_document(doc).match_counts[lang] for lang in languages]
                for doc in documents
            ]
        )
    return np.stack([backend.classifier.match_counts(doc) for doc in documents])


CASES = [("bloom", count) for count in LANGUAGE_COUNTS]
CASES += [("hw-sim", count) for count in LANGUAGE_COUNTS]
CASES += [("hail", count) for count in HAIL_LANGUAGE_COUNTS]


@pytest.mark.parametrize(("backend_name", "n_languages"), CASES)
def test_probe_is_bit_exact_at_byte_edges(backend_name, n_languages, monkeypatch):
    # a chunk smaller than the batch exercises the chunk boundaries too
    monkeypatch.setattr(backends, "BATCH_CHUNK_NGRAMS", 97)
    profiles = random_profiles(n_languages)
    backend = trained(backend_name, profiles)
    packed = probe_batch(profiles)

    hits = backend.ngram_hits(packed)
    expected = reference_hits(backend_name, backend, packed)
    assert hits.shape == (n_languages, packed.size)
    assert hits.flags.c_contiguous
    np.testing.assert_array_equal(hits, expected)
    # both sides of the comparison must actually see hits and misses
    assert expected.any() and not expected.all()

    counts = backend.match_counts_batch(packed, LENGTHS)
    np.testing.assert_array_equal(counts, reference_counts(backend_name, backend, packed))
    np.testing.assert_array_equal(counts.sum(axis=0), hits.sum(axis=1))


@pytest.mark.parametrize("n_languages", LANGUAGE_COUNTS)
def test_language_row_helpers_round_trip(n_languages):
    rng = np.random.default_rng(n_languages)
    k, m_bits, n_keys = 3, 64, 500
    stacked = rng.random((k, n_languages, m_bits)) < 0.6
    rows = pack_language_rows(stacked)
    assert rows.shape == (k, m_bits, -(-n_languages // 8))
    assert rows.dtype == np.uint8
    addresses = rng.integers(0, m_bits, size=(k, n_keys), dtype=np.uint64)

    hits = unpack_language_rows(probe_language_rows(rows, addresses), n_languages)
    expected = np.ones((n_languages, n_keys), dtype=bool)
    for i in range(k):
        expected &= stacked[i][:, addresses[i]]
    np.testing.assert_array_equal(hits, expected)
    empty = unpack_language_rows(probe_language_rows(rows, addresses[:, :0]), n_languages)
    assert empty.shape == (n_languages, 0)


# -- the packed table never outlives the filters it was packed from ----------------

STALE_LANGUAGES = 9
TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "le renard brun saute par dessus le chien paresseux",
    "el zorro marron salta sobre el perro perezoso",
    "",
]


def answers(identifier: LanguageIdentifier, packed: np.ndarray):
    results = identifier.classify_batch(TEXTS)
    return (
        [(r.language, r.match_counts) for r in results],
        identifier.backend.ngram_hits(packed),
        identifier.backend.match_counts_batch(packed, LENGTHS),
    )


def assert_same_answers(identifier, fresh, packed):
    got, expected = answers(identifier, packed), answers(fresh, packed)
    assert got[0] == expected[0]
    np.testing.assert_array_equal(got[1], expected[1])
    np.testing.assert_array_equal(got[2], expected[2])


@pytest.fixture
def stale_setup():
    old = random_profiles(STALE_LANGUAGES, seed=10)
    new = random_profiles(STALE_LANGUAGES, seed=11)  # same language names
    identifier = LanguageIdentifier(CONFIG).train_profiles(old)
    fresh = LanguageIdentifier(CONFIG).train_profiles(new)
    packed = probe_batch(new)
    # classify first, so the identifier has built its packed table
    answers(identifier, packed)
    assert identifier.backend._rows is not None
    # the two models disagree, so a stale table would show
    assert not np.array_equal(
        identifier.backend.ngram_hits(packed), fresh.backend.ngram_hits(packed)
    )
    return identifier, fresh, new, packed


def test_retraining_in_place_replaces_the_table(stale_setup):
    identifier, fresh, new, packed = stale_setup
    identifier.train_profiles(new)
    assert_same_answers(identifier, fresh, packed)


def test_import_state_replaces_the_table(stale_setup):
    identifier, fresh, new, packed = stale_setup
    identifier.backend.import_state(new, fresh.backend.export_state())
    assert_same_answers(identifier, fresh, packed)


def test_import_shared_state_replaces_the_table(stale_setup):
    identifier, fresh, new, packed = stale_setup
    identifier.backend.import_shared_state(new, fresh.backend.export_shared_state())
    assert_same_answers(identifier, fresh, packed)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tonoseg import core
from tonoseg.core import (
    FLAT,
    AlphabetError,
    HIERARCHICAL,
    HIERARCHY_PROMINENCE,
    HIERARCHY_PROMINENCE_TONES,
    Corpus,
    DecodeError,
    EmptyTurnError,
    EmptyWordError,
    EncodingScheme,
    Marker,
    ProminentTone,
    ProsodicWord,
    Tone,
    TonosegError,
    Turn,
    UnknownToneError,
    decode_turn,
    encode_corpus,
    encode_turn,
    get_scheme,
    register_scheme,
)
from helpers import random_turn, turn


def sym_strs(symbols):
    return [str(s) for s in symbols]


# -- tones -------------------------------------------------------------


def test_exactly_eight_tones():
    assert len(Tone) == 8
    assert [t.value for t in Tone] == ["T", "M", "B", "H", "S", "L", "U", "D"]


def test_tone_partition():
    absolute = {t for t in Tone if t.is_absolute}
    relative = {t for t in Tone if t.is_relative}
    assert absolute == {Tone.TOP, Tone.MID, Tone.BOTTOM}
    assert relative == set(Tone) - absolute
    assert {t for t in Tone if t.is_iterative} == {Tone.UPSTEP, Tone.DOWNSTEP}
    assert {t for t in Tone if t.is_non_iterative} == {Tone.HIGHER, Tone.SAME, Tone.LOWER}


def test_unknown_tone_letter_rejected():
    with pytest.raises(UnknownToneError):
        Tone.from_letter("X")
    with pytest.raises(UnknownToneError):
        Tone.from_letter("h")  # prominent variants are not tone labels


def test_prominent_tone_mapping():
    for t in Tone:
        assert ProminentTone.of(t).base is t


# -- schemes -----------------------------------------------------------


def test_scheme_sizes():
    assert FLAT.size == 10
    assert HIERARCHICAL.size == 12
    assert HIERARCHY_PROMINENCE.size == 13
    assert HIERARCHY_PROMINENCE_TONES.size == 20


def test_alphabets_tones_first_no_duplicates():
    for scheme in (FLAT, HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES):
        assert len(set(scheme.alphabet)) == scheme.size
        assert scheme.alphabet[:8] == tuple(Tone)
        for i, sym in enumerate(scheme.alphabet):
            assert scheme.index(sym) == i


def test_registry(monkeypatch):
    # A copy of the registry, restored after the test, takes the new scheme.
    monkeypatch.setattr(core, "_SCHEME_REGISTRY", dict(core._SCHEME_REGISTRY))
    assert get_scheme("hier") is HIERARCHICAL
    with pytest.raises(core.UnknownSchemeError) as exc:
        get_scheme("nope")
    assert isinstance(exc.value, KeyError) and isinstance(exc.value, core.TonosegError)
    custom = EncodingScheme("toy-xy", ("X", "Y"))
    register_scheme(custom)
    assert get_scheme("toy-xy") is custom


def test_duplicate_alphabet_rejected():
    with pytest.raises(ValueError) as exc:
        EncodingScheme("dup", ("A", "A"))
    assert isinstance(exc.value, core.TonosegError)


def test_bad_prominence_style_rejected():
    with pytest.raises(ValueError, match=r"^bad prominence style 'loud'$") as exc:
        EncodingScheme("loud", ("A", "B"), prominence="loud")
    assert isinstance(exc.value, core.TonosegError)


def test_index_of_foreign_symbol():
    with pytest.raises(AlphabetError, match=r"^symbol 'X' not in alphabet of scheme 'hier'$"):
        HIERARCHICAL.index("X")


# -- hierarchy types ---------------------------------------------------


def test_empty_word_rejected():
    with pytest.raises(EmptyWordError):
        ProsodicWord(())


def test_empty_turn_rejected():
    with pytest.raises(EmptyTurnError):
        Turn(())


def test_corpus_counts():
    c = Corpus((turn("US", ("TD", True)), turn("H")))
    assert c.word_count == 3
    assert c.tone_count == 5
    assert c.turns[0].tone_count == 4


def test_boundary_slots():
    t = turn("US", "T", "HD")
    assert t.boundary_slots() == (False, True, True, False)
    assert t.tone_stream() == (Tone.UPSTEP, Tone.SAME, Tone.TOP, Tone.HIGHER, Tone.DOWNSTEP)


# -- encoding ----------------------------------------------------------


def test_encode_flat_minimal():
    assert sym_strs(encode_turn(turn("H"), FLAT)) == ["[", "H", "]"]


def test_encode_hierarchical_two_words():
    t = turn("US", ("TD", True))
    assert sym_strs(encode_turn(t, HIERARCHICAL)) == [
        "[", "(", "U", "S", ")", "(", "T", "D", ")", "]",
    ]


def test_encode_prominence_marker():
    t = turn("US", ("TD", True))
    assert sym_strs(encode_turn(t, HIERARCHY_PROMINENCE)) == [
        "[", "(", "U", "S", ")", "*(", "T", "D", ")", "]",
    ]


def test_encode_prominence_tones():
    t = turn("US", ("TD", True))
    assert sym_strs(encode_turn(t, HIERARCHY_PROMINENCE_TONES)) == [
        "[", "(", "U", "S", ")", "(", "t", "d", ")", "]",
    ]


def test_encode_corpus_order():
    c = Corpus((turn("H"), turn("US")))
    seqs = encode_corpus(c, FLAT)
    assert sym_strs(seqs[0]) == ["[", "H", "]"]
    assert sym_strs(seqs[1]) == ["[", "U", "S", "]"]


def test_length_arithmetic():
    rng = random.Random(11)
    for _ in range(100):
        t = random_turn(rng)
        n_tones = t.tone_count
        n_words = len(t.words)
        assert len(encode_turn(t, FLAT)) == 2 + n_tones
        assert len(encode_turn(t, HIERARCHICAL)) == 2 + n_tones + 2 * n_words
        assert len(encode_turn(t, HIERARCHY_PROMINENCE)) == len(encode_turn(t, HIERARCHICAL))


NO_TURN_MARKERS = EncodingScheme(
    "no-turns", tuple(Tone) + (Marker.WORD_OPEN, Marker.WORD_CLOSE), True
)


def test_encode_needs_turn_markers():
    with pytest.raises(AlphabetError, match=r"^scheme 'no-turns' has no turn markers$"):
        encode_turn(turn("H"), NO_TURN_MARKERS)


@st.composite
def corpora_with_repeated_words(draw):
    """Corpora drawn from a small pool of words, so most words repeat: some
    as the same object, some as equal copies, under both prominence values."""
    pool = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(list(Tone)), min_size=1, max_size=3), st.booleans()),
        min_size=1, max_size=5,
    ))
    pool = [ProsodicWord(tuple(tones), prominent) for tones, prominent in pool]
    picks = st.tuples(st.sampled_from(pool), st.booleans())
    turns = draw(st.lists(st.lists(picks, min_size=1, max_size=5), max_size=8))
    return Corpus(tuple(
        Turn(tuple(ProsodicWord(w.tones, w.prominent) if copied else w for w, copied in words))
        for words in turns
    ))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    corpora_with_repeated_words(),
    st.sampled_from(
        (FLAT, HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES, NO_TURN_MARKERS)
    ),
)
def test_encode_corpus_equals_per_turn_encoder(corpus, scheme):
    try:
        want = [encode_turn(t, scheme) for t in corpus.turns]
    except TonosegError as err:
        with pytest.raises(type(err)) as raised:
            encode_corpus(corpus, scheme)
        assert str(raised.value) == str(err)
        return
    got = encode_corpus(corpus, scheme)
    assert got == want
    assert len({id(seq) for seq in got}) == len(got)
    if got:
        got[0][:] = [None] * len(got[0])
        assert got[1:] == want[1:]
        assert encode_corpus(corpus, scheme) == want


def test_alphabet_closure():
    rng = random.Random(12)
    for scheme in (FLAT, HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES):
        for _ in range(50):
            for sym in encode_turn(random_turn(rng), scheme):
                assert sym in scheme


# -- decoding ----------------------------------------------------------


def test_decode_minimal():
    symbols = [Marker.TURN_OPEN, Marker.WORD_OPEN, Tone.HIGHER, Marker.WORD_CLOSE, Marker.TURN_CLOSE]
    assert decode_turn(symbols, HIERARCHICAL) == turn("H")


def test_decode_unclosed_word():
    symbols = [Marker.TURN_OPEN, Marker.WORD_OPEN, Tone.HIGHER, Marker.TURN_CLOSE]
    with pytest.raises(DecodeError) as exc:
        decode_turn(symbols, HIERARCHICAL)
    assert exc.value.index == 3


def test_decode_flat_rejected():
    with pytest.raises(DecodeError) as exc:
        decode_turn(encode_turn(turn("H"), FLAT), FLAT)
    assert exc.value.index == 0


def test_decode_malformed_cases():
    to, tc, wo, wc = Marker.TURN_OPEN, Marker.TURN_CLOSE, Marker.WORD_OPEN, Marker.WORD_CLOSE
    h = Tone.HIGHER
    bad = [
        [wo, h, wc, tc],              # missing turn-open
        [to, h, tc],                  # tone outside word
        [to, wo, wo, h, wc, tc],      # word inside word
        [to, wo, wc, tc],             # empty word
        [to, wc, tc],                 # close without open
        [to, wo, h, wc],              # missing turn-close
        [to, tc],                     # no words
        [to, wo, h, wc, tc, h],       # trailing symbols
        [to, wo, h, Marker.PROM_WORD_OPEN, wc, tc],  # prom marker not in hier alphabet
    ]
    for symbols in bad:
        with pytest.raises(DecodeError):
            decode_turn(symbols, HIERARCHICAL)


def test_decode_index_is_first_difference_from_reencoding():
    to, tc, wo, wc = Marker.TURN_OPEN, Marker.TURN_CLOSE, Marker.WORD_OPEN, Marker.WORD_CLOSE
    po = Marker.PROM_WORD_OPEN
    h, l = Tone.HIGHER, Tone.LOWER
    cases = [
        ([to, wo, wc, tc], 1, "expected ], got "),           # empty word: read as no word
        ([to, wo, h, l, wo, h, wc, tc], 4, "expected ), got "),  # word inside word
        ([to, h, wc, tc], 1, "expected (, got "),            # tone outside a word
        ([to, wo, h, wc], 4, "expected ], got end of sequence"),
        ([to, wo, h, wc, tc, h], 5, "symbols after turn-close"),
        ([to, wo, h, wc, to, wo, h, wc, tc], 4, "expected (, got "),  # nested turn-open
        ([to, wo, h, "x", wc, tc], 3, "expected ), got 'x'"),
        ([to, po, h, wc, tc], 1, "expected (, got "),        # no prominence marker in hier
        ([], 0, "expected [, got end of sequence"),
        ([to, tc], 1, "turn contains no words"),
    ]
    for symbols, index, message in cases:
        with pytest.raises(DecodeError) as exc:
            decode_turn(symbols, HIERARCHICAL)
        assert exc.value.index == index, symbols
        assert str(exc.value).startswith(f"symbol {index}: {message}"), symbols


def test_decode_plain_strings():
    # Symbols compare as their strings, so plain strings decode like the enums.
    assert decode_turn(["[", "(", "h", ")", "]"], HIERARCHY_PROMINENCE_TONES) == turn(("H", True))
    assert decode_turn(["[", "(", "H", ")", "]"], HIERARCHY_PROMINENCE_TONES) == turn("H")
    assert decode_turn(["[", "*(", "H", ")", "]"], HIERARCHY_PROMINENCE) == turn(("H", True))
    for scheme in (HIERARCHICAL, HIERARCHY_PROMINENCE):
        with pytest.raises(DecodeError) as exc:
            decode_turn(["[", "(", "h", ")", "]"], scheme)
        assert exc.value.index == 2


def test_decode_mixed_case_word_rejected():
    symbols = [
        Marker.TURN_OPEN, Marker.WORD_OPEN,
        Tone.TOP, ProminentTone.DOWNSTEP,
        Marker.WORD_CLOSE, Marker.TURN_CLOSE,
    ]
    with pytest.raises(DecodeError) as exc:
        decode_turn(symbols, HIERARCHY_PROMINENCE_TONES)
    assert exc.value.index == 2  # the lowercase d makes the word prominent: t expected


def test_round_trip_random_turns():
    rng = random.Random(13)
    for scheme in (HIERARCHICAL, HIERARCHY_PROMINENCE, HIERARCHY_PROMINENCE_TONES):
        for _ in range(200):
            t = random_turn(rng)
            decoded = decode_turn(encode_turn(t, scheme), scheme)
            if scheme is HIERARCHICAL:
                # prominence is invisible here; compare shapes only
                assert [w.tones for w in decoded.words] == [w.tones for w in t.words]
                assert all(not w.prominent for w in decoded.words)
            else:
                assert decoded == t

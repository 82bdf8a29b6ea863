import itertools
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalemetrics import ingest
from scalemetrics.cli import main
from scalemetrics.errors import ConfigError, ParseError
from scalemetrics.ingest import (
    AuthorId,
    CommitRecord,
    ProjectHistory,
    parse_commit_log,
    parse_jsonl,
    resolve_authors,
    write_jsonl,
)

from conftest import make_history, no_rows, random_history, random_payload_history
from oracle import (
    loop_parse_commit_log,
    loop_parse_jsonl,
    loop_resolve_authors,
    loop_write_jsonl,
)


def log_entry(cid, email, ts, rows=(), parents=1, name="Dev"):
    lines = [f"C|{cid}|{email}|{name}|{ts}|{parents}"]
    lines += [f"{a}\t{d}\t{p}" for a, d, p in rows]
    lines.append("")
    return "\n".join(lines) + "\n"


def test_empty_text():
    history = parse_commit_log("")
    assert len(history) == 0


def test_single_record_passthrough():
    text = log_entry("abc", "A@X.com", 100, rows=[(5, 2, "f.py")])
    history = parse_commit_log(text)
    assert len(history) == 1
    c = history.commits[0]
    assert c.lines_added == 5
    assert c.lines_deleted == 2
    assert c.timestamp == 100
    assert c.author == AuthorId("a@x.com")


def test_sorting_all_permutations():
    # oracle: sorted() over every ordering of three timestamps
    entries = {
        300: log_entry("c300", "a@x", 300),
        100: log_entry("c100", "a@x", 100),
        200: log_entry("c200", "a@x", 200),
    }
    for perm in itertools.permutations([300, 100, 200]):
        text = "\n".join(entries[ts] for ts in perm)
        history = parse_commit_log(text)
        assert [c.timestamp for c in history.commits] == sorted(perm)


def test_binary_numstat_dash_is_zero():
    text = log_entry("c1", "a@x", 1, rows=[("-", "-", "img.png"), (3, 1, "f.py")])
    c = parse_commit_log(text).commits[0]
    assert (c.lines_added, c.lines_deleted) == (3, 1)


def test_merge_commits_excluded_by_default():
    text = log_entry("m", "a@x", 5, parents=2) + log_entry("c", "b@x", 6)
    assert [c.commit_id for c in parse_commit_log(text).commits] == ["c"]
    both = parse_commit_log(text, include_merges=True)
    assert len(both) == 2


def test_merge_exclusion_never_increases_counts(rng):
    for _ in range(20):
        entries = [
            log_entry(f"c{i}", f"d{rng.randrange(4)}@x", rng.randrange(1000),
                      parents=rng.choice([1, 1, 2]))
            for i in range(30)
        ]
        text = "\n".join(entries)
        with_merges = parse_commit_log(text, include_merges=True).commits_per_author()
        without = parse_commit_log(text).commits_per_author()
        for author, count in without.items():
            assert count <= with_merges[author]


def test_malformed_header_reports_line_number():
    text = log_entry("ok", "a@x", 1) + "\nnot a header\n"
    with pytest.raises(ParseError) as exc:
        parse_commit_log(text)
    assert "line 4" in str(exc.value)


def test_duplicate_commit_id_rejected(tmp_path, capsys):
    # each parser names the line of the id's second record
    log = log_entry("dup", "a@x", 1) + log_entry("dup", "b@x", 2)
    jsonl = ('{"id": "a", "email": "a@x", "ts": 2}\n{"id": "b", "email": "a@x", "ts": 1}\n'
             '\n{"id": "a", "email": "b@x", "ts": 0}\n{"id": "a", "email": "c@x", "ts": 3}\n')
    for parse, text, line in [(parse_commit_log, log, 3),
                              (parse_commit_log, "C|0||0|0|0\n\nC|0||0|0|0\n", 3),
                              (parse_jsonl, jsonl, 4)]:
        with pytest.raises(ParseError, match="duplicate commit id") as exc:
            parse(text)
        assert exc.value.line == line
        src = tmp_path / "dup.txt"
        src.write_text(text)
        assert main(["ingest", str(src)]) == 2
        assert f"line {line}: duplicate" in capsys.readouterr().err
    # a direct caller of ProjectHistory.build still gets the check
    with pytest.raises(ParseError, match="duplicate commit id 'c0'"):
        ProjectHistory.build("h", make_history([("a@x", 1)]).commits * 2)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["old", "new", "x"]), inner, max_size=3),
    max_leaves=6)
_REQUIRED = {"id": st.sampled_from(["a", "b", "c", "d"]),
             "email": st.sampled_from(["a@x", " A@X", "b@x"]),
             "ts": st.sampled_from([0, 1, 2.5]) | st.floats(0, 1e10)}
_OPTIONAL = {"name": st.sampled_from(["Ann", "", None]),
             "added": st.integers(0, 3), "deleted": st.integers(0, 3),
             "parents": st.integers(0, 3),
             "files": st.lists(st.fixed_dictionaries(
                 {}, optional={"old": st.text(max_size=2), "new": st.text(max_size=2)}),
                 max_size=2)}
_GOOD_RECORDS = st.fixed_dictionaries(_REQUIRED, optional=_OPTIONAL)
_KEYS = st.sampled_from([*_REQUIRED, *_OPTIONAL])
_EDGE_VALUES = _JSON_VALUES | st.sampled_from(["", -1, 10**400, float("inf"), [{}]])
_BAD_JSONL_LINES = st.one_of(
    # one of the 8 fields set to any JSON value, or missing
    st.tuples(_GOOD_RECORDS, _KEYS, _EDGE_VALUES).map(lambda t: {**t[0], t[1]: t[2]})
    .map(json.dumps),
    st.tuples(_GOOD_RECORDS, _KEYS).map(
        lambda t: json.dumps({k: v for k, v in t[0].items() if k != t[1]})),
    st.dictionaries(_KEYS, _JSON_VALUES).map(json.dumps),
    _JSON_VALUES.map(json.dumps), st.sampled_from(["{", "{nope}", "NaN"]))
_LOG_TEXT = st.text("C|-\t 01ax@.e", max_size=4)
# (good values, edge values) of each header and numstat field
_HEADER_FIELDS = [(("C",), ("c", "")), (("a", "b", "c"), ("",)),
                  (("a@x", " A@X", "b@x"), ("",)), (("Ann", ""), ("",)),
                  (("0", "1", "2.5", "1400000000"), ("-1", "nan", "1e400", "0x1")),
                  (("0", "1", "2"), ("-1", "1.0"))]
_ROW_FIELDS = [(("0", "3", "-"), ("-1", "")), (("0", "3", "-"), ("-1", "--")),
               (("f.py",), ("",))]


def _fields(spec, sep, edge):
    """``spec``'s fields joined by ``sep``: good values, or with ``edge`` also
    edge values and text from a small alphabet."""
    def field(good, bad):
        return st.sampled_from(good + bad) | _LOG_TEXT if edge else st.sampled_from(good)
    return st.tuples(*(field(good, bad) for good, bad in spec)).map(sep.join)


_GOOD_LOG_ENTRIES = st.tuples(
    _fields(_HEADER_FIELDS, "|", False),
    st.lists(_fields(_ROW_FIELDS, "\t", False), max_size=2)).map(
    lambda t: "\n".join([t[0], *t[1], ""]))
# a header or numstat row with edge values or text from a small alphabet
_BAD_LOG_LINES = (_fields(_HEADER_FIELDS, "|", True) | _fields(_ROW_FIELDS, "\t", True)
                  | _LOG_TEXT)


def _bad_lines(good, bad):
    """Good lines with up to two bad lines put in among them."""
    return st.tuples(st.lists(good, max_size=6),
                     st.lists(st.tuples(bad, st.integers(0, 8)), max_size=2)).map(
        lambda t: _insert(t[0], t[1]))


def _insert(lines, extra):
    lines = list(lines)
    for line, at in extra:
        lines.insert(at, line)
    return lines


def _outcome(parse, text, include_merges):
    try:
        return parse(text, include_merges=include_merges)
    except ParseError as exc:
        return exc


_GOOD = json.dumps({"id": "g", "email": "a@x", "ts": 5})
_ALIASES = {"a@x": "c@x", "ann": "a@x"}


@settings(max_examples=300, deadline=None)
@given(_bad_lines(_GOOD_RECORDS.map(json.dumps), _BAD_JSONL_LINES),
       _bad_lines(_GOOD_LOG_ENTRIES, _BAD_LOG_LINES), st.booleans())
# a joined decode would read these two lines as two records
@example(['{"id":"a","ts":1},{"id":"b","ts":2,"x":[0', '1]}'], [], False)
@example(["\x0c" + _GOOD, _GOOD.replace('"g"', '"h"')], [], False)  # not JSON whitespace
@example([_GOOD, '{"id": "b", "email": "b@x", "ts": 1' + "0" * 400 + "}"], [], False)
@example([_GOOD, '{"id": "b", "email": "b@x", "ts": 1, "added": true}', "{"], [], False)
@example([_GOOD, '{"id": "", "email": "b@x", "ts": 1}'], [], False)
# an id whose first copy is a merge is a duplicate only when merges are kept
@example(['{"id": "g", "email": "b@x", "ts": 1, "parents": 2}', _GOOD],
         ["C|m|a@x|A|1|2\n", "C|m|b@x|B|2|1\n"], False)
@example(['{"id": "g", "email": "b@x", "ts": 1, "parents": 2}', _GOOD],
         ["C|m|a@x|A|1|2\n", "C|m|b@x|B|2|1\n"], True)
# a faulty record's malformed numstat row (line 2) is its error, and a
# faulty record (line 1) wins over a later malformed header (line 3)
@example([], ["C|a|||0|0", "C|a|a@x|Ann|0|0"], False)
@example([], ["C|a|||0|0\n", "X|b"], False)
def test_parsers_fuzz(jsonl_lines, log_lines, include_merges):
    # each parser gives the rows of its record-by-record oracle, or the same
    # line-numbered ParseError; on a parsed history, resolve_authors and
    # write_jsonl make no CommitRecord and agree with their oracles
    for parse, oracle, lines in [(parse_jsonl, loop_parse_jsonl, jsonl_lines),
                                 (parse_commit_log, loop_parse_commit_log, log_lines)]:
        text = "\n".join(lines) + "\n"
        expected = _outcome(oracle, text, include_merges)
        if isinstance(expected, ParseError):
            got = _outcome(parse, text, include_merges)
            assert isinstance(got, ParseError), text
            assert (str(got), got.line) == (str(expected), expected.line)
            continue
        with no_rows():  # a valid input is parsed without a record
            h = parse(text, include_merges=include_merges)
            resolved = resolve_authors(h)
            written = write_jsonl(h)
            aliased = resolve_authors(h, alias_map=_ALIASES, drop_authors=["b@x"])
            written_aliased = write_jsonl(aliased)
        assert h.commits == expected.commits
        assert resolved.commits == h.commits
        assert written == loop_write_jsonl(expected)
        expected_aliased = loop_resolve_authors(expected, _ALIASES, ["b@x"])
        assert aliased.commits == expected_aliased.commits
        assert written_aliased == loop_write_jsonl(expected_aliased)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_parse_jsonl_chunks_match_loop_oracle(chunk, monkeypatch):
    # records, merges and faults on either side of each chunk boundary
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    good = [json.dumps({"id": f"c{i}", "email": ["a@x", None, "B@x"][i % 3], "name": "Ann",
                        "ts": 7 - i, "parents": 2 if i == 4 else 1}) for i in range(8)]
    # and canonical lines, which the pattern reads
    good += [_canon(cid=f"k{i}", email=["a@x", "K@x"][i % 2], ts=f"{i}.5",
                    end=', "parents": 2' if i == 2 else "") for i in range(4)]
    bad = ['{"id": "z", "email": "a@x", "ts": -1}', "{", '{"id": "q", "ts": 1}',
           '{"id": "c1", "email": "x@y", "ts": 0}', "", _canon(cid="z", ts="-1.0"),
           _canon(cid="k1"), _canon(email="", name=" ")]
    for at in range(len(good) + 1):
        for line in bad:
            text = "\n".join(good[:at] + [line] + good[at:]) + "\n"
            for include_merges in (False, True):
                expected = _outcome(loop_parse_jsonl, text, include_merges)
                got = _outcome(parse_jsonl, text, include_merges)
                if isinstance(expected, ParseError):
                    assert (str(got), got.line) == (str(expected), expected.line)
                else:
                    assert got.commits == expected.commits


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_parse_commit_log_chunks_match_loop_oracle(chunk, monkeypatch):
    # records, merges and faults on either side of each chunk boundary; a
    # chunk holds _CHUNK kept records, however many lines they take
    monkeypatch.setattr(ingest, "_CHUNK", chunk)
    good = [f"C|c{i}|{['a@x', '', 'B@x'][i % 3]}|Ann|{7 - i}|{2 if i == 4 else 1}\n"
            + "3\t1\tf.py\n" * (i % 2) for i in range(8)]
    bad = ["C|z|a@x|A|-1|1\n", "X\n", "C|q|||1|1\n", "C|c1|x@y|X|0|1\n", "C||a@x|A|1|1\n",
           "C|n|a@x|A|1|1\n1\t2\n", "C|q|||1|1\nX\n", "C|h|a@x|A|1|-1\n\nX\n"]
    for at in range(len(good) + 1):
        for entry in bad:
            text = "\n".join(good[:at] + [entry] + good[at:]) + "\n"
            for include_merges in (False, True):
                expected = _outcome(loop_parse_commit_log, text, include_merges)
                got = _outcome(parse_commit_log, text, include_merges)
                if isinstance(expected, ParseError):
                    assert (str(got), got.line) == (str(expected), expected.line)
                else:
                    assert got.commits == expected.commits


def _canon(cid="e", email="a@x", name="A", ts="1.5", added="1", end=""):
    """A JSONL line in the canonical form, with the given field texts."""
    return (f'{{"id": "{cid}", "email": "{email}", "name": "{name}", "ts": {ts}, '
            f'"added": {added}, "deleted": 0{end}}}')


def _written(rows):
    """The lines :func:`write_jsonl` writes for ``rows`` of ((email, name),
    ts, added, deleted, parents), commit i having id ``c{i}``."""
    commits = [CommitRecord(f"c{i}", AuthorId.from_raw(*pair), ts, added, deleted, *pair,
                            parents)
               for i, (pair, ts, added, deleted, parents) in enumerate(rows)]
    return write_jsonl(ProjectHistory("w", commits)).split("\n")[:-1]


_WRITTEN_LINES = st.lists(st.tuples(
    st.sampled_from([("a@x", "Ann"), (" A@X", ""), ("", "Bob"), ("b@x", 'B"o'),
                     ("c@x", "C\u00e9")]),
    st.floats(0, 1e17) | st.sampled_from([0.0, 5e-324, 1e16, 1.5e300]),
    st.integers(0, 2**52), st.integers(0, 2**52),
    st.sampled_from([1, 1, 1, 0, 2, 3, 10**20])), max_size=10).map(_written)
_MUTABLE = _canon(cid="m", name="M", ts="12.5", added="10", end=', "parents": 1')
# a canonical line with one character replaced, inserted or deleted
_MUTATED = st.tuples(st.integers(0, len(_MUTABLE)), st.integers(0, 1), st.sampled_from(
    ["", '"', "\\", " ", "0", "9", "-", "+", ".", "e", "\x7f", "\u0661", "\x00", "\u00fc",
     "\t", "\n", "\u2028"])).map(lambda t: _MUTABLE[:t[0]] + t[2] + _MUTABLE[t[0] + t[1]:])
_CANON_WRITTEN = _written([(("a@x", "A"), 1.5, 1, 0, 1), (("b@x", "B"), 2.5, 0, 3, 1),
                           (("a@x", "A"), 3.0, 2, 2, 2), (("c@x", "C"), 4e-7, 0, 0, 1),
                           (("d@x", "D"), 5.0, 1, 1, 0)])


@settings(max_examples=300, deadline=None)
@given(_WRITTEN_LINES,
       st.lists(st.tuples(_BAD_JSONL_LINES | _GOOD_RECORDS.map(json.dumps) | _MUTATED,
                          st.integers(0, 12)), max_size=3),
       st.integers(1, 4), st.booleans(), st.sampled_from(["\n", "\r\n"]))
@example(_CANON_WRITTEN, [], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(ts="1e+16"), 1), (_canon(cid="f", ts="5e-324"), 3)],
         2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(ts="-0.0"), 0)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(ts="1e400"), 3)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(ts="7"), 2)], 2, False, "\n")  # a plain-int ts
@example(_CANON_WRITTEN, [(_canon(added="01"), 2)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(added="-0"), 2)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(added="1\u0661"), 2)], 2, False, "\n")  # Arabic-Indic
@example(_CANON_WRITTEN, [(_canon(ts="1.\u0665"), 2)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(name="A\x7fB"), 1), (_canon(cid="f", name="\u00e9"), 3)],
         2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(name="A\tB"), 2)], 2, False, "\n")  # a raw control character
@example(_CANON_WRITTEN, [(_canon(name="\\ud83d\\ude00 \\u00e9\\/\\n"), 1),
                          (_canon(cid="f", name="\\ud800"), 3)], 2, False, "\n")  # escapes
@example(_CANON_WRITTEN, [(_canon(name="\\x"), 1), (_canon(cid="f", name="\\u12"), 3)],
         2, False, "\n")  # bad escapes
@example(_CANON_WRITTEN, [(_canon() + "x", 2)], 2, False, "\n")  # text after the record
@example(_CANON_WRITTEN, [(_canon(end=', "parents": 0'), 1),
                          (_canon(cid="f", end=', "parents": 2'), 3)], 2, False, "\n")
@example(_CANON_WRITTEN, [(_canon(end=', "parents": 0'), 1),
                          (_canon(cid="f", end=', "parents": 2'), 3)], 2, True, "\n")
@example(_CANON_WRITTEN, [], 3, False, "\r\n")
@example(_CANON_WRITTEN, [("", 1)], 3, False, "\n")  # a blank line mid-chunk
@example(_CANON_WRITTEN, [(_canon(cid="c0", ts="9.5"), 4)], 2, False, "\n")  # duplicate id
@example(_CANON_WRITTEN, [(_canon(email="", name=" "), 3)], 2, False, "\n")
@example([], [], 2, False, "\n")  # an empty text
def test_canonical_reader_matches_loop_oracle(written, swaps, chunk, include_merges,
                                              newline):
    # write_jsonl output with lines swapped for non-canonical or faulty ones:
    # parse_jsonl gives its record-by-record oracle's rows, or the same
    # line-numbered ParseError, with canonical and decoded chunks alternating
    lines = list(written)
    for line, at in swaps:
        lines[at:at + 1] = [line]
    text = "".join(line + newline for line in lines)
    expected = _outcome(loop_parse_jsonl, text, include_merges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK", chunk)
        got = _outcome(parse_jsonl, text, include_merges)
    if isinstance(expected, ParseError):
        assert isinstance(got, ParseError), text
        assert (str(got), got.line) == (str(expected), expected.line)
    else:
        assert got.commits == expected.commits


def test_written_jsonl_is_read_by_the_pattern(monkeypatch):
    # write_jsonl escapes every non-ASCII and control character, so its
    # lines for commits without payloads are all canonical: none is decoded
    monkeypatch.setattr(ingest, "_CHUNK", 4)
    pairs = [("jos\u00e9@x", "Jos\u00e9 \u00d1\u00fa\u00f1ez"), ("li@x", "\u674e \U0001f600"),
             ("b@x", 'B"o\\'), ("t@x", "T\tab\x7f"), ("a@x", "A")]
    text = "\n".join(_written([(pairs[i % 5], i + 0.5, i, 1, 1) for i in range(30)])) + "\n"
    expected = loop_parse_jsonl(text).commits
    monkeypatch.setattr(ingest, "_json_line", None)
    assert parse_jsonl(text).commits == expected


def test_both_jsonl_readers_give_equal_columns(monkeypatch):
    # write_jsonl lines, which the pattern reads, and the same records as
    # compact JSON, which is decoded, alone and mixed inside each chunk: the
    # same columns, identity and author numbering included
    monkeypatch.setattr(ingest, "_CHUNK", 3)
    pairs = [(f"d{i}@x", f"D{i}") for i in range(4)] + [("jos\u00e9@x", "Jos\u00e9")]
    canonical = _written([(pairs[i % 5], i + 0.5, i, 1, [1, 1, 2, 0][i % 4])
                          for i in range(30)])
    compact = [json.dumps(json.loads(line), separators=(",", ":")) for line in canonical]
    pattern = re.compile(ingest._CANONICAL)
    assert all(map(pattern.fullmatch, canonical)) and not any(map(pattern.fullmatch, compact))
    mixed = [(compact if i % 2 else canonical)[i] for i in range(30)]
    for include_merges in (False, True):
        expected = parse_jsonl("\n".join(canonical) + "\n", include_merges=include_merges)
        for lines in (compact, mixed):
            got = parse_jsonl("\n".join(lines) + "\n", include_merges=include_merges)
            for a, b in zip(got.columns, expected.columns, strict=True):
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype
                    assert a.tolist() == b.tolist()
                else:
                    assert a == b


def test_odd_lines_alone_are_decoded(monkeypatch):
    # blank lines and plain-integer ts lines among canonical ones: each
    # line that is neither canonical nor blank is decoded once, and no other
    text = write_jsonl(ProjectHistory("w", [
        CommitRecord(f"c{i}", AuthorId(f"d{i % 7}@x"), float(i), i % 5, 1, f"d{i % 7}@x")
        for i in range(10_000)]))
    lines = text.split("\n")[:-1]
    for i in (3, 2000, 4097, 4098, 9999):
        lines[i] = lines[i].replace(f'"ts": {i}.0,', f'"ts": {i},')
    odd = [line for line in lines if '.0, "added"' not in line]
    for i in range(10_000, 0, -2000):
        lines.insert(i, "")
    text = "\n".join(lines) + "\n"
    decoded = []
    json_line = ingest._json_line
    monkeypatch.setattr(ingest, "_json_line",
                        lambda scan, line: decoded.append(line) or json_line(scan, line))
    assert parse_jsonl(text).commits == loop_parse_jsonl(text).commits
    assert len(odd) == 5 and decoded == odd


def test_write_jsonl_matches_loop_oracle(rng):
    # histories made from rows, with payloads, aliases, drops and parent counts
    for _ in range(5):
        h = random_payload_history(rng)
        commits = [replace(c, parent_count=rng.choice([0, 1, 1, 2, 10**30]))
                   for c in h.commits]
        h = ProjectHistory.build("payload", commits)
        for aliases, drop in [(None, ()), ({"dev0@x": "dev1@x", "dev2@x": "new@y"},
                                           ["dev3@x"])]:
            resolved = resolve_authors(h, aliases, drop)
            assert write_jsonl(resolved) == loop_write_jsonl(resolved)
            assert parse_jsonl(write_jsonl(resolved), include_merges=True).commits == \
                loop_parse_jsonl(loop_write_jsonl(resolved), include_merges=True).commits


def test_jsonl_roundtrip_is_identity():
    text = (
        '{"id": "a", "email": "A@X", "name": "A", "ts": 10, "added": 3, "deleted": 1}\n'
        '{"id": "b", "email": "b@x", "name": "B", "ts": 5, "added": 0, "deleted": 0,'
        ' "files": [{"old": "foo", "new": "bar"}]}\n'
    )
    h1 = parse_jsonl(text)
    assert [c.commit_id for c in h1.commits] == ["b", "a"]
    serialized = write_jsonl(h1)
    h2 = parse_jsonl(serialized)
    assert h1.commits == h2.commits
    assert write_jsonl(h2) == serialized


def test_jsonl_bad_line_reports_number():
    with pytest.raises(ParseError) as exc:
        parse_jsonl('{"id": "a", "email": "a@x", "ts": 1}\n{nope}\n')
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
def test_unicode_line_separators_stay_in_their_line(char, tmp_path):
    # str.splitlines() breaks at these, open() and a text editor do not
    jsonl = json.dumps({"id": "a", "email": "a@x", "name": f"A{char}B", "ts": 1},
                       ensure_ascii=False) + "\n"
    log = log_entry("a", "a@x", 1, rows=[(1, 0, "f")], name=f"A{char}B")
    for parse, text in [(parse_jsonl, jsonl), (parse_commit_log, log)]:
        h = parse(text)
        assert [c.raw_name for c in h.commits] == [f"A{char}B"]
        assert parse_jsonl(write_jsonl(h)).commits == h.commits
        src, out = tmp_path / "sep.txt", tmp_path / "out.jsonl"
        src.write_text(text, encoding="utf-8")
        assert main(["ingest", str(src), "-o", str(out)]) == 0
        assert parse_jsonl(out.read_text(encoding="utf-8")).commits == h.commits


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_keep_line_numbers(newline, tmp_path, capsys):
    jsonl = '{"id": "a", "email": "a@x", "ts": 1}\n\n{nope}\n'
    log = log_entry("ok", "a@x", 1) + "\nnot a header\n"
    for parse, text, line in [(parse_jsonl, jsonl, 3), (parse_commit_log, log, 4)]:
        text = text.replace("\n", newline)
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line
        assert len(parse(text.split(newline)[0] + newline)) == 1
        src = tmp_path / "bad.txt"
        src.write_bytes(text.encode())
        assert main(["ingest", str(src)]) == 2
        assert f"error: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_byte_that_is_not_utf8_names_its_line(newline, tmp_path, capsys):
    jsonl = b'{"id": "a", "email": "a@x", "ts": 1}\n{"id": "b", "name": "\xff"}\n'
    log = b"C|a|a@x|A|1|1\n1\t0\tf\xff.py\n\n"
    src = tmp_path / "bad.txt"
    for data, fmt in [(jsonl, "jsonl"), (log, "log")]:
        src.write_bytes(data.replace(b"\n", newline))
        for argv in (["ingest", str(src)], ["ingest", str(src), "--input-format", fmt],
                     ["analyze", str(src), "-o", str(tmp_path)]):
            assert main(argv) == 2
            assert "error: line 2: not UTF-8: byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("files", [
    ["x"],  # not an object
    [{"old": 5, "new": "ab"}],  # not a string
    [{"old": None, "new": "ab"}],
    {"old": "a", "new": "b"},  # not a list
])
def test_jsonl_malformed_payload_rejected(files, tmp_path, capsys):
    text = ('{"id": "a", "email": "a@x", "ts": 1}\n'
            + json.dumps({"id": "b", "email": "a@x", "ts": 2, "files": files}) + "\n")
    with pytest.raises(ParseError) as exc:
        parse_jsonl(text)
    assert "line 2" in str(exc.value)
    src = tmp_path / "bad.jsonl"
    src.write_text(text)
    assert main(["analyze", str(src), "-o", str(tmp_path / "out"),
                 "--measure", "lev"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("field", [
    {"added": None},
    {"ts": None},
    {"email": 5},
    {"added": 1.7},  # not truncated to 1
    {"added": True},  # not read as 1
    {"deleted": "3"},
    {"name": ["x"]},  # not written back as a list
    {"parents": "x"},
    {"parents": False},
    {"id": 7},
    {"ts": "100"},
    {"ts": 10**400},  # an integer too large for a float
    {"parents": -1},
    {"added": 10**400},  # not written back, nor an OverflowError in analyze
    {"added": 10**23},  # not rounded to 99999999999999991611392
    {"added": 2**52, "deleted": 2**52 + 1},  # each exact, the sum is not
    '"added": ' + "9" * 5000,  # past int()'s digit limit; json.dumps refuses it
])
def test_jsonl_malformed_field_rejected(field, tmp_path, capsys):
    record = (json.dumps({"id": "b", "email": "a@x", "ts": 2, **field})
              if isinstance(field, dict) else '{"id": "b", "ts": 2, %s}' % field)
    text = '{"id": "a", "email": "a@x", "ts": 1}\n' + record + "\n"
    with pytest.raises(ParseError) as exc:
        parse_jsonl(text)
    assert "line 2" in str(exc.value)
    src = tmp_path / "bad.jsonl"
    src.write_text(text)
    assert main(["analyze", str(src), "-o", str(tmp_path / "out")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_log_negative_parent_count_rejected(tmp_path, capsys):
    text = log_entry("a", "a@x", 1, rows=[(1, 0, "f")], parents=-3)
    with pytest.raises(ParseError, match="negative parent count") as exc:
        parse_commit_log(text)
    assert exc.value.line == 1
    src = tmp_path / "bad.log"
    src.write_text(text)
    assert main(["ingest", str(src)]) == 2
    assert "line 1: negative parent count -3" in capsys.readouterr().err
    # a root commit (no parents) stays valid in both formats
    root = parse_commit_log(log_entry("a", "a@x", 1, parents=0))
    assert root.commits[0].parent_count == 0
    root = parse_jsonl('{"id": "a", "email": "a@x", "ts": 1, "parents": 0}\n')
    assert root.commits[0].parent_count == 0


def test_log_line_count_past_2_53_rejected(tmp_path, capsys):
    text = log_entry("a", "a@x", 1) + log_entry("b", "b@x", 2, rows=[(10**400, 0, "f")])
    with pytest.raises(ParseError, match="2[*][*]53") as exc:
        parse_commit_log(text)
    assert exc.value.line == 3
    src = tmp_path / "big.log"
    src.write_text(text)
    assert main(["ingest", str(src)]) == 2
    assert "line 3: " in capsys.readouterr().err
    # 2**53 lines in all is still exact
    rows = [(2**52, 0, "f"), (2**52, 0, "g")]
    assert parse_commit_log(log_entry("a", "a@x", 1, rows=rows)).commits[0].lines_added \
        == 2**53


def test_jsonl_null_identity_fields_read_as_empty():
    text = '{"id": "a", "ts": 1, "email": null, "name": "Ann"}\n'
    commit = parse_jsonl(text).commits[0]
    assert (commit.raw_email, commit.raw_name, commit.author.canonical_key) == (
        "", "Ann", "ann")


def test_jsonl_payload_sides_default_to_empty():
    text = '{"id": "a", "ts": 1, "email": "a@x", "files": [{"new": "ab"}, {}]}\n'
    assert parse_jsonl(text).commits[0].diff_payload == (("", "ab"), ("", ""))


def test_case_normalization_merges_identities():
    # emails differing only by case resolve to the same author
    h = make_history([("B@X", 1), ("b@x", 2)])
    resolved = resolve_authors(h)
    assert len(resolved.authors) == 1


def test_alias_map_direct_mapping():
    h = make_history([("B@X", 1)])
    resolved = resolve_authors(h, alias_map={"b@x": "bob@y"})
    assert resolved.commits[0].author == AuthorId("bob@y")


def test_alias_map_chain_followed():
    h = make_history([("a@x", 1)])
    resolved = resolve_authors(h, alias_map={"a@x": "b@x", "b@x": "c@x"})
    assert resolved.commits[0].author == AuthorId("c@x")


def test_cyclic_alias_map_rejected():
    h = make_history([("a@x", 1)])
    with pytest.raises(ConfigError):
        resolve_authors(h, alias_map={"a@x": "b@x", "b@x": "a@x"})


@pytest.mark.parametrize("alias_map, named", [
    (["a"], "got list"),  # not an object
    ({"a@x": 5}, "'a@x' -> 5"),  # not read as "5"
    ({"a@x": None}, "'a@x' -> None"),  # not read as "none"
])
def test_malformed_alias_map_rejected(alias_map, named, tmp_path, capsys):
    h = make_history([("a@x", 1)])
    with pytest.raises(ConfigError, match=named):
        resolve_authors(h, alias_map=alias_map)
    src, aliases = tmp_path / "h.jsonl", tmp_path / "aliases.json"
    src.write_text(write_jsonl(h))
    aliases.write_text(json.dumps(alias_map))
    assert main(["ingest", str(src), "--alias-map", str(aliases)]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"a@x": ', None, b"\xff"],
                         ids=["not-json", "missing", "not-utf8"])
def test_unreadable_alias_map_is_a_config_error(content, tmp_path, capsys):
    src, aliases = tmp_path / "h.jsonl", tmp_path / "aliases.json"
    src.write_text(write_jsonl(make_history([("a@x", 1)])))
    if isinstance(content, str):
        aliases.write_text(content)
    elif content is not None:
        aliases.write_bytes(content)
    assert main(["ingest", str(src), "--alias-map", str(aliases)]) == 1
    assert capsys.readouterr().err.startswith(f"error: alias map {aliases}: ")


def test_author_count_conservation(rng):
    # oracle: direct per-author tally sums to total commit count
    for _ in range(10):
        h = random_history(rng, n_commits=40, n_authors=6)
        alias = {f"dev{i}@x": f"group{i % 2}@x" for i in range(rng.randrange(0, 6))}
        resolved = resolve_authors(h, alias_map=alias)
        counts = resolved.commits_per_author()
        assert sum(counts.values()) == len(h)


def test_ten_commits_three_identities():
    specs = [("a@x", i) for i in range(5)] + [("b@x", i + 10) for i in range(3)]
    specs += [("c@x", 20), ("c@x", 21)]
    counts = resolve_authors(make_history(specs)).commits_per_author()
    assert sorted(counts.values()) == [2, 3, 5]
    assert sum(counts.values()) == 10


def test_drop_authors_removes_bots():
    h = make_history([("bot@ci", 1), ("dev@x", 2)])
    resolved = resolve_authors(h, drop_authors=["bot@ci"])
    assert [c.author.canonical_key for c in resolved.commits] == ["dev@x"]


_KEYS = ["a@x", "b@x", "c@x", "ann", "bob", "old@x", "new@y", "bot@ci"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "a@x", " A@X", "b@x", "old@x", "bot@ci"]),
                          st.sampled_from(["", "Ann", "bob"]),
                          st.integers(0, 50)), min_size=1, max_size=30),
       st.dictionaries(st.sampled_from(_KEYS), st.sampled_from(_KEYS), max_size=3),
       st.lists(st.sampled_from(["bot@ci", "c@x", "new@y", "ann"]), max_size=2))
def test_resolve_authors_matches_loop_oracle(rows, alias_map, drop):
    commits = [CommitRecord(f"c{i}", AuthorId.from_raw(email, name), float(ts), 1, 0,
                            raw_email=email, raw_name=name)
               for i, (email, name, ts) in enumerate(rows) if email or name]
    h = ProjectHistory.build("h", commits)
    try:
        expected = loop_resolve_authors(h, alias_map, drop)
    except ConfigError:
        with pytest.raises(ConfigError):
            resolve_authors(h, alias_map, drop)
        return
    resolved = resolve_authors(h, alias_map, drop)
    assert resolved.commits == expected.commits


def test_resolve_authors_returns_unaliased_records_themselves(rng):
    # unaliased, the history itself comes back; aliased, its rows equal the
    # oracle's, and neither call makes a CommitRecord
    h = parse_jsonl(write_jsonl(random_history(rng, n_commits=200, n_authors=12)))
    with no_rows():
        resolved = resolve_authors(h)
        aliased = resolve_authors(h, alias_map={"dev0@x": "dev1@x"})
    assert resolved is h
    assert aliased.commits == loop_resolve_authors(h, {"dev0@x": "dev1@x"}).commits
    for before, after in zip(h.commits, aliased.commits):
        assert (after.author == before.author) == (before.raw_email != "dev0@x")


def test_parsers_share_one_author_id_per_author():
    emails = ["a@x", "A@X", "b@x", "a@x", " a@x ", "b@x"]
    jsonl = "".join(json.dumps({"id": f"c{i}", "email": e, "ts": i}) + "\n"
                    for i, e in enumerate(emails))
    log = "".join(log_entry(f"c{i}", e, i, rows=[(1, 0, "f")])
                  for i, e in enumerate(emails))
    for h in (parse_jsonl(jsonl), parse_commit_log(log)):
        assert len({id(c.author) for c in h.commits}) == len(h.authors) == 2

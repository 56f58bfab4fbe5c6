"""Core digraph type, formats, and decompositions."""

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from goodpairs import (
    Digraph,
    Dipath,
    MAX_VERTICES,
    ParseError,
    bits,
    independence_number,
    induced_subdigraph,
    mask_of,
    parse_digraph,
    reverse,
    serialize_digraph,
    sniff_format,
    strong_decomposition,
    verify_dipath,
)
from goodpairs.digraph import from_arcs

from oracles import closure_sccs, independent_set_size, rand_digraph

BI3 = Digraph(3, (0b110, 0b101, 0b011))
C3 = Digraph(3, (0b010, 0b100, 0b001))


def digraphs(max_n=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(*[st.integers(0, (1 << n) - 1) for _ in range(n)]),
        )
    ).map(lambda t: Digraph(t[0], tuple(row & ~(1 << u) for u, row in enumerate(t[1]))))


@st.composite
def sparse_digraphs(draw, max_n=12):
    """Rows ANDed from two or three random masks: many strong components."""
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1
    rows = []
    for u in range(n):
        row = full & ~(1 << u)
        for _ in range(draw(st.integers(2, 3))):
            row &= draw(st.integers(0, full))
        rows.append(row)
    return Digraph(n, tuple(rows))


def _closure_reach(d):
    """Reach sets by repeated row union to a fixpoint, no BFS."""
    reach = [d.out_adj[u] | 1 << u for u in range(d.n)]
    changed = True
    while changed:
        changed = False
        for u in range(d.n):
            grown = reach[u]
            for v in bits(reach[u]):
                grown |= reach[v]
            if grown != reach[u]:
                reach[u], changed = grown, True
    return reach


class TestDigraph:
    def test_basic_accessors(self):
        assert BI3.n == 3
        assert BI3.m == 6
        assert BI3.full_mask == 0b111
        assert BI3.has_arc(0, 1) and not C3.has_arc(1, 0)
        assert list(C3.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert C3.out_degree(0) == 1 and C3.in_degree(0) == 1
        assert BI3.in_adj() == (0b110, 0b101, 0b011)

    def test_validation(self):
        with pytest.raises(ValueError):
            Digraph(0, ())
        with pytest.raises(ValueError):
            Digraph(MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1))
        with pytest.raises(ValueError):
            Digraph(2, (0,))
        with pytest.raises(ValueError):
            Digraph(2, (0b100, 0))
        with pytest.raises(ValueError):
            Digraph(2, (0b01, 0))  # loop at 0

    def test_list_rows_are_frozen(self):
        rows = [0b10, 0b01]
        d = Digraph(2, rows)
        assert d == Digraph(2, (0b10, 0b01))
        assert hash(d) == hash(Digraph(2, (0b10, 0b01)))
        assert {d: 1}[Digraph(2, (0b10, 0b01))] == 1
        rows[0] = 0b01  # a loop, had the list been kept
        assert d.out_adj == (0b10, 0b01)
        with pytest.raises(TypeError):
            d.out_adj[0] = 0b01

    def test_fields_are_n_and_rows(self):
        assert [f.name for f in dataclasses.fields(Digraph)] == ["n", "out_adj"]
        with pytest.raises(TypeError):
            from_arcs(2, [(0, 1)], "named")

    def test_from_arcs(self):
        assert from_arcs(3, [(0, 1), (1, 2), (2, 0)]) == C3
        with pytest.raises(ValueError):
            from_arcs(2, [(0, 0)])
        with pytest.raises(ValueError):
            from_arcs(2, [(0, 2)])

    def test_mask_helpers(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(bits(0b100101)) == [0, 2, 5]
        assert list(bits(0)) == []


class TestDipath:
    def test_arcs_and_verify(self):
        p = Dipath((0, 1, 2))
        assert p.arcs() == [(0, 1), (1, 2)]
        assert len(p) == 3
        assert verify_dipath(C3, p) is None
        assert verify_dipath(C3, Dipath((0, 2))) == "missing arc (0, 2)"
        assert verify_dipath(C3, Dipath((0, 1, 0))) == "vertex 0 repeated"
        assert verify_dipath(C3, Dipath((0, 5))) == "vertex 5 out of range"

    def test_closed_cycle(self):
        c = Dipath((0, 1, 2), closed=True)
        assert c.arcs() == [(0, 1), (1, 2), (2, 0)]
        assert verify_dipath(C3, c) is None


class TestEdgeListFormat:
    def test_serialize(self):
        assert serialize_digraph(C3) == "3\n0 1\n1 2\n2 0\n"

    def test_round_trip(self):
        assert parse_digraph(serialize_digraph(BI3)) == BI3

    def test_blank_lines_ignored(self):
        assert parse_digraph("3\n\n0 1\n\n1 2\n2 0\n\n") == C3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty input"),
            ("99\n", "line 1"),
            ("3\n0\n", "line 2"),
            ("3\n0 one\n", "line 2"),
            ("3\n0 3\n", "line 2"),
            ("3\n1 1\n", "line 2: loop"),
            ("3\n0 1\n4 0\n", "line 3"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_digraph(text)

    def test_bad_header_with_explicit_format(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_digraph("x\n0 1\n", "edge-list")

    def test_blanks_around_tokens_and_crlf(self):
        assert parse_digraph(" 3 \r\n0\t 1\r\n 1 2\n2 0 \n") == C3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            # int() reads each of these as the number it resembles
            ("3\n0 0_1\n1 0\n1 2\n2 1\n", "line 2: expected integers"),
            ("3\n0 \u0661\n1 0\n", "line 2: expected integers"),
            ("3\n0 +1\n", "line 2: expected integers"),
            ("3\n0 \uff11\n", "line 2: expected integers"),
            ("3\n0 1\n1\u00a02\n", "line 3: expected 'u v'"),
            ("3\n0 1\n1\u20032\n", "line 3: expected 'u v'"),
            ("3\n0 1\n1 2\x0c\n", "line 3: expected integers"),
            ("\u0663\n0 1\n", "line 1: cannot determine format"),
            ("\n\n\u0663\n0 1\n", "line 3: cannot determine format"),
            ("3_0\n0 1\n", "line 1: expected vertex count"),
            ("3\u00a0\n0 1\n", "line 1: expected vertex count"),
        ],
    )
    def test_one_spelling_per_number(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_digraph(text)

    @pytest.mark.parametrize("head", ["+3", "\u0663", "3.0", " 3_0"])
    def test_vertex_count_ascii_digits_only(self, head):
        with pytest.raises(ParseError, match="line 1"):
            parse_digraph(f"{head}\n0 1\n", "edge-list")


class TestDigraph6Format:
    def test_frozen_example(self):
        # bidirected triangle: rows 011 101 110 -> bits 011101110, padded,
        # grouped into 29 and 48, offset by 63
        assert serialize_digraph(BI3, "digraph6") == "&B\\o"
        assert parse_digraph("&B\\o") == BI3

    def test_header_accepted(self):
        assert parse_digraph(">>digraph6<<&B\\o") == BI3

    def test_sniffing(self):
        assert sniff_format("&B\\o") == "digraph6"
        assert sniff_format(">>digraph6<<&B\\o") == "digraph6"
        assert sniff_format("3\n0 1\n") == "edge-list"
        with pytest.raises(ParseError):
            sniff_format("hello")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("B\\o", "missing '&'"),
            ("&", "vertex count"),
            ("&B\\", "data bytes"),
            ("&B\\oo", "data bytes"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_digraph(text, "digraph6")

    def test_nonzero_padding_rejected(self):
        # n=2 has 4 matrix bits and 2 padding bits: "W" is 011000, "X" is
        # 011001 with a padding bit set, which used to parse equal to "W"
        assert parse_digraph("&AW") == Digraph(2, (0b10, 0b01))
        with pytest.raises(ParseError, match="line 1: digraph6: nonzero padding"):
            parse_digraph("&AX")
        with pytest.raises(ParseError, match="line 2: digraph6: nonzero padding"):
            parse_digraph("\n>>digraph6<<&AX\n")

    def test_loop_bit_rejected(self):
        # n=2 with the (0,0) matrix bit set: bits 1000 -> group 100000 = 32
        with pytest.raises(ParseError, match="loop"):
            parse_digraph("&A" + chr(32 + 63))

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 20)
            d = rand_digraph(rng, n, rng.random())
            for fmt in ("edge-list", "digraph6"):
                assert parse_digraph(serialize_digraph(d, fmt), fmt) == d


class TestOperations:
    def test_reverse(self):
        assert reverse(C3) == Digraph(3, (0b100, 0b001, 0b010))
        assert reverse(reverse(C3)) == C3
        assert reverse(BI3) == BI3

    def test_induced(self):
        d = from_arcs(4, [(0, 2), (2, 3), (3, 0), (1, 3)])
        h, vmap = induced_subdigraph(d, 0b1101)
        assert vmap == (0, 2, 3)
        assert h == from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            induced_subdigraph(d, 0)
        with pytest.raises(ValueError):
            induced_subdigraph(d, 1 << 5)

    def test_induced_retains_no_tuples(self):
        """vmap is built at its exact length: a tuple resized while it is
        built from a generator stays on CPython's free list for its final
        length once freed, so 5,000 subsets used to retain ~4,100 blocks."""
        rng = random.Random(20)
        hosts = [rand_digraph(rng, 20, 0.5) for _ in range(10)]

        def run(calls):
            for _ in range(calls):
                induced_subdigraph(rng.choice(hosts), rng.getrandbits(20) | 1)

        run(5000)
        before = sys.getallocatedblocks()
        run(5000)
        assert sys.getallocatedblocks() - before < 500

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_scc_matches_closure_oracle(self, d):
        dec = strong_decomposition(d)
        assert set(dec.components) == closure_sccs(d)
        # topological order: arcs never go to an earlier component
        for u, v in d.arcs():
            assert dec.comp_id[u] <= dec.comp_id[v]

    @given(sparse_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_flags_ids_and_order(self, d):
        dec = strong_decomposition(d)
        reach = _closure_reach(d)
        comps = closure_sccs(d)
        assert len(dec.comp_id) == d.n
        for c, comp in enumerate(dec.components):
            assert all(dec.comp_id[v] == c for v in bits(comp))
            outside = d.full_mask & ~comp
            enters = any(d.out_adj[u] & comp for u in bits(outside))
            leaves = any(d.out_adj[u] & outside for u in bits(comp))
            assert dec.initial[c] == (not enters)
            assert dec.terminal[c] == (not leaves)
        # falling reach size, ties by lowest member
        size = {c: reach[(c & -c).bit_length() - 1].bit_count() for c in comps}
        assert list(dec.components) == sorted(comps, key=lambda c: (-size[c], c & -c))

    def test_initial_terminal_flags(self):
        d = from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        dec = strong_decomposition(d)
        assert dec.initial_components() == [0b0011]
        assert dec.terminal_components() == [0b1100]

    def test_single_vertex(self):
        d = Digraph(1, (0,))
        dec = strong_decomposition(d)
        assert dec.components == (1,)
        assert dec.initial == (True,) and dec.terminal == (True,)

    @given(digraphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_independence_number_vs_oracle(self, d):
        assert independence_number(d) == independent_set_size(d)

    def test_independence_number_guard(self):
        with pytest.raises(ValueError):
            independence_number(Digraph(33, (0,) * 33))

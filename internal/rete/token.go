// Package rete implements the parallel Rete match network of PSM-E: a
// constant-test (alpha) network compiled from condition elements, two-input
// join/not nodes whose memories live in two global hash tables with
// per-line counted spin locks, Soar conjunctive-negation (NCC) node pairs,
// production (P) nodes feeding a conflict set, node-activation tasks for a
// parallel runtime, run-time production addition with node sharing, and the
// paper's run-time state-update algorithm for newly added productions.
package rete

import (
	"fmt"
	"strings"

	"soarpsme/internal/wme"
)

// Token is a partial instantiation (PI): the wmes matched so far by a
// production prefix. Tokens are immutable and form either a linear chain
// (Parent + W, the paper's network) or a pair tree (L ⋈ R, produced by the
// beta×beta joins of the constrained bilinear organization, Figure 6-8).
//
// Each wme in a token is tagged with the index of the positive condition
// element it matched, so right-hand sides and join tests can address "the
// wme matching CE k" regardless of network shape.
type Token struct {
	parent *Token   // linear extension (nil for pair tokens and the dummy)
	l, r   *Token   // pair combination (bilinear networks)
	w      *wme.WME // the wme added by this extension (linear only)
	ce     int16    // positive-CE index of W
	n      int16    // total number of wmes in the token
	hash   uint64
}

// DummyTop is the distinguished empty token that primes the left memory of
// first-CE join nodes (the paper's "top node" state).
var DummyTop = &Token{n: 0, hash: 0x5bd1e9955bd1e995}

// Extend returns the linear token t + (ce, w).
func Extend(t *Token, ce int, w *wme.WME) *Token {
	e := new(Token)
	*e = extension(t, ce, w)
	return e
}

// extension is the value of the linear token t + (ce, w).
func extension(t *Token, ce int, w *wme.WME) Token {
	return Token{parent: t, w: w, ce: int16(ce), n: t.n + 1, hash: t.hash ^ mixWME(ce, w)}
}

// ref is a token as an activation carries it. With w nil it is tok itself:
// an add always carries its token so, because every child stores it and the
// emitter materializes it once for all of them. A remove of a linear
// extension carries the stored parent tok plus the (ce, w) it extends
// (paper §2.3 sends a copy of the token; here the copy is named, not
// built): a child only finds the stored entry and continues from that.
type ref struct {
	tok *Token
	w   *wme.WME
	ce  int16
}

// probe returns the token r names, building an unmaterialized extension in
// buf: a probe is compared (Token.Equal) and hashed, never stored.
func (r ref) probe(buf *Token) *Token {
	if r.w == nil {
		return r.tok
	}
	*buf = extension(r.tok, int(r.ce), r.w)
	return buf
}

// token returns the token r names, materializing an extension. A remove
// needs one only where a token is stored or paired: the tombstone it
// leaves when it overtakes its add, and a bilinear pair join.
func (r ref) token() *Token {
	if r.w == nil {
		return r.tok
	}
	return Extend(r.tok, int(r.ce), r.w)
}

// pair combines two tokens that matched disjoint CE sets (bilinear join).
func pair(l, r *Token) *Token {
	return &Token{l: l, r: r, n: l.n + r.n, hash: l.hash ^ r.hash ^ 0x2545f4914f6cdd1d}
}

// mixWME hashes one (ce, wme) pair; XOR-combining the per-pair hashes makes
// the token hash independent of network shape.
func mixWME(ce int, w *wme.WME) uint64 {
	h := w.ID*0x9e3779b97f4a7c15 + uint64(ce)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Hash returns the structure-independent token hash.
func (t *Token) Hash() uint64 { return t.hash }

// WMEAt returns the wme matching positive CE index ce, or nil.
func (t *Token) WMEAt(ce int) *wme.WME {
	for t != nil {
		if t.l != nil {
			if w := t.l.WMEAt(ce); w != nil {
				return w
			}
			t = t.r
			continue
		}
		if int(t.ce) == ce {
			return t.w
		}
		t = t.parent
	}
	return nil
}

// appendPairs collects the token's (ce, wme) pairs into buf.
func (t *Token) appendPairs(buf []cePair) []cePair {
	for t != nil {
		if t.l != nil {
			buf = t.l.appendPairs(buf)
			t = t.r
			continue
		}
		if t.w != nil {
			buf = append(buf, cePair{t.ce, t.w})
		}
		t = t.parent
	}
	return buf
}

type cePair struct {
	ce int16
	w  *wme.WME
}

// Equal reports whether two tokens bind the same wmes to the same CEs,
// regardless of internal shape.
func (t *Token) Equal(o *Token) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.n != o.n || t.hash != o.hash {
		return false
	}
	if eq, ok := linearEqual(t, o); ok {
		return eq
	}
	var ba, bb [24]cePair
	a := t.appendPairs(ba[:0])
	b := o.appendPairs(bb[:0])
	if len(a) != len(b) {
		return false
	}
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i].ce != b[i].ce || a[i].w.ID != b[i].w.ID {
			return false
		}
	}
	return true
}

// linearEqual compares two linear chains positionally, without allocating.
// ok=false means the result is inconclusive — a pair token, or the same
// bindings in a different chain order — and the caller must fall back to
// the order-insensitive comparison. Equal chains are the overwhelmingly
// common case: tokens under comparison come from the same join lineage.
func linearEqual(a, b *Token) (eq, ok bool) {
	for {
		if a == b { // shared suffix (or both exhausted)
			return true, true
		}
		if a == nil || b == nil || a.l != nil || b.l != nil {
			return false, false
		}
		if a.ce != b.ce || a.w != b.w {
			return false, false
		}
		a, b = a.parent, b.parent
	}
}

// sortPairs is an insertion sort: pair lists are bounded by a production's
// CE count, and avoiding sort.Slice keeps the match hot path free of its
// reflection allocations.
func sortPairs(p []cePair) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0; j-- {
			if p[j].ce > p[j-1].ce || (p[j].ce == p[j-1].ce && p[j].w.ID >= p[j-1].w.ID) {
				break
			}
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// WMEs returns the token's wmes ordered by CE index (an OPS5 instantiation).
func (t *Token) WMEs() []*wme.WME {
	if t == nil || t.n == 0 {
		return nil
	}
	var buf [24]cePair
	pairs := t.appendPairs(buf[:0])
	sortPairs(pairs)
	out := make([]*wme.WME, len(pairs))
	for i, p := range pairs {
		out[i] = p.w
	}
	return out
}

// String renders the token's wme IDs for debugging.
func (t *Token) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.n == 0 {
		return "<top>"
	}
	ws := t.WMEs()
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprintf("w%d", w.ID)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

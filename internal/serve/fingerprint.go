package serve

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"soarpsme/internal/conflict"
	"soarpsme/internal/engine"
)

// fpIndex is a conflict set in wire form: one rendered line per
// instantiation — production name plus its wme time tags in CE order,
// "name(t1,t2,…)" — kept sorted, duplicates included. Rendering the
// fingerprint from it is one pass and one allocation; keeping it current
// costs what the conflict set's journal reports changed, not what the set
// holds.
type fpIndex struct {
	lines []string
	bytes int    // total length of lines
	buf   []byte // scratch: the line being rendered
}

func appendInst(b []byte, in *conflict.Instantiation) []byte {
	b = append(b, in.Prod.Name...)
	b = append(b, '(')
	for i, w := range in.WMEs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, w.TimeTag, 10)
	}
	return append(b, ')')
}

// rebuild replaces the index with the rendering of insts.
func (ix *fpIndex) rebuild(insts []*conflict.Instantiation) {
	ix.lines, ix.bytes = ix.lines[:0], 0
	for _, in := range insts {
		ix.buf = appendInst(ix.buf[:0], in)
		ix.lines = append(ix.lines, string(ix.buf))
		ix.bytes += len(ix.buf)
	}
	sort.Strings(ix.lines)
}

// apply folds one drained journal window (conflict.Set.Drain) into the
// index. It reports false when a retracted instantiation has no line —
// the index was not current as of the previous drain — leaving the index
// for the caller to rebuild.
func (ix *fpIndex) apply(added, retracted []*conflict.Instantiation) bool {
	for _, in := range retracted {
		ix.buf = appendInst(ix.buf[:0], in)
		i := sort.Search(len(ix.lines), func(i int) bool { return ix.lines[i] >= string(ix.buf) })
		if i == len(ix.lines) || ix.lines[i] != string(ix.buf) {
			return false
		}
		ix.lines = slices.Delete(ix.lines, i, i+1)
		ix.bytes -= len(ix.buf)
	}
	for _, in := range added {
		ix.buf = appendInst(ix.buf[:0], in)
		line := string(ix.buf)
		ix.lines = slices.Insert(ix.lines, sort.SearchStrings(ix.lines, line), line)
		ix.bytes += len(line)
	}
	return true
}

// render returns the canonical fingerprint of the indexed conflict set
// beside a working memory of wm elements: "wm=W cs=N " then the lines,
// space-separated.
func (ix *fpIndex) render(wm int) string {
	var hdr [48]byte
	h := append(hdr[:0], "wm="...)
	h = strconv.AppendInt(h, int64(wm), 10)
	h = append(h, " cs="...)
	h = strconv.AppendInt(h, int64(len(ix.lines)), 10)
	h = append(h, ' ')
	var b strings.Builder
	b.Grow(len(h) + ix.bytes + len(ix.lines))
	b.Write(h)
	for i, line := range ix.lines {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(line)
	}
	return b.String()
}

// Fingerprint renders an engine's match state canonically: WM size,
// conflict-set size, and every instantiation as production name plus its
// wme time tags, sorted. Two engines that matched the same workload produce
// byte-identical fingerprints regardless of worker count, policy, or
// recovery path — the serving layer's conformance contract. This is the
// from-scratch form the serial references use; a Session maintains the same
// index incrementally (Session.fingerprint) and renders it the same way.
func Fingerprint(e *engine.Engine) string {
	var ix fpIndex
	ix.rebuild(e.CS.All())
	return ix.render(e.WM.Len())
}

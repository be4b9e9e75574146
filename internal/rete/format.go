package rete

import (
	"fmt"
	"sort"
	"strings"

	"soarpsme/internal/value"
)

// FormatNetwork renders the beta network as an indented tree (the shape of
// the paper's Figure 2-2): each two-input node with its right input's
// alpha-test path and its join tests, down to the P nodes. Shared nodes
// (reached from several productions) are annotated with their reference
// count.
func (nw *Network) FormatNetwork() string {
	nw.mu.Lock()
	tops := append([]*BetaNode(nil), nw.childrenOf(nil)...)
	classOf := map[NodeID]string{}
	for _, roots := range []map[value.Sym]*AlphaNode{nw.base.roots, nw.own.roots} {
		for cls, root := range roots {
			nw.collectAlphaPaths(nw.Tab.Name(cls), root, "", classOf)
		}
	}
	nw.mu.Unlock()

	var sb strings.Builder
	seen := map[NodeID]bool{}
	var rec func(n *BetaNode, depth int)
	rec = func(n *BetaNode, depth int) {
		indent := strings.Repeat("  ", depth)
		if seen[n.ID] {
			fmt.Fprintf(&sb, "%s^ %s (shared, see above)\n", indent, n)
			return
		}
		seen[n.ID] = true
		switch n.Kind {
		case KindP:
			fmt.Fprintf(&sb, "%sP %s\n", indent, n.Prod.Name)
		case KindJoin, KindNot:
			right := classOf[n.Alpha.ID]
			shared := ""
			if n.refs > 1 {
				shared = fmt.Sprintf("  [shared x%d]", n.refs)
			}
			fmt.Fprintf(&sb, "%s%s#%d  right=(%s)%s%s\n",
				indent, n.Kind, n.ID, right, formatJoinTests(n.Tests), shared)
		case KindNCC:
			fmt.Fprintf(&sb, "%sncc#%d (absence of the sub-chain below partner#%d)\n",
				indent, n.ID, n.Partner.ID)
		case KindNCCPartner:
			fmt.Fprintf(&sb, "%spartner#%d -> ncc#%d\n", indent, n.ID, n.Partner.ID)
		case KindJoinBB:
			fmt.Fprintf(&sb, "%sand-bb#%d (pair join, context depth %d)\n", indent, n.ID, n.BranchN)
		}
		for _, c := range nw.childrenOf(n) {
			rec(c, depth+1)
		}
	}
	sb.WriteString("Root\n")
	sort.Slice(tops, func(i, j int) bool { return tops[i].ID < tops[j].ID })
	for _, t := range tops {
		rec(t, 1)
	}
	return sb.String()
}

// collectAlphaPaths maps every alpha-memory ID to its readable test path,
// descending into what the own layer spliced under base nodes as well.
func (nw *Network) collectAlphaPaths(prefix string, n *AlphaNode, path string, out map[NodeID]string) {
	if n.Test.Pred != 0 || n.Test.Val != (value.Value{}) || n.Test.VsField || n.Test.Disj != nil {
		path += " " + formatAlphaTest(nw.Tab, n.Test)
	}
	for _, am := range []*AlphaMem{n.Mem, nw.own.alphaMemAt[n.ID]} {
		if am != nil {
			out[am.ID] = prefix + path
		}
	}
	for _, c := range n.Children {
		nw.collectAlphaPaths(prefix, c, path, out)
	}
	for _, c := range nw.own.alphaKids[n.ID] {
		nw.collectAlphaPaths(prefix, c, path, out)
	}
}

func formatAlphaTest(tab *value.Table, t AlphaTest) string {
	if t.Disj != nil {
		parts := make([]string, len(t.Disj))
		for i, d := range t.Disj {
			parts[i] = tab.Format(d)
		}
		return fmt.Sprintf("f%d in {%s}", t.Field, strings.Join(parts, " "))
	}
	if t.VsField {
		return fmt.Sprintf("f%d %v f%d", t.Field, t.Pred, t.Other)
	}
	return fmt.Sprintf("f%d %v %s", t.Field, t.Pred, tab.Format(t.Val))
}

func formatJoinTests(tests []JoinTest) string {
	if len(tests) == 0 {
		return ""
	}
	parts := make([]string, len(tests))
	for i, t := range tests {
		parts[i] = fmt.Sprintf("r.f%d %v ce%d.f%d", t.RightField, t.Pred, t.LeftCE, t.LeftField)
	}
	return "  tests[" + strings.Join(parts, ", ") + "]"
}

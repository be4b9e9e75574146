package rete

import (
	"slices"
	"sync/atomic"

	"soarpsme/internal/spin"
	"soarpsme/internal/wme"
)

// Mem is the pair of global token hash tables of PSM-E (§6.1): one table
// for all left memories, one for all right memories, physically fused so
// that a "line" is the pair of corresponding left/right buckets guarded by
// a single counted spin lock — taken once a cycle is shared; a process
// running its cycle alone has the whole table to itself (emitter.lock).
//
// Entries are keyed by (destination two-input node ID, hash of the
// variable bindings tested for equality at that node) — the paper's hash
// function — so one line holds exactly the candidates a join activation
// must examine, and the insert-then-scan discipline under the line lock
// guarantees each left/right pairing is discovered exactly once no matter
// how activations interleave.
//
// Deletes that arrive before their corresponding adds (the conjugate-pair
// problem of parallel Rete) leave a tombstone that annihilates the add.
type Mem struct {
	lines []line
	mask  uint64
	nc    *nodeCounts
	// left and right are the run's bucket accesses, skipped the line-lock
	// acquisitions a process running its cycle alone did not make: each
	// process's tallies, added once per cycle (Network.Publish).
	left, right, skipped atomic.Uint64
}

// nodeCount is one node's pair of live-entry counters, padded out to its
// own cache line. The pair is the unlink fast path's suppression snapshot:
// both sides of a node live on one line, so a suppression check is one
// line load, and no other node's insert/remove traffic can invalidate it —
// with the old packed []atomic.Int32 layout, 16 nodes shared a line and
// every memory op anywhere bounced the snapshot lines of 15 bystanders.
type nodeCount struct {
	left  atomic.Int32
	right atomic.Int32
	_     [56]byte
}

// nodeCounts tracks the number of live (non-tombstone) left and right
// entries per destination node — the unlinking counters. Tombstone traffic
// never touches them: a conjugate remove/add pair nets zero live entries,
// so it nets zero here too. Slots are indexed by NodeID; the slice is
// grown only at quiescence (AddProduction holds the network mutex with no
// activation in flight), so the match phase reads and updates slots with
// atomics and never reallocates.
type nodeCounts struct {
	slots []nodeCount
}

// grow ensures n slots exist, covering node IDs below n. Quiescence only
// (the network mutex serializes it against AddProduction): existing slot
// values are copied without synchronization against concurrent updates.
func (c *nodeCounts) grow(n int) {
	if n <= len(c.slots) {
		return
	}
	size := len(c.slots) * 2
	if size < n {
		size = n
	}
	slots := make([]nodeCount, size)
	for i := range c.slots {
		slots[i].left.Store(c.slots[i].left.Load())
		slots[i].right.Store(c.slots[i].right.Load())
	}
	c.slots = slots
}

func (c *nodeCounts) incLeft(id NodeID) {
	if int(id) < len(c.slots) {
		c.slots[id].left.Add(1)
	}
}

func (c *nodeCounts) decLeft(id NodeID) {
	if int(id) < len(c.slots) {
		c.slots[id].left.Add(-1)
	}
}

func (c *nodeCounts) incRight(id NodeID) {
	if int(id) < len(c.slots) {
		c.slots[id].right.Add(1)
	}
}

func (c *nodeCounts) decRight(id NodeID) {
	if int(id) < len(c.slots) {
		c.slots[id].right.Add(-1)
	}
}

// leftCount returns the number of live left entries (tokens) stored at
// node. The value is exact under the node's line locks: every mutation
// happens inside a Line critical section, so a reader holding the line a
// prospective match would share sees a count consistent with that line's
// contents. Unlocked reads are a heuristic (see the unlink fast path).
func (m *Mem) leftCount(node NodeID) int32 {
	if int(node) < len(m.nc.slots) {
		return m.nc.slots[node].left.Load()
	}
	return 0
}

// rightCount returns the number of live right entries (wmes or NCC
// sub-results) stored at node. Same exactness contract as leftCount.
func (m *Mem) rightCount(node NodeID) int32 {
	if int(node) < len(m.nc.slots) {
		return m.nc.slots[node].right.Load()
	}
	return 0
}

// purgeCounts zeroes node's live-entry counters (excision removes every
// entry for the node; quiescence only).
func (m *Mem) purgeCounts(node NodeID) {
	if int(node) < len(m.nc.slots) {
		m.nc.slots[node].left.Store(0)
		m.nc.slots[node].right.Store(0)
	}
}

// line is one lockable left/right bucket pair. Each side holds its entries
// by value, oldest first: an insert appends, and every scan walks from the
// end, so entries are visited newest first. A removal shifts the tail down
// (order never changes) and clears the vacated slot, so a removed entry
// pins no token or wme. A pointer to an entry (findLeft, eachLeft,
// eachRight) is valid only while the caller holds the line: the next
// insert may move the array and the next removal shifts it.
type line struct {
	lock  spin.Lock
	nc    *nodeCounts
	left  []lEntry
	right []rEntry
	// leftAccesses counts left-token accesses this cycle (Figure 6-2).
	leftAccesses uint32
}

// touchLeft counts a left access on the line's per-cycle counter and in
// the accessing process's run-cumulative tally, touchRight a right access
// in the tally (caller holds the line, see emitter.lock).
func (l *line) touchLeft(p *Proc) {
	l.leftAccesses++
	p.tally.left++
}

func (l *line) touchRight(p *Proc) { p.tally.right++ }

// lEntry is a left-memory entry: a token stored at a two-input node. count
// is used by not/NCC nodes (number of blocking right matches). tomb marks
// a pending delete awaiting its add. 32 bytes.
type lEntry struct {
	key   uint64
	tok   *Token
	node  NodeID
	count int32
	tomb  bool
}

// rEntry is a right-memory entry: a wme (join/not right input) or an NCC
// subnetwork result (owner + sub token). 40 bytes.
type rEntry struct {
	key   uint64
	w     *wme.WME
	owner *Token // NCC partner results
	sub   *Token
	node  NodeID
	tomb  bool
}

// newMem allocates a table with the given number of lines (rounded up to a
// power of two; minimum 16).
func newMem(lines int) *Mem {
	n := 16
	for n < lines {
		n <<= 1
	}
	m := &Mem{lines: make([]line, n), mask: uint64(n - 1), nc: &nodeCounts{}}
	for i := range m.lines {
		m.lines[i].nc = m.nc
	}
	return m
}

// line returns the line for (node, key). The node ID participates in line
// selection, per the paper's hash function.
func (m *Mem) line(node NodeID, key uint64) *line {
	return &m.lines[m.lineIndex(node, key)]
}

func (m *Mem) lineIndex(node NodeID, key uint64) uint64 {
	h := key ^ (uint64(node) * 0x9e3779b97f4a7c15)
	h ^= h >> 33
	return h & m.mask
}

// firstTouch is the capacity a line side gets on its first insert. Every
// learning solve builds a fresh table whose lines grow from empty; starting
// at four entries skips the one- and two-entry arrays that plain append
// would allocate and copy on the way there.
const firstTouch = 4

// pushLeft and pushRight append one entry (caller holds the line).
func (l *line) pushLeft(e lEntry) {
	if l.left == nil {
		l.left = make([]lEntry, 0, firstTouch)
	}
	l.left = append(l.left, e)
}

func (l *line) pushRight(e rEntry) {
	if l.right == nil {
		l.right = make([]rEntry, 0, firstTouch)
	}
	l.right = append(l.right, e)
}

// ---- left-entry operations (caller holds the line; p is its process) ----

// addLeft inserts tok into node's left memory on l. If a matching tombstone
// is present the add is annihilated: nothing is inserted and annihilated is
// true (the caller must not emit pairings).
func (l *line) addLeft(p *Proc, node NodeID, key uint64, tok *Token, count int32) (annihilated bool) {
	l.touchLeft(p)
	for i := len(l.left) - 1; i >= 0; i-- {
		if e := &l.left[i]; e.tomb && e.node == node && e.key == key && e.tok.Equal(tok) {
			l.left = slices.Delete(l.left, i, i+1)
			return true
		}
	}
	l.pushLeft(lEntry{key: key, tok: tok, node: node, count: count})
	l.nc.incLeft(node)
	return false
}

// removeLeft removes the token r names from node's left memory on l,
// returning the stored token it removed and that entry's blocking count.
// The entry is found by content (Token.Equal against a probe on the stack,
// which a stored extension of r's parent passes on pointer identity). When
// absent, a tombstone holding r's materialized token is inserted and found
// is false.
func (l *line) removeLeft(p *Proc, node NodeID, key uint64, r ref) (stored *Token, count int32, found bool) {
	l.touchLeft(p)
	var buf Token
	probe := r.probe(&buf)
	for i := len(l.left) - 1; i >= 0; i-- {
		if e := &l.left[i]; !e.tomb && e.node == node && e.key == key && e.tok.Equal(probe) {
			stored, count = e.tok, e.count
			l.left = slices.Delete(l.left, i, i+1)
			l.nc.decLeft(node)
			return stored, count, true
		}
	}
	l.pushLeft(lEntry{key: key, tok: r.token(), node: node, tomb: true})
	return nil, 0, false
}

// findLeft returns the live entry for tok at node, if present.
func (l *line) findLeft(node NodeID, key uint64, tok *Token) *lEntry {
	for i := len(l.left) - 1; i >= 0; i-- {
		if e := &l.left[i]; !e.tomb && e.node == node && e.key == key && e.tok.Equal(tok) {
			return e
		}
	}
	return nil
}

// eachLeft calls fn for every live left entry of node with the given key.
func (l *line) eachLeft(p *Proc, node NodeID, key uint64, fn func(*lEntry)) {
	l.touchLeft(p)
	for i := len(l.left) - 1; i >= 0; i-- {
		if e := &l.left[i]; !e.tomb && e.node == node && e.key == key {
			fn(e)
		}
	}
}

// ---- right-entry operations (caller holds the line; p is its process) ----

// addRight inserts a wme right entry, honouring tombstones.
func (l *line) addRight(p *Proc, node NodeID, key uint64, w *wme.WME) (annihilated bool) {
	l.touchRight(p)
	for i := len(l.right) - 1; i >= 0; i-- {
		if e := &l.right[i]; e.tomb && e.node == node && e.key == key && e.w == w {
			l.right = slices.Delete(l.right, i, i+1)
			return true
		}
	}
	l.pushRight(rEntry{key: key, w: w, node: node})
	l.nc.incRight(node)
	return false
}

// removeRight removes a wme right entry or leaves a tombstone.
func (l *line) removeRight(p *Proc, node NodeID, key uint64, w *wme.WME) (found bool) {
	l.touchRight(p)
	for i := len(l.right) - 1; i >= 0; i-- {
		if e := &l.right[i]; !e.tomb && e.node == node && e.key == key && e.w == w {
			l.right = slices.Delete(l.right, i, i+1)
			l.nc.decRight(node)
			return true
		}
	}
	l.pushRight(rEntry{key: key, w: w, node: node, tomb: true})
	return false
}

// addSubResult inserts a token-pair right entry — an NCC partner result or
// a bilinear join's right-side token — honouring tombstones.
func (l *line) addSubResult(p *Proc, node NodeID, key uint64, owner, sub *Token) (annihilated bool) {
	l.touchRight(p)
	for i := len(l.right) - 1; i >= 0; i-- {
		if e := &l.right[i]; e.tomb && e.node == node && e.key == key && e.sub.Equal(sub) && e.owner.Equal(owner) {
			l.right = slices.Delete(l.right, i, i+1)
			return true
		}
	}
	l.pushRight(rEntry{key: key, owner: owner, sub: sub, node: node})
	l.nc.incRight(node)
	return false
}

// removeSubResult removes a token-pair right entry, its sub token named by
// sub as removeLeft names its token, or leaves a tombstone.
func (l *line) removeSubResult(p *Proc, node NodeID, key uint64, owner *Token, sub ref) (found bool) {
	l.touchRight(p)
	var buf Token
	probe := sub.probe(&buf)
	for i := len(l.right) - 1; i >= 0; i-- {
		if e := &l.right[i]; !e.tomb && e.node == node && e.key == key && e.sub != nil && e.sub.Equal(probe) && e.owner.Equal(owner) {
			l.right = slices.Delete(l.right, i, i+1)
			l.nc.decRight(node)
			return true
		}
	}
	l.pushRight(rEntry{key: key, owner: owner, sub: sub.token(), node: node, tomb: true})
	return false
}

// eachRight calls fn for every live right entry of node with the given key.
func (l *line) eachRight(p *Proc, node NodeID, key uint64, fn func(*rEntry)) {
	l.touchRight(p)
	for i := len(l.right) - 1; i >= 0; i-- {
		if e := &l.right[i]; !e.tomb && e.node == node && e.key == key {
			fn(e)
		}
	}
}

// ---- whole-table operations (no activation in flight) ----

// The dumps and purgeNode take no line lock. They run at quiescence, on the
// goroutine that ran the last cycle: no match process is live, and the
// cycle's wait for its helpers (runToQuiescence's wg.Wait) orders every
// helper's writes before them. The others here lock each line: a scrape or
// an audit may call them from another goroutine.

// dumpLeftAt is dumpLeft for a node that keys every token to key: it reads
// that key's line alone, which holds all of them. Quiescence only.
func (m *Mem) dumpLeftAt(node NodeID, key uint64) []*Token {
	i := m.lineIndex(node, key)
	return m.dumpLeft(node, m.lines[i:i+1])
}

// dumpLeft returns every live token stored at node in lines (all of
// m.lines unless every token is on one line), in table order: the run-time
// update algorithm replays the outputs of the last shared node this way.
// The scan stops once it has found as many tokens as node's live-entry
// counter holds, so node must be covered by the counters (nodeCounts.grow)
// — every node of a Network is. It takes no line lock, so it may run only at
// quiescence, when no match process runs (SeedUpdateTasks, excise).
func (m *Mem) dumpLeft(node NodeID, lines []line) []*Token {
	want := int(m.leftCount(node))
	if want == 0 {
		return nil
	}
	out := make([]*Token, 0, want)
	for i := range lines {
		l := &lines[i]
		for i := len(l.left) - 1; i >= 0 && len(out) < want; i-- {
			if e := &l.left[i]; !e.tomb && e.node == node {
				out = append(out, e.tok)
			}
		}
		if len(out) == want {
			break
		}
	}
	return out
}

// dumpRightSubs returns every live sub-result token stored under node
// (NCC partner inputs / bilinear right-side tokens). It takes no line lock,
// so it may run only at quiescence, when no match process runs
// (SeedUpdateTasks).
func (m *Mem) dumpRightSubs(node NodeID) []*Token {
	var out []*Token
	for i := range m.lines {
		l := &m.lines[i]
		for i := len(l.right) - 1; i >= 0; i-- {
			if e := &l.right[i]; !e.tomb && e.node == node && e.sub != nil {
				out = append(out, e.sub)
			}
		}
	}
	return out
}

// Tombstones counts outstanding tombstones; at quiescence it must be zero
// (a nonzero count indicates a lost conjugate pair).
func (m *Mem) Tombstones() int {
	n := 0
	for i := range m.lines {
		l := &m.lines[i]
		l.lock.Lock()
		for i := range l.left {
			if l.left[i].tomb {
				n++
			}
		}
		for i := range l.right {
			if l.right[i].tomb {
				n++
			}
		}
		l.lock.Unlock()
	}
	return n
}

// Entries returns the live (left, right) entry counts.
func (m *Mem) Entries() (left, right int) {
	for i := range m.lines {
		l := &m.lines[i]
		l.lock.Lock()
		for i := range l.left {
			if !l.left[i].tomb {
				left++
			}
		}
		for i := range l.right {
			if !l.right[i].tomb {
				right++
			}
		}
		l.lock.Unlock()
	}
	return
}

// HarvestAccessCounts returns this cycle's per-line left-token access
// counts (nonzero only) and resets them. The distribution over cycles is
// Figure 6-2's bucket-contention measure. Every access writes its line's
// counter, a process running its cycle alone without the lock, so the
// harvest runs at quiescence, when the cycle's writes are ordered before
// it; it takes each line's lock all the same, as it always has, so the
// acquisitions it adds to LockStats do not move.
func (m *Mem) HarvestAccessCounts() []int {
	var out []int
	for i := range m.lines {
		l := &m.lines[i]
		l.lock.Lock()
		if l.leftAccesses > 0 {
			out = append(out, int(l.leftAccesses))
		}
		l.leftAccesses = 0
		l.lock.Unlock()
	}
	return out
}

// Tallies returns the run-cumulative line-lock contention counters and
// the (left, right) bucket access counts. Unlike HarvestAccessCounts it
// resets nothing, so the per-cycle harvest and the observability layer can
// both consume access counts from the same run. It reads only atomics, so
// it may run while a cycle does (a scrape): the access counts and the
// acquisitions skipped by a process alone are exact as of the last
// finished cycle, the lines' own lock counts as of the read.
func (m *Mem) Tallies() (locks spin.Counts, left, right uint64) {
	locks.Spins, locks.Acquires = m.LockStats()
	return locks, m.left.Load(), m.right.Load()
}

// LockStats sums (spins, acquires) over all line locks, counting as an
// acquisition each one a process running its cycle alone skipped: the
// acquires are those of the same schedule with every line locked.
func (m *Mem) LockStats() (spins, acquires uint64) {
	for i := range m.lines {
		s, a := m.lines[i].lock.Stats()
		spins += s
		acquires += a
	}
	return spins, acquires + m.skipped.Load()
}

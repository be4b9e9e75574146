package main

import (
	"hash/fnv"

	"soarpsme/internal/serve"
)

// rng is a xorshift64* generator; every input the benchmark generates
// comes from one, seeded from -seed and the name of the stream it feeds,
// so the same seed always builds the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	s := seed*0x9E3779B97F4A7C15 ^ h.Sum64()
	if s == 0 {
		s = 0x2545F4914F6CDD1D
	}
	r := &rng{s: s}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shape of the ingest stream, the same as serve.IngestScript's: keys come
// from a small alphabet so probes join against several items, one add in
// probeEvery is a probe, and every fourth slot retires the oldest add once
// it is more than serve.IngestRemoveLag slots old.
const (
	ingestKeys       = 5
	ingestProbeEvery = 16
)

// ingestStream builds a seeded delta stream of the serve.IngestScript
// shape. The seed decides which key each add carries and where in each
// block of ingestProbeEvery adds the probe falls; keys are dealt as
// shuffled blocks of the whole alphabet, so every seed's stream holds the
// same number of items per key to within one block and the join work of
// two seeds differs by little. Because a remove only ever names an add at
// least IngestRemoveLag slots back, any batch size up to that lag chops
// the stream into valid requests.
func ingestStream(seed uint64, deltas int) []serve.IngestOp {
	r := newRNG(seed, "ingest")
	out := make([]serve.IngestOp, 0, deltas)
	var addSlot []int // slot of each add, in add order
	oldest := 0
	var keys []int
	nextKey := func() int {
		if len(keys) == 0 {
			keys = r.perm(ingestKeys)
		}
		k := keys[0]
		keys = keys[1:]
		return k
	}
	probeAt := 0
	for g := 0; g < deltas; g++ {
		if g%4 == 3 && oldest < len(addSlot) && addSlot[oldest] < g-serve.IngestRemoveLag {
			out = append(out, serve.IngestOp{Remove: true, AddIdx: oldest})
			oldest++
			continue
		}
		n := len(addSlot)
		if n%ingestProbeEvery == 0 {
			probeAt = r.intn(ingestProbeEvery)
		}
		if n%ingestProbeEvery == probeAt {
			out = append(out, serve.IngestOp{Class: "probe", Fields: []int{nextKey()}})
		} else {
			out = append(out, serve.IngestOp{Class: "item", Fields: []int{nextKey(), g}})
		}
		addSlot = append(addSlot, g)
	}
	return out
}

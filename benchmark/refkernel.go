package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The reference kernel is fixed work that shares no code with the program
// under test. The harness times it between the slices of every timed phase
// and divides the phase's timings by how slow the kernel ran relative to
// refNominal: the reported milliseconds are reference-host milliseconds.
//
// Why normalise: on the 2-core reference VM the same binary on the same
// inputs runs 15-30 % faster or slower for minutes at a time (README,
// "noise"), more than the widest bound BENCHMARK.json may state. All five
// workloads move together under that drift. An ALU loop does not follow it
// at all; what follows it, of the kernels tried, is the geometric mean of
// the two below, each run on as many goroutines as the workloads have
// match workers:
//
//   - chase: dependent loads around a 4 MiB ring, the size of one core's
//     L2 — slows when something else is using the cache hierarchy, as the
//     token memories and hash lines of the match do;
//   - sort: sorting 4096 integers over and over — branchy, L1-resident,
//     and short enough that waking the second worker is part of its cost,
//     as it is of every match cycle.
//
// Within one run the ratio cancels the drift; what is left is the noise of
// the run itself (README has the measured spreads with and without).

const (
	refRing      = 1 << 20 // uint32 entries per worker: 4 MiB
	refSteps     = 400_000
	refSortLen   = 4096
	refSortTimes = 40

	// Kernel medians on the reference host, in milliseconds.
	refNominalChaseMS = 19.6
	refNominalSortMS  = 11.5
)

var (
	refOnce  sync.Once
	refRings [matchWorkers][]uint32
	refSrc   []int
	refBufs  [matchWorkers][]int
	// refSink keeps the kernels' results live.
	refSink uint64
)

func refInit() {
	r := newRNG(1, "reference")
	for g := range refRings {
		perm := r.perm(refRing)
		ring := make([]uint32, refRing)
		for i, p := range perm {
			ring[p] = uint32(perm[(i+1)%refRing])
		}
		refRings[g] = ring
		refBufs[g] = make([]int, refSortLen)
	}
	refSrc = make([]int, refSortLen)
	for i := range refSrc {
		refSrc[i] = r.intn(1 << 30)
	}
}

// onWorkers runs fn on matchWorkers goroutines at once and returns the
// wall time until the last one is done.
func onWorkers(fn func(g int) uint64) time.Duration {
	var wg sync.WaitGroup
	var sums [matchWorkers]uint64
	t0 := time.Now()
	for g := 0; g < matchWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = fn(g)
		}(g)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		refSink += s
	}
	return d
}

// refReadings collects the kernel timings of one phase.
type refReadings struct{ chase, sort []time.Duration }

// sample times both kernels once.
func (r *refReadings) sample() {
	refOnce.Do(refInit)
	r.chase = append(r.chase, onWorkers(func(g int) uint64 {
		ring := refRings[g]
		i := uint32(0)
		for k := 0; k < refSteps; k++ {
			i = ring[i]
		}
		return uint64(i)
	}))
	r.sort = append(r.sort, onWorkers(func(g int) uint64 {
		buf := refBufs[g]
		var s uint64
		for rep := 0; rep < refSortTimes; rep++ {
			copy(buf, refSrc)
			sort.Ints(buf)
			s += uint64(buf[rep])
		}
		return s
	}))
}

// slowdown is how much slower than the reference host this host ran while
// the readings were taken: the geometric mean of the two kernels' medians
// over their nominal times. Medians, so that a sample that collided with
// something does not decide the reading.
func (r *refReadings) slowdown() float64 {
	chase := ms(median(r.chase)) / refNominalChaseMS
	srt := ms(median(r.sort)) / refNominalSortMS
	return math.Sqrt(chase * srt)
}

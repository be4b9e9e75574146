package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every method on every nil metric type must be a no-op, not a panic —
	// this is what makes disabled observability free at the call sites.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	if g.value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram state")
	}
	var r *Registry
	if r.counter("x") != nil || r.gauge("x") != nil || r.histogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var o *Observer
	if o.Counter("x") != nil || o.Gauge("x") != nil || o.Histogram("x") != nil || o.Tracer() != nil || o.MatchHooks(0) != nil {
		t.Fatal("nil observer returned a handle")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.counter("a") != r.counter("a") {
		t.Fatal("counter identity not stable")
	}
	if r.gauge("g") != r.gauge("g") {
		t.Fatal("gauge identity not stable")
	}
	h := r.histogram("h", 1, 2, 3)
	if h != r.histogram("h", 99) { // bounds only apply on first creation
		t.Fatal("histogram identity not stable")
	}
	h.Observe(2.5)
	if h.Count() != 1 || h.Sum() != 2.5 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Prometheus le semantics: cumulative counts 2, 3, 4, then +Inf = 5.
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="10"} 3`,
		`lat_bucket{le="100"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 556.5",
		"lat_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.counter("zz_total").Add(7)
	r.counter("aa_total").Inc()
	r.gauge("mid_gauge").Set(1.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE aa_total counter\naa_total 1\n") {
		t.Fatalf("missing aa_total:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE mid_gauge gauge\nmid_gauge 1.5\n") {
		t.Fatalf("missing mid_gauge:\n%s", out)
	}
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(100, 2, 4)
	want := []float64{100, 200, 400, 800}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestRegistryConcurrency hammers every metric type from many goroutines
// while a scraper runs WriteText; run under -race this is the registry's
// thread-safety proof. Crucially the writers also create fresh metric
// names on every iteration — metrics are lazily registered mid-run (e.g.
// chunks_built_total appears at first chunk), so the scraper must tolerate
// map inserts concurrent with exposition.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				r.counter("c").Inc()
				r.gauge("g").Set(float64(w + 1))
				r.histogram("h", 10, 100).Observe(float64(i % 200))
				// Lazily create a brand-new name on every iteration so map
				// inserts keep happening while the scraper is reading.
				r.counter(fmt.Sprintf("lazy_%d_%d", w, i)).Inc()
			}
		}(w)
	}
	// Concurrent reader: exposition must be safe while writers run and
	// while new metrics are being registered.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	if got := r.counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.gauge("g").value(); got < 1 || got > workers || got != float64(int(got)) {
		t.Fatalf("gauge = %g, want one writer's value in [1, %d]", got, workers)
	}
	if got := r.histogram("h").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestHistogramExpositionInvariant checks that a scrape taken while
// Observe runs concurrently still satisfies the Prometheus histogram
// invariant: _count equals the +Inf cumulative bucket.
func TestHistogramExpositionInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.histogram("lat", 1, 10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50000; i++ {
			h.Observe(float64(i % 20))
		}
	}()
	for i := 0; i < 100; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		var inf, count uint64
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `lat_bucket{le="+Inf"} `); ok {
				fmt.Sscanf(v, "%d", &inf)
			}
			if v, ok := strings.CutPrefix(line, "lat_count "); ok {
				fmt.Sscanf(v, "%d", &count)
			}
		}
		if count != inf {
			t.Fatalf("scrape %d: lat_count=%d != +Inf bucket=%d", i, count, inf)
		}
	}
	<-done
}

// TestOnCollect checks the scrape hook: a collector runs at the start of
// every WriteText, so what it folds in is part of that exposition, and not
// after it is removed.
func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	c := r.counter("harvested_total")
	remove := r.OnCollect(func() { c.Add(5) })
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "harvested_total 5\n") {
		t.Fatalf("collector's fold missing from its own scrape:\n%s", buf.String())
	}
	remove()
	remove() // removing twice is harmless
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("collector ran after removal: counter = %d", got)
	}
	var nilReg *Registry
	nilReg.OnCollect(func() { t.Fatal("collector on a nil registry ran") })()
}

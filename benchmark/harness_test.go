package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		sorted []time.Duration
		p      float64
		want   time.Duration
	}{
		{nil, 50, 0},
		{[]time.Duration{7}, 0, 7},
		{[]time.Duration{7}, 50, 7},
		{[]time.Duration{7}, 100, 7},
		{ten, 50, 5},   // rank ceil(5.0) = 5
		{ten, 51, 6},   // rank ceil(5.1) = 6
		{ten, 90, 9},   // one sample beyond p90
		{ten, 91, 10},  //
		{ten, 99, 10},  //
		{ten, 100, 10}, // the maximum, never past the end
		{ten, 1, 1},
		{[]time.Duration{1, 2, 3}, 50, 2},
		{[]time.Duration{1, 2, 3, 4}, 50, 2}, // nearest rank takes the lower middle
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.p, got, c.want)
		}
	}
}

func TestSortedCopyLeavesInputAlone(t *testing.T) {
	in := []time.Duration{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("sortedCopy = %v", out)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("sortedCopy reordered its input: %v", in)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestRecorderAccounting(t *testing.T) {
	rec := newRecorder(true)
	c := rec.client(0)
	c.beginRound(0)
	now := time.Now()
	c.op("a", now, time.Millisecond, 5, nil)
	c.op("a", now, 2*time.Millisecond, 7, errUnsolved) // failed: no work credited
	c.aux("b", now, time.Second, nil)                  // attempted, not pooled
	c.endRound()
	if rec.attempted != 3 || rec.failed != 1 || rec.work != 5 || len(rec.lat) != 2 {
		t.Errorf("attempted=%d failed=%d work=%d pooled=%d", rec.attempted, rec.failed, rec.work, len(rec.lat))
	}
	if len(rec.spans) != 4 || rec.spans[0].Name != "round" || rec.spans[1].Parent != rec.spans[0].ID {
		t.Errorf("spans = %+v", rec.spans)
	}
	if rec.spans[0].EndUS < rec.spans[0].StartUS {
		t.Errorf("round span not closed: %+v", rec.spans[0])
	}
}

package stats

import (
	"sync"
	"testing"
	"time"
)

func TestDistBucketsAndMean(t *testing.T) {
	d := NewBucketDist(nil)
	for _, v := range []int64{1, 2, 3, 10, 2000} {
		d.Observe(v)
	}
	s := d.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := float64(1+2+3+10+2000) / 5; s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
	// 1 -> edge 1; 2 -> edge 2; 3 -> edge 4; 10 -> edge 16; 2000 -> overflow (-1).
	want := map[int64]int64{1: 1, 2: 1, 4: 1, 16: 1, -1: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for edge, n := range want {
		if s.Buckets[edge] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", edge, s.Buckets[edge], n, s.Buckets)
		}
	}
}

func TestSelHistClampAndMean(t *testing.T) {
	var h SelHist
	h.Observe(-0.5) // clamps to 0
	h.Observe(0.5)
	h.Observe(1.5) // clamps to 1
	mean, n := h.Mean()
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	if mean != 0.5 {
		t.Fatalf("mean = %v, want 0.5", mean)
	}
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[10] != 1 || s.Buckets[19] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
}

func TestRateWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewRateClock(func() time.Time { return now })
	if got := r.PerSecond(); got != 0 {
		t.Fatalf("rate before any Mark = %v, want 0", got)
	}
	r.Mark(60)
	// Warm-up: the divisor is the elapsed portion of the window, not
	// the full 60s — a burst in the first second reads at full rate.
	if got := r.PerSecond(); got != 60 {
		t.Fatalf("rate = %v, want 60 (burst over 1 elapsed second)", got)
	}
	// 100 events/s sustained for 10s reads as 100/s mid-warm-up, not
	// diluted over the empty remainder of the window.
	for i := 0; i < 9; i++ {
		now = now.Add(time.Second)
		r.Mark(100)
	}
	if got, want := r.PerSecond(), float64(60+9*100)/10; got != want {
		t.Fatalf("warm-up rate = %v, want %v", got, want)
	}
	// Once the first Mark is a full window in the past, the divisor
	// caps at the window length.
	for i := 0; i < 60; i++ {
		now = now.Add(time.Second)
		r.Mark(10)
	}
	got := r.PerSecond()
	if got < 9 || got > 11 {
		t.Fatalf("steady-state rate = %v, want ~10 (600 events over the 60s window)", got)
	}
	// Far outside the window the events age out.
	now = now.Add(10 * time.Minute)
	if got := r.PerSecond(); got != 0 {
		t.Fatalf("rate after window = %v, want 0", got)
	}
}

// TestRecordQueryShape: every query lands in the counters and the shape
// distributions, and probes are counted with the comps they made.
func TestRecordQueryShape(t *testing.T) {
	c := New("c")
	c.RecordQuery(10, 64, 0, true)
	c.RecordQuery(20, 0, 0, false)
	s := c.Snapshot(0, 0, 0)
	if s.Queries != 2 || s.K.Count != 2 || s.K.Mean != 15 {
		t.Fatalf("queries = %d, k = %+v, want 2 queries of mean k 15", s.Queries, s.K)
	}
	if s.FilteredFraction != 0.5 {
		t.Fatalf("filtered fraction = %v, want 0.5", s.FilteredFraction)
	}
	c.RecordProbe(3, 300)
	if mean, n := c.MeanProbeComps(); n != 3 || mean != 100 {
		t.Fatalf("probes = %d of mean %v comps, want 3 of 100", n, mean)
	}
}

// TestSelectivityPerColumn: each column keeps its own histogram in the
// snapshot, and a column never observed has none.
func TestSelectivityPerColumn(t *testing.T) {
	c := New("c")
	for i := 0; i < 4; i++ {
		c.RecordSelectivity("a", 0.2)
	}
	c.RecordSelectivity("b", 0.6)

	s := c.Snapshot(10, 10, 8)
	if _, ok := s.Selectivity["missing"]; ok {
		t.Fatal("an unobserved column has a histogram")
	}
	for col, want := range map[string]SelSnapshot{"a": {Count: 4, Mean: 0.2}, "b": {Count: 1, Mean: 0.6}} {
		got := s.Selectivity[col]
		if got.Count != want.Count || got.Mean < want.Mean-1e-9 || got.Mean > want.Mean+1e-9 {
			t.Fatalf("column %s: count=%d mean=%v, want %d/%v", col, got.Count, got.Mean, want.Count, want.Mean)
		}
	}
}

func TestCollectionSnapshotCounters(t *testing.T) {
	c := New("c")
	c.RecordInsert(3)
	c.RecordUpdate()
	c.RecordDelete()
	s := c.Snapshot(10, 9, 8)
	if s.Rows != 10 || s.Live != 9 || s.Deleted != 1 || s.Dim != 8 {
		t.Fatalf("row section = %+v", s)
	}
	if s.Inserts != 3 || s.Updates != 1 || s.Deletes != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.InsertsPerSec <= 0 {
		t.Fatalf("insert rate = %v, want > 0", s.InsertsPerSec)
	}
}

// TestConcurrentRecording exercises every record path from many
// goroutines; meaningful under -race.
func TestConcurrentRecording(t *testing.T) {
	c := New("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.RecordQuery(10, 64, 4, i%2 == 0)
				c.RecordProbe(1, 100)
				c.RecordSelectivity("col", 0.3)
				c.RecordInsert(1)
				if i%50 == 0 {
					_ = c.Snapshot(100, 90, 8)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Snapshot(100, 90, 8)
	if s.Queries != 4000 || s.Inserts != 4000 {
		t.Fatalf("queries=%d inserts=%d, want 4000/4000", s.Queries, s.Inserts)
	}
	if s.ANNProbes != 4000 || s.ANNProbeMeanComps != 100 {
		t.Fatalf("probes=%d mean=%v, want 4000/100", s.ANNProbes, s.ANNProbeMeanComps)
	}
	if got := s.Selectivity["col"].Count; got != 4000 {
		t.Fatalf("selectivity observations = %d, want 4000", got)
	}
}

func TestCalibration(t *testing.T) {
	c := New("cal")
	if cal := c.Calibration(); cal.NsPerComp != 0 || cal.CompScans != 0 {
		t.Fatalf("fresh calibration = %+v", cal)
	}
	// 10 full-precision scans at 100ns/comp, 4 quantized at 30ns/comp,
	// 6 attr scans at 20ns/eval.
	for i := 0; i < 10; i++ {
		c.RecordCompCost(100_000, 1000, false)
	}
	for i := 0; i < 4; i++ {
		c.RecordCompCost(30_000, 1000, true)
	}
	for i := 0; i < 6; i++ {
		c.RecordAttrCost(20_000, 1000)
	}
	cal := c.Calibration()
	if cal.NsPerComp != 100 || cal.NsPerQuantComp != 30 || cal.NsPerAttrEval != 20 {
		t.Fatalf("calibration costs = %+v", cal)
	}
	if cal.CompScans != 10 || cal.QuantScans != 4 || cal.AttrScans != 6 {
		t.Fatalf("calibration scan counts = %+v", cal)
	}
	// Garbage observations are dropped, not folded in.
	c.RecordCompCost(-5, 1000, false)
	c.RecordCompCost(100, 0, false)
	c.RecordAttrCost(0, 10)
	if got := c.Calibration(); got != cal {
		t.Fatalf("garbage observation changed calibration: %+v", got)
	}
	// Snapshot carries the calibration through.
	if s := c.Snapshot(0, 0, 0); s.Calibration != cal {
		t.Fatalf("snapshot calibration = %+v, want %+v", s.Calibration, cal)
	}
}

package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// resultsEqual compares two sorted result slices exactly (bitwise on
// distances: the oracle demands byte-identical merges, not epsilon-
// close ones).
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// splitMergeOracle pushes the stream into one collector, then splits
// the same stream across n collectors (round-robin) and Merges them,
// and fails unless the two top-k sets agree; it also feeds the stream
// through PushBlock and PushIDs in blocks of n.
func splitMergeOracle(t *testing.T, k, n int, stream []Result) {
	t.Helper()
	single := NewCollector(k)
	for _, r := range stream {
		single.Push(r.ID, r.Dist)
	}
	parts := make([]*Collector, n)
	for i := range parts {
		parts[i] = NewCollector(k)
	}
	for i, r := range stream {
		parts[i%n].Push(r.ID, r.Dist)
	}
	merged := NewCollector(k)
	for _, p := range parts {
		merged.Merge(p)
	}
	if !resultsEqual(single.Results(), merged.Results()) {
		t.Fatalf("split(%d)+Merge diverged from serial push:\nserial: %v\nmerged: %v",
			n, single.Results(), merged.Results())
	}
	// PushBlock and PushIDs must agree with the loop of Push, candidate
	// count included, however the stream is cut into blocks. PushBlock
	// numbers its candidates itself, so it gets the stream's distances
	// under consecutive ids (ties then fall to the smaller position).
	byPos, blockwise, gathered := NewCollector(k), NewCollector(k), NewCollector(k)
	dist := make([]float32, len(stream))
	ids := make([]int32, len(stream))
	for i, r := range stream {
		dist[i], ids[i] = r.Dist, int32(r.ID)
		byPos.Push(int64(i), r.Dist)
	}
	for lo := 0; lo < len(stream); lo += n {
		hi := min(lo+n, len(stream))
		blockwise.PushBlock(int64(lo), dist[lo:hi])
		gathered.PushIDs(ids[lo:hi], dist[lo:hi])
	}
	if !resultsEqual(byPos.Results(), blockwise.Results()) || byPos.Pushes() != blockwise.Pushes() {
		t.Fatalf("PushBlock diverged from a loop of Push:\npush:  %v (%d)\nblock: %v (%d)",
			byPos.Results(), byPos.Pushes(), blockwise.Results(), blockwise.Pushes())
	}
	if !resultsEqual(single.Results(), gathered.Results()) || single.Pushes() != gathered.Pushes() {
		t.Fatalf("PushIDs diverged from a loop of Push:\npush: %v (%d)\nids:  %v (%d)",
			single.Results(), single.Pushes(), gathered.Results(), gathered.Pushes())
	}
	// MergeResults must agree with Merge.
	lists := make([][]Result, n)
	for i, p := range parts {
		lists[i] = p.Results()
	}
	if got := MergeResults(k, lists...); !resultsEqual(single.Results(), got) {
		t.Fatalf("MergeResults diverged from serial push:\nserial: %v\nmerged: %v",
			single.Results(), got)
	}
}

// FuzzMergeEquivalence is the metamorphic oracle for parallel top-k:
// any candidate stream split across N collectors and merged must equal
// a single-collector push of the same stream, regardless of split
// width, order, or distance ties. Ties are seeded deliberately by
// quantizing distances to a few buckets.
func FuzzMergeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(40))
	f.Add(int64(7), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(10), uint8(8), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, kk, nn, count uint8) {
		k := int(kk%16) + 1
		n := int(nn%8) + 1
		streamLen := int(count) + 1
		rng := rand.New(rand.NewSource(seed))
		stream := make([]Result, streamLen)
		for i := range stream {
			// Few distinct distances and overlapping ids force boundary
			// ties, the regime real merge bugs live in.
			stream[i] = Result{
				ID:   int64(rng.Intn(streamLen)),
				Dist: float32(rng.Intn(8)) / 4,
			}
		}
		splitMergeOracle(t, k, n, stream)
	})
}

// FuzzMergeRawBytes drives the same oracle from raw fuzz bytes, so the
// mutator can construct adversarial distance bit patterns directly
// (subnormals, infinities are excluded; NaN has no total order).
func FuzzMergeRawBytes(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, kk, nn uint8) {
		k := int(kk%16) + 1
		n := int(nn%8) + 1
		var stream []Result
		for i := 0; i+5 <= len(raw); i += 5 {
			d := math.Float32frombits(binary.LittleEndian.Uint32(raw[i : i+4]))
			if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
				continue
			}
			stream = append(stream, Result{ID: int64(raw[i+4]), Dist: d})
		}
		if len(stream) == 0 {
			return
		}
		splitMergeOracle(t, k, n, stream)
	})
}

// TestMergeEquivalenceSweep runs the oracle deterministically across a
// grid of seeds so the property is checked on every `go test`, not
// only under -fuzz.
func TestMergeEquivalenceSweep(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		n := rng.Intn(6) + 1
		stream := make([]Result, rng.Intn(300)+1)
		for i := range stream {
			stream[i] = Result{ID: int64(rng.Intn(64)), Dist: float32(rng.Intn(10)) / 8}
		}
		splitMergeOracle(t, k, n, stream)
	}
}

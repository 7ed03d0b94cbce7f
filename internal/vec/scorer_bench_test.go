package vec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkScoreBlock measures the block scoring paths over the same
// data, scored in 256-row blocks: 64k rows of 128-d for each metric
// with a kernel, plus L2 at d=32 and d=768 over the same number of
// floats. Per shape:
//
//	perrow   one exported DistanceFunc call per row (the process's kernel)
//	block    Bound.ScoreBlock (the process's kernel: the assembly on an
//	         amd64 host with AVX, else the portable loops)
//	generic  the portable loops, called directly — the second tier on
//	         the same host, whatever the build tags
//	gather   Bound.ScoreIDs over the same rows in a shuffled order: every
//	         row a cache miss, as in a graph traversal or an inverted list
//	scoreat  the same shuffled rows, one Bound.ScoreAt call each — gather
//	         without the batch and its prefetch
//	cut      Bound.ScoreBlockWithin at the 10th-smallest score of all
//	         rows, the bound a top-10 scan reaches once it has seen
//	         them all: the rows it cuts short (L2 only)
//
// block vs generic is the assembly's speed-up, gather vs scoreat the
// prefetch's, gather vs block what scattered rows still cost, cut vs
// block what a bounded scan saves at its tightest;
// EXPERIMENTS.md E9 quotes them.
func BenchmarkScoreBlock(b *testing.B) {
	const floats, block = 1 << 23, 256
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, floats)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	for _, shape := range []struct {
		m Metric
		d int
	}{{L2, 128}, {InnerProduct, 128}, {Cosine, 128}, {L2, 32}, {L2, 768}} {
		m, d := shape.m, shape.d
		n := floats / d
		q := data[:d]
		sc, err := NewScorer(m, data, n, d)
		if err != nil {
			b.Fatal(err)
		}
		bound := sc.Bind(q)
		fn := Distance(m)
		shuffled := make([]int32, n)
		for i, id := range rng.Perm(n) {
			shuffled[i] = int32(id)
		}
		// generic mirrors ScoreBlock on the portable tier.
		generic := func(lo, hi int, out []float32) {
			rows := data[lo*d : hi*d]
			switch m {
			case L2:
				l2RowsGeneric(q, rows, out, inf)
			case InnerProduct:
				dotRowsGeneric(q, rows, out)
				for i, dp := range out {
					out[i] = -dp
				}
			case Cosine:
				dotRowsGeneric(q, rows, out)
				for i, dp := range out {
					out[i] = cosineOf(dp, sc.invNorm[lo+i], bound.qInv)
				}
			}
		}
		all := make([]float32, n)
		bound.ScoreBlock(0, n, all)
		slices.Sort(all)
		kth := all[9]
		name := m.String()
		if d != 128 {
			name = fmt.Sprintf("%s/d=%d", name, d)
		}
		for _, v := range []struct {
			name  string
			score func(lo, hi int, out []float32)
		}{
			{"perrow", func(lo, hi int, out []float32) {
				for r := lo; r < hi; r++ {
					out[r-lo] = fn(q, data[r*d:(r+1)*d])
				}
			}},
			{"block", bound.ScoreBlock},
			{"generic", generic},
			{"gather", func(lo, hi int, out []float32) { bound.ScoreIDs(shuffled[lo:hi], out) }},
			{"scoreat", func(lo, hi int, out []float32) {
				for i, id := range shuffled[lo:hi] {
					out[i] = bound.ScoreAt(int(id))
				}
			}},
			{"cut", func(lo, hi int, out []float32) { bound.ScoreBlockWithin(lo, hi, out, kth) }},
		} {
			if v.name == "cut" && m != L2 {
				continue
			}
			b.Run(name+"/"+v.name, func(b *testing.B) {
				b.SetBytes(floats * 4)
				out := make([]float32, block)
				var sink float32
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < n; lo += block {
						hi := min(lo+block, n)
						v.score(lo, hi, out[:hi-lo])
						sink += out[0]
					}
				}
				_ = sink
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

package vec

// The two scoring tiers. SquaredL2 and Dot (a block of one row) — and
// through them every Scorer path, k-means, PQ training and the index
// scans — run on one of exactly two kernels, chosen once per process:
// the AVX assembly in kernel_amd64.s (amd64, with the CPU and OS
// support checked at start-up), or the portable loops below (every
// other platform, an amd64 CPU without AVX, or a build with the purego
// tag, which exists so CI can run the portable tier on an AVX host). The assembly keeps
// the accumulation order of the portable loops, so the two tiers
// return the same bits (NaN payloads aside) and a result does not
// depend on the machine that computed it. The per-platform files
// define the entry points — l2Rows and dotRows for contiguous rows,
// l2Gather and dotGather for rows named by id — on top of these.
//
// The L2 entry points take a bound. Past every cutEvery floats of a row
// with more to come, the kernel folds its four accumulators in the
// order of the final sum, ((s0+s1)+s2)+s3, and when that partial sum is
// above bound it stores the partial sum and moves on to the next row:
// the row is cut. Every term is a square, so each accumulator only
// grows and, float addition being monotone, the partial sum is never
// above the full one — a cut row scores above bound either way, and a
// caller that drops everything above bound (a top-k collector at its
// k-th distance, a range scan at its radius) gets the hits of the full
// scan. A row that stays within the bound, or whose partial sum is NaN
// (no comparison with NaN holds), is scored to the end and gets the
// bits it gets unbounded. Both tiers cut at the same points, so they
// store the same bits for a cut row too. An infinite bound cuts
// nothing; the assembly tier then runs its unbounded loop.

// head returns v[:n]. Unlike the bare slice expression it panics when v
// holds fewer than n elements even if its capacity would cover them: a
// short operand is a caller's bug on either tier, never a read of
// whatever lies behind it.
func head(v []float32, n int) []float32 {
	if len(v) < n {
		panic("vec: operand shorter than the vectors it is scored against")
	}
	return v[:n]
}

// cutEvery is the stride, in floats, at which the L2 kernels compare a
// row's partial sum with the bound.
const cutEvery = 32

// squaredL2Generic is the portable squared-L2 kernel: four stride-4
// accumulators, the trailing len(a)&3 elements into the first, summed
// left to right. It reports cut when it stopped at a partial sum above
// bound (see above). The float32 conversions forbid the compiler to
// fuse the multiply into the add (arm64 and GOAMD64=v3 otherwise do),
// which would round differently from the assembly tier.
func squaredL2Generic(a, b []float32, bound float32) (dist float32, cut bool) {
	b = head(b, len(a))
	var s0, s1, s2, s3 float32
	i := 0
	for i+4 <= len(a) {
		for end := min(i+cutEvery, len(a)&^3); i < end; i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += float32(d0 * d0)
			s1 += float32(d1 * d1)
			s2 += float32(d2 * d2)
			s3 += float32(d3 * d3)
		}
		if i%cutEvery == 0 && i < len(a) {
			if part := s0 + s1 + s2 + s3; part > bound {
				return part, true
			}
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return s0 + s1 + s2 + s3, false
}

// dotGeneric is the portable dot-product kernel, in the accumulation
// order of squaredL2Generic.
func dotGeneric(a, b []float32) float32 {
	b = head(b, len(a))
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return s0 + s1 + s2 + s3
}

// l2RowsGeneric scores the len(out) contiguous rows of len(q) floats in
// rows, out[i] = squaredL2Generic(q, row i, bound), and returns how
// many rows it cut.
func l2RowsGeneric(q, rows, out []float32, bound float32) (cut int) {
	d := len(q)
	rows = head(rows, len(out)*d)
	for i := range out {
		var c bool
		if out[i], c = squaredL2Generic(q, rows[i*d:(i+1)*d], bound); c {
			cut++
		}
	}
	return cut
}

// dotRowsGeneric is l2RowsGeneric for the dot product, without a bound:
// its terms have no sign.
func dotRowsGeneric(q, rows, out []float32) {
	d := len(q)
	rows = head(rows, len(out)*d)
	for i := range out {
		out[i] = dotGeneric(q, rows[i*d:(i+1)*d])
	}
}

// l2GatherGeneric scores the rows of len(q) floats that ids name in the
// row-major data, out[i] = squaredL2Generic(q, row ids[i], bound), and
// returns how many rows it cut.
func l2GatherGeneric(q, data []float32, ids []int32, out []float32, bound float32) (cut int) {
	d := len(q)
	for i, id := range ids {
		var c bool
		if out[i], c = squaredL2Generic(q, head(data[int(id)*d:], d), bound); c {
			cut++
		}
	}
	return cut
}

// dotGatherGeneric is l2GatherGeneric for the dot product, without a
// bound.
func dotGatherGeneric(q, data []float32, ids []int32, out []float32) {
	d := len(q)
	for i, id := range ids {
		out[i] = dotGeneric(q, head(data[int(id)*d:], d))
	}
}

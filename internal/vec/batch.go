package vec

// Mean computes the centroid of the given vectors. All vectors must
// share the same dimension; Mean returns nil for an empty input.
func Mean(vs [][]float32) []float32 {
	if len(vs) == 0 {
		return nil
	}
	d := len(vs[0])
	m := make([]float32, d)
	for _, v := range vs {
		for i, x := range v {
			m[i] += x
		}
	}
	inv := 1 / float32(len(vs))
	for i := range m {
		m[i] *= inv
	}
	return m
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float32, x, y []float32) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float32, v []float32) {
	for i := range v {
		v[i] *= alpha
	}
}

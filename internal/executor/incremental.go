package executor

import (
	"fmt"
	"sort"

	"vdbms/internal/filter"
	"vdbms/internal/topk"
)

// Incremental search (open problem 5 of Section 2.6): e-commerce-style
// applications fetch the result set in pages without re-running the
// query. Iterator supports that pattern: it snapshots a ranking and
// serves successive Next(n) pages; when the snapshot is exhausted it
// deepens the underlying search (distance-ordered, so pages never
// regress).
//
// The flat path materializes the full ordering once (exact). The ANN
// path re-queries with growing k, de-duplicating already returned ids
// — the "restart with larger k" strategy the paper notes indexes force
// today — each time over the index's rows and the unindexed tail past
// them (Env.searchAll).

// Iterator pages through a ranked result stream.
type Iterator struct {
	env *Env
	q   []float32
	// admit is the visit-first test (compiled predicate cp and deletion
	// mask) built once at open; nil admits every row.
	admit    func(id int64) bool
	cp       *filter.Compiled
	opts     Options
	useANN   bool
	returned map[int64]struct{}
	buffer   []topk.Result
	pos      int
	depth    int // current ANN fetch depth
	done     bool
}

// NewIterator starts an incremental query. When the environment has an
// ANN index it is used with progressive deepening; otherwise the exact
// ordering is materialized lazily from the flat scan.
func (e *Env) NewIterator(q []float32, preds []filter.Predicate, opts Options) (*Iterator, error) {
	if len(q) != e.Dim {
		return nil, fmt.Errorf("executor: iterator query dim %d, env %d", len(q), e.Dim)
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	return &Iterator{
		env: e, q: q, admit: visitFilter(cp, opts.Deleted), cp: cp, opts: opts,
		useANN:   e.ANN != nil,
		returned: map[int64]struct{}{},
		depth:    32,
	}, nil
}

// Next returns up to n further results in ascending distance order.
// An empty slice means the stream is exhausted.
func (it *Iterator) Next(n int) ([]topk.Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("executor: page size must be positive")
	}
	var out []topk.Result
	for len(out) < n {
		if it.pos >= len(it.buffer) {
			if err := it.refill(); err != nil {
				return nil, err
			}
			if it.pos >= len(it.buffer) {
				break // exhausted
			}
		}
		r := it.buffer[it.pos]
		it.pos++
		if _, dup := it.returned[r.ID]; dup {
			continue
		}
		it.returned[r.ID] = struct{}{}
		out = append(out, r)
	}
	return out, nil
}

func (it *Iterator) refill() error {
	if it.done {
		return nil
	}
	e := it.env
	if !it.useANN {
		// Materialize the full exact ordering once.
		params := it.opts.params()
		params.Filter = it.admit
		res, err := e.Flat.Search(it.q, e.N, params)
		if err != nil {
			return err
		}
		sort.Slice(res, func(i, j int) bool { return res[i].Dist < res[j].Dist })
		it.buffer = res
		it.pos = 0
		it.done = true
		return nil
	}
	// Progressive deepening on the ANN index.
	if it.depth > 4*e.N {
		it.done = true
		return nil
	}
	params := it.opts.params()
	if params.Ef < it.depth {
		params.Ef = it.depth
	}
	params.Filter = it.admit
	k := it.depth
	if k > e.N {
		k = e.N
	}
	res, _, err := e.searchAll(e.ANN, it.q, k, params, it.cp, it.opts.Deleted)
	if err != nil {
		return err
	}
	it.buffer = res
	it.pos = 0
	prev := it.depth
	it.depth *= 2
	// If deepening returned nothing new and we already cover the
	// collection, stop.
	if len(res) < prev && k == e.N {
		it.done = true
	}
	return nil
}

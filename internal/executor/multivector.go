package executor

import (
	"fmt"
	"sort"

	"vdbms/internal/filter"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

// Multi-vector queries (Section 2.1(3)): entities are represented by
// several vectors (faces from different angles, passages of one
// document) and scored with an aggregate function. The paper notes
// generic top-k techniques do not map onto vector indexes, so the
// executor offers two strategies:
//
//   - exact: aggregate-score every entity (correct, O(entities));
//   - candidate generation: run one ANN search per query vector,
//     union the owning entities, aggregate-score only those — the
//     "vector query optimization" strategy of Milvus [79].

// EntityMap maps each vector row id to its owning entity, supporting
// multi-vector entities over a flat vector collection.
type EntityMap struct {
	owner    []int64           // row id -> entity id
	members  map[int64][]int32 // entity id -> row ids
	entities []int64           // stable order
}

// NewEntityMap builds the mapping from a row->entity assignment.
func NewEntityMap(owner []int64) *EntityMap {
	m := &EntityMap{owner: owner, members: map[int64][]int32{}}
	for row, ent := range owner {
		if _, seen := m.members[ent]; !seen {
			m.entities = append(m.entities, ent)
		}
		m.members[ent] = append(m.members[ent], int32(row))
	}
	return m
}

// Entities returns the distinct entity ids in first-seen order.
func (m *EntityMap) Entities() []int64 { return m.entities }

// Members returns the vector rows of an entity.
func (m *EntityMap) Members(ent int64) []int32 { return m.members[ent] }

// Owner returns the entity owning a row.
func (m *EntityMap) Owner(row int64) int64 { return m.owner[row] }

// MultiVectorExact scores every entity by the aggregate of pairwise
// distances between the query vectors and the entity's admitted rows:
// rows in opts.Deleted or failing preds do not count, and an entity
// with no admitted row is not returned. It publishes nothing.
func (e *Env) MultiVectorExact(m *EntityMap, agg vec.Aggregator, queries [][]float32, weights []float32, k int, preds []filter.Predicate, opts Options) ([]topk.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("executor: k must be positive")
	}
	for _, q := range queries {
		if len(q) != e.Dim {
			return nil, fmt.Errorf("executor: multi-vector query dim %d, env %d", len(q), e.Dim)
		}
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	return e.scoreEntities(m, m.Entities(), agg, queries, weights, k, visitFilter(cp, opts.Deleted)), nil
}

// MultiVectorANN generates candidate entities by running one
// single-stage search of width fanout per query vector over the
// admitted rows (live and matching preds), then aggregate-scores only
// the union over the same rows — trading a small recall loss for large
// speedups when entities are many. The probes fold into one
// index_probe stage of the query's record.
func (e *Env) MultiVectorANN(m *EntityMap, agg vec.Aggregator, queries [][]float32, weights []float32, k, fanout int, preds []filter.Predicate, opts Options) (_ []topk.Result, err error) {
	rec := opts.Record
	if rec == nil {
		rec = new(Record)
	}
	defer func() { e.publish(rec, err) }()
	if k <= 0 {
		return nil, fmt.Errorf("executor: k must be positive")
	}
	if fanout <= 0 {
		fanout = 4 * k
	}
	cp, err := e.compile(preds)
	if err != nil {
		return nil, err
	}
	rec.preds = preds
	cands := map[int64]struct{}{}
	for _, q := range queries {
		res, err := e.singleStage(q, fanout, cp, opts, rec)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			cands[m.Owner(r.ID)] = struct{}{}
		}
	}
	// Deterministic iteration for reproducible results.
	ids := make([]int64, 0, len(cands))
	for ent := range cands {
		ids = append(ids, ent)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return e.scoreEntities(m, ids, agg, queries, weights, k, visitFilter(cp, opts.Deleted)), nil
}

// scoreEntities returns the k entities of ents nearest the queries by
// the aggregate over their rows that admit accepts (every row when
// admit is nil); an entity with no admitted row is skipped.
func (e *Env) scoreEntities(m *EntityMap, ents []int64, agg vec.Aggregator, queries [][]float32, weights []float32, k int, admit func(int64) bool) []topk.Result {
	c := topk.NewCollector(k)
	var rows [][]float32
	for _, ent := range ents {
		rows = rows[:0]
		for _, r := range m.Members(ent) {
			if admit == nil || admit(int64(r)) {
				rows = append(rows, e.Data[int(r)*e.Dim:(int(r)+1)*e.Dim])
			}
		}
		if len(rows) > 0 {
			c.Push(ent, vec.AggregateDistance(agg, e.Fn, queries, rows, weights))
		}
	}
	return c.Results()
}

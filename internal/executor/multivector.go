package executor

import (
	"fmt"
	"sort"

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
// distances between the query vectors and the entity's vectors.
func (e *Env) MultiVectorExact(m *EntityMap, agg vec.Aggregator, queries [][]float32, weights []float32, k int) ([]topk.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("executor: k must be positive")
	}
	for _, q := range queries {
		if len(q) != e.Dim {
			return nil, fmt.Errorf("executor: multi-vector query dim %d, env %d", len(q), e.Dim)
		}
	}
	c := topk.NewCollector(k)
	for _, ent := range m.Entities() {
		rows := m.Members(ent)
		entityVecs := make([][]float32, len(rows))
		for i, r := range rows {
			entityVecs[i] = e.Data[int(r)*e.Dim : (int(r)+1)*e.Dim]
		}
		d := vec.AggregateDistance(agg, e.Fn, queries, entityVecs, weights)
		c.Push(ent, d)
	}
	return c.Results(), nil
}

// MultiVectorANN generates candidate entities by running one ANN
// search of width fanout per query vector, then aggregate-scores only
// the union — trading a small recall loss for large speedups when
// entities are many. The probes fold into one index_probe stage of the
// query's record.
func (e *Env) MultiVectorANN(m *EntityMap, agg vec.Aggregator, queries [][]float32, weights []float32, k, fanout int, opts Options) (_ []topk.Result, err error) {
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
	cands := map[int64]struct{}{}
	for _, q := range queries {
		res, err := e.indexOrFlat(q, fanout, opts, rec)
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
	c := topk.NewCollector(k)
	for _, ent := range ids {
		rows := m.Members(ent)
		entityVecs := make([][]float32, len(rows))
		for i, r := range rows {
			entityVecs[i] = e.Data[int(r)*e.Dim : (int(r)+1)*e.Dim]
		}
		c.Push(ent, vec.AggregateDistance(agg, e.Fn, queries, entityVecs, weights))
	}
	return c.Results(), nil
}

package dist

import (
	"context"
	"math"
	"net"
	"strconv"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
)

// rpcRouter serves each shard over net/rpc on loopback and returns a
// router over the dialled clients.
func rpcRouter(t *testing.T, shards []Shard) *Router {
	t.Helper()
	remote := make([]Shard, len(shards))
	for i, s := range shards {
		srv, err := NewShardServer(s)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(l)
		t.Cleanup(func() { srv.Shutdown(context.Background()) }) //nolint:errcheck
		c, err := DialShard(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		remote[i] = c
	}
	return NewRouter(remote, nil)
}

// The distributed read path is the single-node engine plus a merge: a
// collection partitioned over four net/rpc shards answers filtered
// exact queries with exactly the hits — ids and distance bits — one
// collection over the same rows returns, for every metric tested, and
// its default-plan HNSW answers keep recall@10 ≥ 0.95.
func TestDistributedEqualsSingleNode(t *testing.T) {
	const n, k = 2000, 10
	ds := dataset.Clustered(n, 16, 8, 0.4, 21)
	attrs := make([]map[string]any, n)
	for i := range attrs {
		attrs[i] = map[string]any{"cat": i % 7, "tag": "t" + strconv.Itoa(i%3)}
	}
	filters := [][]vdbms.Filter{
		nil,
		{{Column: "cat", Op: "<", Value: 4}},
		{{Column: "tag", Op: "=", Value: "t1"}},
		{{Column: "cat", Op: "in", Set: []any{1, 5}}, {Column: "tag", Op: "!=", Value: "t0"}},
	}
	qs := ds.Queries(12, 0.05, 22)
	for _, metric := range []string{"l2", "cosine"} {
		t.Run(metric, func(t *testing.T) {
			schema := vdbms.Schema{Dim: ds.Dim, Metric: metric, Attributes: map[string]string{"cat": "int", "tag": "string"}}
			single, err := vdbms.New().CreateCollection("all", schema)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := single.Insert(ds.Row(i), attrs[i]); err != nil {
					t.Fatal(err)
				}
			}
			shards, err := BuildShards(schema, ds.Data, attrs, PartitionRandom(n, 4, 23), "hnsw", map[string]int{"m": 16})
			if err != nil {
				t.Fatal(err)
			}
			router := rpcRouter(t, shards)
			ctx := context.Background()

			var recall float64
			for qi, q := range qs {
				for fi, fs := range filters {
					req := vdbms.SearchRequest{Vector: q, K: k, Filters: fs, Policy: "plan:brute_force"}
					want, err := single.Search(req)
					if err != nil {
						t.Fatal(err)
					}
					got, part, err := router.Search(ctx, req, 0)
					if err != nil || !part.Complete() {
						t.Fatalf("q%d f%d: %v %+v", qi, fi, err, part)
					}
					if len(got) != len(want.Hits) {
						t.Fatalf("q%d f%d: %d hits, single node %d", qi, fi, len(got), len(want.Hits))
					}
					for i, h := range want.Hits {
						if got[i].ID != h.ID || math.Float32bits(got[i].Dist) != math.Float32bits(h.Dist) {
							t.Fatalf("q%d f%d hit %d: distributed %v, single node %v", qi, fi, i, got[i], h)
						}
					}
					if fi != 0 {
						continue
					}
					approx, _, err := router.Search(ctx, vdbms.SearchRequest{Vector: q, K: k}, 0)
					if err != nil {
						t.Fatal(err)
					}
					recall += dataset.Recall(approx, want.Hits)
				}
			}
			// The unfiltered default plan really probes each shard's index.
			if r, err := shards[0].(*LocalShard).col.Search(vdbms.SearchRequest{Vector: qs[0], K: k}); err != nil || r.Plan == "brute_force" {
				t.Fatalf("default plan on a shard = %q (%v), want an hnsw probe", r.Plan, err)
			}
			if mean := recall / float64(len(qs)); mean < 0.95 {
				t.Fatalf("default-plan hnsw recall@10 over 4 shards = %.3f, want ≥ 0.95", mean)
			}
		})
	}
}

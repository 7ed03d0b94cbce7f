package dist

import (
	"context"
	"net"
	"testing"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/kmeans"
	"vdbms/internal/vec"
)

// knn is an unfiltered top-k request with an Ef/NProbe budget.
func knn(q []float32, k, ef int) vdbms.SearchRequest {
	return vdbms.SearchRequest{Vector: q, K: k, Ef: ef, NProbe: ef}
}

// localShards hosts each part of p in its own collection, indexed with
// kind ("" = exact scan).
func localShards(t *testing.T, ds *dataset.Dataset, p Partition, kind string) []Shard {
	t.Helper()
	var opts map[string]int
	if kind == "hnsw" {
		opts = map[string]int{"m": 8}
	}
	shards, err := BuildShards(vdbms.Schema{Dim: ds.Dim}, ds.Data, nil, p, kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// buildShards partitions a dataset and builds one HNSW per shard.
func buildShards(t *testing.T, ds *dataset.Dataset, p Partition) []Shard {
	t.Helper()
	return localShards(t, ds, p, "hnsw")
}

func TestScatterGatherMatchesSingleIndex(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.4, 1)
	p := PartitionRandom(ds.Count, 4, 7)
	router := NewRouter(buildShards(t, ds, p), nil)
	if router.NumShards() != 4 {
		t.Fatal("shard count wrong")
	}
	qs := ds.Queries(15, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var rec float64
	for i, q := range qs {
		got, _, err := router.Search(context.Background(), knn(q, 10, 100), 0)
		if err != nil {
			t.Fatal(err)
		}
		rec += dataset.Recall(got, truth[i])
	}
	if mean := rec / 15; mean < 0.85 {
		t.Fatalf("distributed recall = %v", mean)
	}
}

func TestPartitionRandomBalance(t *testing.T) {
	p := PartitionRandom(10000, 5, 1)
	counts := make([]int, 5)
	for _, a := range p.Assign {
		counts[a]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Fatalf("part %d holds %d of 10000", i, c)
		}
	}
}

func TestIndexGuidedRoutingReducesFanOut(t *testing.T) {
	ds := dataset.Clustered(2000, 16, 8, 0.3, 3)
	p, err := PartitionClustered(ds.Data, ds.Count, ds.Dim, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(buildShards(t, ds, p), p.Centroids)
	if router.FanOut(2) != 2 || router.FanOut(0) != 8 || router.FanOut(99) != 8 {
		t.Fatal("FanOut accounting wrong")
	}
	qs := ds.Queries(15, 0.05, 6)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	var routedRec float64
	for i, q := range qs {
		got, part, err := router.Search(context.Background(), knn(q, 10, 100), 2)
		if err != nil {
			t.Fatal(err)
		}
		if part.Targeted != 2 {
			t.Fatalf("routed query targeted %d shards, want 2", part.Targeted)
		}
		routedRec += dataset.Recall(got, truth[i])
	}
	// Probing 2 of 8 cluster-aligned shards must retain most recall.
	if mean := routedRec / 15; mean < 0.75 {
		t.Fatalf("routed recall = %v", mean)
	}
}

func TestRoutingFallsBackWithoutCentroids(t *testing.T) {
	ds := dataset.Uniform(300, 8, 7)
	p := PartitionRandom(ds.Count, 3, 9)
	router := NewRouter(buildShards(t, ds, p), nil)
	full, _, err := router.Search(context.Background(), knn(ds.Row(0), 5, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	routed, part, err := router.Search(context.Background(), knn(ds.Row(0), 5, 100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if part.Targeted != 3 {
		t.Fatalf("without centroids a routed query must fan out to all 3 shards, got %d", part.Targeted)
	}
	if len(full) != len(routed) {
		t.Fatal("fallback should equal full fan-out")
	}
	for i := range full {
		if full[i].ID != routed[i].ID {
			t.Fatal("fallback results differ")
		}
	}
}

func TestGlobalIDsPreserved(t *testing.T) {
	ds := dataset.Uniform(200, 4, 11)
	p := PartitionRandom(ds.Count, 4, 13)
	router := NewRouter(buildShards(t, ds, p), nil)
	// Query exactly at row 123: top-1 must be global id 123.
	got, _, err := router.Search(context.Background(), knn(ds.Row(123), 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 123 {
		t.Fatalf("got %v, want id 123", got)
	}
}

func TestRouterRejectsNonPositiveK(t *testing.T) {
	ds := dataset.Uniform(50, 4, 3)
	router := NewRouter(buildShards(t, ds, PartitionRandom(ds.Count, 2, 1)), nil)
	if _, _, err := router.Search(context.Background(), knn(ds.Row(0), 0, 10), 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}

// Multi-vector hits are entity ids, not shard rows, and a page cursor
// names a global id: the router and each shard refuse both with an
// error instead of mapping (or indexing past) the shard's id slice or
// ranking against local ids.
func TestMultiVectorRejected(t *testing.T) {
	ds := dataset.Uniform(40, 4, 3)
	attrs := make([]map[string]any, ds.Count)
	for i := range attrs {
		attrs[i] = map[string]any{"ent": i % 5}
	}
	schema := vdbms.Schema{Dim: ds.Dim, Attributes: map[string]string{"ent": "int"}}
	shards, err := BuildShards(schema, ds.Data, attrs, PartitionRandom(ds.Count, 2, 1), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []vdbms.SearchRequest{
		{Vectors: [][]float32{ds.Row(0), ds.Row(1)}, EntityColumn: "ent", K: 3},
		{Vector: ds.Row(0), K: 3, After: &vdbms.Hit{ID: 4, Dist: 0}},
	} {
		if _, _, err := NewRouter(shards, nil).Search(context.Background(), req, 0); err == nil {
			t.Fatalf("router accepted %+v", req)
		}
		for i, s := range shards {
			if _, err := s.Search(context.Background(), req); err == nil {
				t.Fatalf("shard %d accepted %+v", i, req)
			}
		}
	}
}

// An empty partition is a shard with no hits, not a failed shard —
// also when routing sends a query to it alone.
func TestEmptyShardAnswers(t *testing.T) {
	ds := dataset.Uniform(60, 4, 3)
	p := Partition{Assign: make([]int, ds.Count), Parts: 2} // part 1 empty
	shards := localShards(t, ds, p, "hnsw")
	cents := &kmeans.Result{K: 2, Dim: ds.Dim, Centroids: make([]float32, 2*ds.Dim)}
	for j := range ds.Dim {
		cents.Centroids[j] = 100
	}
	router := NewRouter(shards, cents)
	q := ds.Row(7)
	got, part, err := router.Search(context.Background(), knn(q, 3, 50), 0)
	if err != nil || !part.Complete() || len(part.Answered) != 2 {
		t.Fatalf("full fan-out: %v %+v", err, part)
	}
	if len(got) != 3 || got[0].ID != 7 {
		t.Fatalf("full fan-out hits = %v", got)
	}
	got, part, err = router.Search(context.Background(), knn(q, 3, 50), 1)
	if err != nil || !part.Complete() || len(part.Answered) != 1 || part.Answered[0] != 1 {
		t.Fatalf("routed to the empty shard: %v %+v", err, part)
	}
	if len(got) != 0 {
		t.Fatalf("empty shard returned %v", got)
	}
}

func TestRPCShardEndToEnd(t *testing.T) {
	ds := dataset.Clustered(600, 8, 4, 0.4, 15)
	p := PartitionRandom(ds.Count, 2, 17)
	local := buildShards(t, ds, p)

	var addrs []string
	for _, s := range local {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if err := ServeShard(l, s); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, l.Addr().String())
	}
	var remote []Shard
	for _, a := range addrs {
		rs, err := DialShard(a)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		remote = append(remote, rs)
	}
	if remote[0].Count()+remote[1].Count() != ds.Count {
		t.Fatal("remote counts wrong")
	}
	router := NewRouter(remote, nil)
	got, part, err := router.Search(context.Background(), knn(ds.Row(42), 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 42 {
		t.Fatalf("rpc search = %v", got)
	}
	if !part.Complete() || part.Targeted != 2 || len(part.Answered) != 2 {
		t.Fatalf("partial report for a clean query = %+v", part)
	}
}

func TestDialShardErrors(t *testing.T) {
	if _, err := DialShard("127.0.0.1:1"); err == nil {
		t.Fatal("want dial error")
	}
}

// Distributed search: the collection is partitioned across shards
// served over net/rpc on loopback, and a router answers queries by
// scatter-gather (Section 2.3(2)). Each shard hosts an ordinary
// vdbms.Collection, so a filtered query runs on every shard exactly as
// it would on one node. The example contrasts random
// partitioning (always full fan-out) with index-guided cluster
// partitioning, where routing to the 2 nearest shard centroids
// preserves almost all recall — then demonstrates the fault-tolerance
// layer: a shard at 100% injected error rate degrades queries to
// partial results instead of failing them, a hung shard is bounded by
// the query deadline, and a replica set's circuit breaker trips on a
// failing primary and heals automatically once it recovers.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/dist"
	"vdbms/internal/fault"
	"vdbms/internal/topk"
	"vdbms/internal/vec"
)

const (
	n      = 20000
	dim    = 64
	shards = 4
)

func main() {
	ds := dataset.Clustered(n, dim, 32, 0.4, 1)
	qs := ds.Queries(50, 0.05, 2)
	truth := dataset.GroundTruth(vec.SquaredL2, ds, qs, 10)
	ctx := context.Background()

	// Index-guided partitioning: k-means clusters map to shards.
	part, err := dist.PartitionClustered(ds.Data, ds.Count, ds.Dim, shards, 5)
	if err != nil {
		log.Fatal(err)
	}
	attrs := make([]map[string]any, ds.Count)
	for i := range attrs {
		attrs[i] = map[string]any{"cat": i % 4}
	}
	local, err := dist.BuildShards(vdbms.Schema{Dim: dim, Attributes: map[string]string{"cat": "int"}},
		ds.Data, attrs, part, "hnsw", map[string]int{"m": 12})
	if err != nil {
		log.Fatal(err)
	}

	// Launch each shard as an rpc server on loopback (stand-ins for
	// separate shard processes; cmd/vdbms-shard runs the same service
	// standalone).
	var remote []dist.Shard
	for i, shard := range local {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		if err := dist.ServeShard(l, shard); err != nil {
			log.Fatal(err)
		}
		client, err := dist.DialShard(l.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %d: %d vectors at %s\n", i, client.Count(), l.Addr())
		remote = append(remote, client)
	}
	router := dist.NewRouter(remote, part.Centroids)

	knn := func(q []float32) vdbms.SearchRequest { return vdbms.SearchRequest{Vector: q, K: 10, Ef: 100} }
	recall := func(probes int) float64 {
		got := make([][]topk.Result, len(qs))
		for i, q := range qs {
			res, _, err := router.Search(ctx, knn(q), probes)
			if err != nil {
				log.Fatal(err)
			}
			got[i] = res
		}
		return dataset.MeanRecall(got, truth)
	}

	fmt.Println("\nrouted search over rpc shards (k=10, ef=100):")
	for _, probes := range []int{1, 2, 4} {
		fmt.Printf("  probe %d/%d shards -> recall@10 = %.3f (fan-out %d)\n",
			probes, shards, recall(probes), router.FanOut(probes))
	}
	fmt.Println("\nindex-guided partitioning lets 2 of 4 shards answer with near-full recall;")
	fmt.Println("random partitioning would need all shards for every query.")

	// Filters travel with the request and run on every shard.
	filtered, _, err := router.Search(ctx, vdbms.SearchRequest{
		Vector: qs[0], K: 5, Filters: []vdbms.Filter{{Column: "cat", Op: "=", Value: 3}},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfiltered search (cat = 3) over all shards: ids %v\n", ids(filtered))

	// ------------------------------------------------------------------
	// Fault tolerance: kill one shard (100% injected errors) and keep
	// answering from the remaining three.
	chaos := dist.NewChaosShard(remote[3], dist.ChaosConfig{ErrorRate: 1, Seed: 7})
	faulty := dist.NewRouter([]dist.Shard{remote[0], remote[1], remote[2], chaos}, nil,
		dist.WithShardTimeout(500*time.Millisecond))
	got := make([][]topk.Result, len(qs))
	var lastPartial dist.Partial
	for i, q := range qs {
		res, p, err := faulty.Search(ctx, knn(q), 0)
		if err != nil {
			log.Fatal(err)
		}
		got[i], lastPartial = res, p
	}
	fmt.Printf("\nwith shard 3 at 100%% error rate, queries degrade instead of failing:\n")
	fmt.Printf("  partial report: answered %v, failed shards %v (targeted %d)\n",
		lastPartial.Answered, lastPartial.FailedShards(), lastPartial.Targeted)
	fmt.Printf("  recall@10 over surviving shards = %.3f\n", dataset.MeanRecall(got, truth))

	// A hung shard (never answers) is bounded by the query deadline.
	hung := dist.NewChaosShard(remote[3], dist.ChaosConfig{HangRate: 1, Seed: 9})
	bounded := dist.NewRouter([]dist.Shard{remote[0], remote[1], remote[2], hung}, nil)
	dctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	start := time.Now()
	_, p, err := bounded.Search(dctx, knn(qs[0]), 0)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\na hung shard cannot stall the query past its deadline:\n")
	fmt.Printf("  answered %v in %v, hung shard charged to partial report %v\n",
		p.Answered, time.Since(start).Round(time.Millisecond), p.FailedShards())

	// ------------------------------------------------------------------
	// Replica failover with automatic healing: the primary errors, its
	// breaker trips, traffic fails over; once the primary recovers a
	// half-open probe closes the breaker and traffic returns.
	primary := dist.NewChaosShard(remote[0], dist.ChaosConfig{ErrorRate: 1, Seed: 3})
	rs, err := dist.NewReplicaSetWithBreaker(
		fault.BreakerConfig{FailureThreshold: 1, SuccessThreshold: 1, Cooldown: 50 * time.Millisecond},
		primary, remote[0])
	if err != nil {
		log.Fatal(err)
	}
	q0 := vdbms.SearchRequest{Vector: qs[0], K: 1, Ef: 100}
	if _, err := rs.Search(ctx, q0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplica set: primary erroring -> breaker %v, served by secondary\n", rs.State(0))
	primary.SetErrorRate(0) // the primary comes back
	time.Sleep(60 * time.Millisecond)
	if _, err := rs.Search(ctx, q0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary recovered -> probe admitted after cooldown, breaker %v, traffic back on primary\n", rs.State(0))
}

func ids(hits []topk.Result) []int64 {
	out := make([]int64, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}

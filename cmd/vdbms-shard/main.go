// Command vdbms-shard serves one partition of a collection over
// net/rpc for distributed scatter-gather search (Section 2.3(2) of the
// paper). A router process (see examples/distributed) dials any number
// of shards and merges their top-k results.
//
// A shard hosts one ordinary collection, so every request a router
// sends — filters, metric, plan forcing, knobs, deadline — runs on the
// same engine a single node would. The collection either comes from a
// durable database directory holding exactly one collection (-dir,
// opened with vdbms.Open; its recorded index is rebuilt on recovery)
// or is generated: a seeded synthetic partition (-n/-dim/-seed)
// inserted into an in-memory collection and indexed with HNSW (-m).
//
//	vdbms-shard -addr 127.0.0.1:9001 -n 10000 -dim 64 -seed 1 -offset 0
//	vdbms-shard -addr 127.0.0.1:9002 -dir /var/lib/vdbms/part2 -offset 10000
//
// -offset sets the first global id of this partition (global id =
// offset + collection id) so results from different shards never
// collide.
//
// Chaos mode injects faults for failover drills against a live
// router: -chaos-error-rate fails searches, -chaos-hang-rate makes
// them hang until the query deadline, -chaos-latency/-chaos-jitter
// add delay. All draws come from -chaos-seed, so a drill replays:
//
//	vdbms-shard -addr 127.0.0.1:9003 -chaos-error-rate 0.2 -chaos-latency 20ms
//
// -metrics-addr serves /metrics (Prometheus text), /debug/stats
// (JSON), and /healthz on a separate HTTP listener, so the shard's
// probe counters are scrapable even though queries arrive over
// net/rpc; -pprof-addr adds net/http/pprof the same way.
//
// On SIGINT/SIGTERM the shard stops accepting, drains in-flight
// queries (bounded by -drain-timeout), and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/dist"
	"vdbms/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9001", "listen address")
	dir := flag.String("dir", "", "durable database directory holding the shard's one collection")
	n := flag.Int("n", 10000, "synthetic vector count (when -dir is unset)")
	dim := flag.Int("dim", 64, "synthetic dimensionality")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	offset := flag.Int64("offset", 0, "first global id of this partition")
	m := flag.Int("m", 16, "HNSW M parameter")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight queries on shutdown")
	chaosErr := flag.Float64("chaos-error-rate", 0, "chaos: probability a search fails")
	chaosHang := flag.Float64("chaos-hang-rate", 0, "chaos: probability a search hangs until its deadline")
	chaosLatency := flag.Duration("chaos-latency", 0, "chaos: latency added to every search")
	chaosJitter := flag.Duration("chaos-jitter", 0, "chaos: extra uniform latency on top of -chaos-latency")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: fault schedule seed")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/stats, /healthz on this address (empty = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(obs.Default()))
		mux.Handle("/debug/stats", obs.StatsHandler(obs.Default()))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
		go func() {
			log.Printf("metrics listening on %s", *metricsAddr)
			log.Print(http.ListenAndServe(*metricsAddr, mux))
		}()
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Print(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	db, col, err := openCollection(*dir, *n, *dim, *seed, *m)
	if err != nil {
		log.Fatal(err)
	}
	count := col.Stats().Rows
	kind, _, _ := col.IndexInfo()
	log.Printf("shard: %d vectors of dim %d, index %q", count, col.Dim(), kind)
	var ids []int64
	if *offset != 0 {
		ids = make([]int64, count)
		for i := range ids {
			ids[i] = *offset + int64(i)
		}
	}

	var shard dist.Shard = dist.NewLocalShard(col, ids)
	if *chaosErr > 0 || *chaosHang > 0 || *chaosLatency > 0 || *chaosJitter > 0 {
		shard = dist.NewChaosShard(shard, dist.ChaosConfig{
			ErrorRate:     *chaosErr,
			HangRate:      *chaosHang,
			Latency:       *chaosLatency,
			LatencyJitter: *chaosJitter,
			Seed:          *chaosSeed,
		})
		log.Printf("CHAOS MODE: error-rate=%.2f hang-rate=%.2f latency=%v jitter=%v seed=%d",
			*chaosErr, *chaosHang, *chaosLatency, *chaosJitter, *chaosSeed)
	}

	srv, err := dist.NewShardServer(shard)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown: stop accepting, drain in-flight queries with
	// a bounded context, exit 0. The handler is installed before the
	// shard serves, so a SIGTERM sent once it answers always drains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	srv.Serve(l)
	log.Printf("shard serving on %s (ids %d..%d)", l.Addr(), *offset, *offset+int64(count)-1)
	s := <-sig
	log.Printf("received %v, draining (up to %v)", s, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v (closing anyway)", err)
	}
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	log.Print("shard stopped")
}

// openCollection returns the collection the shard serves: the single
// collection of the durable database at dir, or — when dir is empty —
// a synthetic in-memory one of n seeded vectors with an HNSW index.
func openCollection(dir string, n, dim int, seed int64, m int) (*vdbms.DB, *vdbms.Collection, error) {
	if dir != "" {
		db, err := vdbms.Open(dir, vdbms.Durability{})
		if err != nil {
			return nil, nil, fmt.Errorf("open %s: %w", dir, err)
		}
		names := db.Collections()
		if len(names) != 1 {
			db.Close()
			return nil, nil, fmt.Errorf("%s holds %d collections, want exactly 1", dir, len(names))
		}
		col, err := db.Collection(names[0])
		return db, col, err
	}
	db := vdbms.New()
	col, err := db.CreateCollection("shard", vdbms.Schema{Dim: dim})
	if err != nil {
		return nil, nil, err
	}
	syn := dataset.Clustered(n, dim, 16, 0.4, seed)
	for i := 0; i < syn.Count; i++ {
		if _, err := col.Insert(syn.Row(i), nil); err != nil {
			return nil, nil, err
		}
	}
	log.Printf("shard: building hnsw(m=%d) over %d synthetic vectors", m, n)
	if err := col.CreateIndex("hnsw", map[string]int{"m": m}); err != nil {
		return nil, nil, fmt.Errorf("index build: %w", err)
	}
	return db, col, nil
}

// Command vdbms-server serves the VDBMS over HTTP/JSON.
//
//	vdbms-server -addr :8530 -query-timeout 2s
//
// Endpoints:
//
//	GET    /collections                      list collections
//	POST   /collections                      {"name": ..., "schema": {...}}
//	GET    /collections/{name}               collection info
//	DELETE /collections/{name}               drop
//	POST   /collections/{name}/vectors       {"vector": [...], "attrs": {...}}
//	POST   /collections/{name}/index         {"kind": "hnsw", "opts": {"m": 16}}
//	POST   /collections/{name}/search        search request JSON
//	POST   /collections/{name}/batch         {"vectors": [[...], ...]} + shared search knobs
//	POST   /query                            {"query": "SELECT 10 FROM c NEAR [...]"}
//	GET    /healthz                          liveness probe
//	GET    /metrics                          Prometheus text exposition
//	GET    /debug/stats                      metrics + runtime + per-collection stats as JSON
//	GET    /debug/slowlog                    span trees of the slowest traced queries
//
// With -data-dir the server runs the durable write path: every
// mutation is written ahead to a per-collection log and acknowledged
// per -fsync (always/interval/never), checkpoints run in the
// background every -checkpoint-interval, and boot recovers whatever
// the directory holds — newest checkpoint plus WAL replay — so a
// kill -9 loses nothing that was acknowledged under fsync=always.
//
// Searches run under a per-query deadline (-query-timeout; 0
// disables) and a timed-out query returns 504. Sending a search with
// the "X-Vdbms-Trace: 1" header returns the query's span tree;
// -slow-query logs the span tree of any slower search server-side.
// -recall-interval runs the recall loop on every collection: each
// interval a reservoir of live queries is replayed against an exact
// scan, the observed recall@k of the served answers is exported as
// vdbms_recall_observed (with -recall-floor, passes below the floor
// are logged as regressions), and some of the samples are replayed
// across a ladder of Ef/NProbe values to learn the recall-vs-cost
// frontier. Queries carrying a recall target (-target-recall sets the
// default, which also turns sampling on; "target_recall" in the search
// body overrides per query) run with the cheapest parameters the
// frontier proves meet it. -tune-reselect additionally lets the loop
// rebuild an index the workload has drifted away from; rebuilds run
// in the background and install atomically. Every search response
// reports the executed plan and resolved parameters in the
// X-Vdbms-Plan header.
// -mem-budget bounds the process's accounted memory (0 inherits
// GOMEMLIMIT, -1 disables management): over the budget the server
// walks a degradation ladder — drop rebuildable caches at 80%, map
// the coldest collections' float columns at 90% (a durable collection
// maps its checkpoint, others a spill file under -spill-dir; searches
// stay byte-identical), and past 100% shed work-carrying requests with
// 503 + Retry-After instead of dying. /debug/stats reports the ladder
// stage and per-collection tier under "memory".
// -pprof-addr serves net/http/pprof on a second listener (off by
// default so profiling endpoints never ride the public port). On
// SIGINT/SIGTERM the server stops accepting, drains in-flight requests
// with a bounded context (-drain-timeout), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vdbms"
	"vdbms/internal/server"
)

func main() {
	addr := flag.String("addr", ":8530", "listen address")
	queryTimeout := flag.Duration("query-timeout", 0, "per-search deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	slowQuery := flag.Duration("slow-query", 0, "log searches slower than this with their span tree (0 = off)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	dataDir := flag.String("data-dir", "", "data directory for the durable write path (empty = in-memory, nothing survives restart)")
	fsync := flag.String("fsync", "always", "WAL sync policy: always (acked writes survive power loss), interval, or never")
	checkpointInterval := flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint period (0 = only checkpoint on shutdown)")
	recallInterval := flag.Duration("recall-interval", 0, "recall loop period (audit + tuning) for every collection (0 = off)")
	recallFloor := flag.Float64("recall-floor", 0, "log a regression when a recall pass observes recall below this (0 = never)")
	targetRecall := flag.Float64("target-recall", 0, "default recall target queries are tuned to meet (0 = none; per-query target_recall overrides)")
	tuneReselect := flag.Bool("tune-reselect", false, "allow the recall loop to rebuild an index the workload has drifted away from (background, non-blocking)")
	memBudget := flag.Int64("mem-budget", 0, "process memory budget in bytes; over it the server drops caches, evicts cold collections to mmap, then sheds with 503 (0 = inherit GOMEMLIMIT; -1 = off)")
	spillDir := flag.String("spill-dir", "", "directory for the mmap-tier spill files of in-memory collections; durable ones evict onto their checkpoint (default: <data-dir>/.spill, or the OS temp dir when in-memory)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			log.Print(http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	var db *vdbms.DB
	if *dataDir == "" {
		db = vdbms.New()
	} else {
		ckpt := *checkpointInterval
		if ckpt <= 0 {
			ckpt = -1 // Durability: negative disables, 0 means default
		}
		start := time.Now()
		var err error
		db, err = vdbms.Open(*dataDir, vdbms.Durability{
			Fsync:              *fsync,
			CheckpointInterval: ckpt,
		})
		if err != nil {
			log.Fatalf("opening %s: %v", *dataDir, err)
		}
		log.Printf("recovered %d collection(s) from %s in %v (fsync=%s)",
			len(db.Collections()), *dataDir, time.Since(start).Round(time.Millisecond), *fsync)
	}
	if *recallInterval > 0 || *targetRecall > 0 {
		db.EnableRecall(vdbms.RecallOptions{
			Interval:     *recallInterval,
			RecallFloor:  *recallFloor,
			TargetRecall: *targetRecall,
			Reselect:     *tuneReselect,
		})
		log.Printf("recall loop every %v (floor %.3f, target recall %.3f, reselect %v)",
			*recallInterval, *recallFloor, *targetRecall, *tuneReselect)
	}
	opts := []server.Option{
		server.WithQueryTimeout(*queryTimeout),
		server.WithSlowQueryLog(*slowQuery),
	}
	if *memBudget >= 0 {
		dir := *spillDir
		if dir == "" {
			if *dataDir != "" {
				dir = filepath.Join(*dataDir, ".spill")
			} else {
				dir = filepath.Join(os.TempDir(), "vdbms-spill")
			}
		}
		mgr, err := db.EnableMemoryBudget(*memBudget, dir)
		if err != nil {
			log.Fatalf("enabling memory budget: %v", err)
		}
		opts = append(opts, server.WithMemoryManager(mgr))
		if b := mgr.Budget(); b >= 1<<20 {
			log.Printf("memory budget %d MiB (spill dir %s)", b>>20, dir)
		} else if b > 0 {
			log.Printf("memory budget %d bytes (spill dir %s)", b, dir)
		} else {
			log.Printf("memory accounting on, no budget (set -mem-budget or GOMEMLIMIT); spill dir %s", dir)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(db, opts...),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("vdbms-server listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("received %v, draining (up to %v)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("drain incomplete: %v (closing anyway)", err)
			srv.Close()
		}
		// Final checkpoint + WAL close, so the next boot replays nothing.
		if err := db.Close(); err != nil {
			log.Printf("closing database: %v", err)
		}
		log.Print("server stopped")
	}
}

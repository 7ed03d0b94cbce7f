package main

import (
	"bufio"
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"vdbms"
	"vdbms/internal/dataset"
	"vdbms/internal/dist"
)

// Smoke test of the -dir mode: build the binary, serve a durable
// one-collection database, run one filtered search through the RPC
// client, then SIGTERM and expect a clean drain with exit status 0.
func TestShardBinaryDirSmoke(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "vdbms-shard")
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const n, offset = 300, 1000
	ds := dataset.Clustered(n, 8, 4, 0.4, 31)
	dir := filepath.Join(tmp, "db")
	db, err := vdbms.Open(dir, vdbms.Durability{Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("docs", vdbms.Schema{Dim: ds.Dim, Attributes: map[string]string{"cat": "int"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := col.Insert(ds.Row(i), map[string]any{"cat": i % 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := col.CreateIndex("hnsw", map[string]int{"m": 8}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-offset", "1000")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck
	addrc, drained := make(chan string, 1), make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "shard serving on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(60 * time.Second):
		t.Fatal("shard never reported its address")
	}

	client, err := dist.DialShard(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Count() != n {
		t.Fatalf("count = %d, want %d", client.Count(), n)
	}
	const row = 42 // cat = 2
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hits, err := client.Search(ctx, vdbms.SearchRequest{
		Vector: ds.Row(row), K: 5,
		Filters: []vdbms.Filter{{Column: "cat", Op: "=", Value: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 || hits[0].ID != offset+row {
		t.Fatalf("hits = %v, want 5 with id %d first", hits, offset+row)
	}
	for _, h := range hits {
		if (h.ID-offset)%5 != 2 {
			t.Fatalf("hit %d violates the cat = 2 filter", h.ID)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-drained // the log pipe closes when the process exits
	if err := cmd.Wait(); err != nil {
		t.Fatalf("shard exit after SIGTERM: %v", err)
	}
}

package core

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Crash harness: the real thing, not a simulation. The test re-execs
// the test binary as a child process that opens a durable collection
// with fsync=always and streams "ACKED <id>" to stdout after each
// Insert returns (i.e. after its WAL record's group commit). The
// parent kills it with SIGKILL mid-stream, recovers the directory, and
// checks the durability contract: every acknowledged row is present
// and byte-identical, and search over the recovered collection matches
// a never-crashed control built from the same rows.
//
// SIGKILL vs power loss: kill -9 loses user-space buffers but not the
// page cache, so it proves the "no ack before the WAL write reaches
// the kernel" half of the contract; the lost-page-cache half is
// covered by TestRecoverTornTail's fault-injecting writer.

const crashDirEnv = "VDBMS_CRASH_DIR"

// crashVec derives row i's vector deterministically so parent and
// child agree without sharing state.
func crashVec(i int) []float32 {
	v := make([]float32, 8)
	for j := range v {
		v[j] = float32((i*31+j*7)%101) / 10
	}
	return v
}

// TestCrashChildProcess is the subprocess body, not a real test: it
// only runs when the parent sets the env var.
func TestCrashChildProcess(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-harness child; run via TestCrashRecoveryKill9")
	}
	c, err := CreateDurable(dir, "crash", durableSchema(), DurabilityOptions{})
	if err != nil {
		fmt.Printf("CHILD_ERR %v\n", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	for i := 0; i < 100000; i++ {
		if _, err := c.Insert(crashVec(i), durableRowAttrs(i)); err != nil {
			fmt.Printf("CHILD_ERR insert %d: %v\n", i, err)
			os.Exit(1)
		}
		// The ack line must reach the parent only after the insert is
		// acknowledged — flush per line, no buffering across inserts.
		fmt.Fprintf(w, "ACKED %d\n", i)
		w.Flush()
	}
	os.Exit(0) // never reached; the parent kills us first
}

func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run", "^TestCrashChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acks until enough rows are durable, then kill -9 mid-write.
	lastAcked := -1
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CHILD_ERR") {
			t.Fatalf("child failed: %s", line)
		}
		if id, ok := strings.CutPrefix(line, "ACKED "); ok {
			n, err := strconv.Atoi(id)
			if err != nil || n != lastAcked+1 {
				t.Fatalf("bad ack %q after %d", line, lastAcked)
			}
			lastAcked = n
		}
		if lastAcked >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child too slow")
		}
	}
	if lastAcked < 0 {
		t.Fatal("no acknowledged inserts before kill")
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no deferred checkpoint
		t.Fatal(err)
	}
	cmd.Wait() // reaps the child; the kill error is expected

	re, err := Recover(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer re.Close()

	// Every acknowledged write survived. Rows past lastAcked may also
	// exist (in flight at kill time, logged but never acked) — allowed.
	if re.Rows() < lastAcked+1 {
		t.Fatalf("recovered %d rows, but %d were acknowledged", re.Rows(), lastAcked+1)
	}
	for i := 0; i <= lastAcked; i++ {
		v, attrs, err := re.Get(int64(i))
		if err != nil {
			t.Fatalf("acked row %d lost: %v", i, err)
		}
		want := crashVec(i)
		for j := range v {
			if v[j] != want[j] {
				t.Fatalf("acked row %d float %d: %v want %v", i, j, v[j], want[j])
			}
		}
		if attrs["g"].I != int64(i%10) || attrs["s"].S != fmt.Sprintf("s%d", i%7) {
			t.Fatalf("acked row %d attrs corrupted: %+v", i, attrs)
		}
	}

	// Post-recovery search must match a never-crashed control holding
	// the same rows.
	control, err := NewCollection("control", durableSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < re.Rows(); i++ {
		if _, err := control.Insert(crashVec(i), durableRowAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	for qi := 0; qi < 5; qi++ {
		q := crashVec(qi * 17)
		filters := []Filter{{Column: "g", Op: "=", Value: qi % 10}}
		wr, err := control.Search(bg, SearchRequest{Vector: q, K: 10, Filters: filters, Policy: "plan:brute_force"})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := re.Search(bg, SearchRequest{Vector: q, K: 10, Filters: filters, Policy: "plan:brute_force"})
		if err != nil {
			t.Fatal(err)
		}
		w, g := wr.Hits, gr.Hits
		if len(w) != len(g) {
			t.Fatalf("query %d: control %d hits, recovered %d", qi, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("query %d hit %d: control %+v, recovered %+v", qi, i, w[i], g[i])
			}
		}
	}
}

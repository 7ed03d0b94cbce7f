// Package fault is the fault-tolerance toolkit behind the distributed
// read path (Section 2.3(2)): circuit breakers that let failed
// replicas heal automatically, capped-exponential-backoff retries with
// deterministic jitter, deadline helpers, and a torn writer for crash
// tests. It depends on no other package of the module, so the engine's
// own tests (internal/core, internal/wal) can use it.
package fault

import (
	"context"
	"errors"
	"time"
)

// ErrOpen is returned when a circuit breaker rejects a call without
// attempting it.
var ErrOpen = errors.New("fault: circuit open")

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case. A non-positive d returns immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

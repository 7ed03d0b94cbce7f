package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 2,
		SuccessThreshold: 2,
		Cooldown:         time.Second,
		Now:              clk.now,
	})
	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.OnFailure()
	if b.State() != Closed {
		t.Fatal("one failure below threshold must not trip")
	}
	b.OnFailure()
	if b.State() != Open {
		t.Fatal("threshold failures must open the breaker")
	}
	if b.Allow() {
		t.Fatal("open breaker within cooldown must reject")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", b.State())
	}
	// Failed probe reopens and restarts the cooldown.
	b.OnFailure()
	if b.State() != Open || b.Allow() {
		t.Fatal("failed probe must reopen")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe window")
	}
	b.OnSuccess()
	if b.State() != HalfOpen {
		t.Fatal("one probe success below SuccessThreshold must stay half-open")
	}
	if !b.Allow() {
		t.Fatal("half-open admits further probes")
	}
	b.OnSuccess()
	if b.State() != Closed {
		t.Fatal("SuccessThreshold probe successes must close")
	}
	// Closed success resets the failure streak.
	b.OnFailure()
	b.OnSuccess()
	b.OnFailure()
	if b.State() != Closed {
		t.Fatal("non-consecutive failures must not trip")
	}
}

func TestBreakerDoAndReset(t *testing.T) {
	b := NewBreaker(BreakerConfig{Cooldown: time.Hour}) // threshold 1
	boom := errors.New("boom")
	if err := b.Do(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	if err := b.Do(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Do = %v, want ErrOpen", err)
	}
	b.Reset()
	if err := b.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if b.State() != Closed {
		t.Fatal("reset must close")
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	b := NewBreaker(BreakerConfig{Cooldown: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	err := b.Do(ctx, func(c context.Context) error {
		cancel()
		return c.Err()
	})
	if err == nil {
		t.Fatal("want ctx error")
	}
	if b.State() != Closed {
		t.Fatal("caller cancellation must not trip the breaker")
	}
}

func TestRetrierDeterministicBackoff(t *testing.T) {
	cfg := RetryConfig{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 7}
	a, b := NewRetrier(cfg), NewRetrier(cfg)
	for i := 1; i <= 6; i++ {
		da, db := a.Backoff(i), b.Backoff(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da > 80*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v exceeds cap", i, da)
		}
		if i == 1 && (da < 8*time.Millisecond || da > 10*time.Millisecond) {
			t.Fatalf("first backoff %v outside jittered base range", da)
		}
	}
	// Without jitter the sequence is the exact exponential ramp.
	nr := NewRetrier(RetryConfig{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, NoJitter: true})
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := nr.Backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("no-jitter backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestRetrierDoRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	r := NewRetrier(RetryConfig{
		MaxAttempts: 4,
		NoJitter:    true,
		BaseDelay:   time.Millisecond,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil || calls != 3 || len(slept) != 2 {
		t.Fatalf("err=%v calls=%d sleeps=%v", err, calls, slept)
	}
	if slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff ramp wrong: %v", slept)
	}
}

func TestRetrierDoExhaustsAndStopsOnCancel(t *testing.T) {
	r := NewRetrier(RetryConfig{MaxAttempts: 3, BaseDelay: time.Microsecond})
	boom := errors.New("boom")
	calls := 0
	if err := r.Do(context.Background(), func(context.Context) error { calls++; return boom }); !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Cancelled context: no further attempts.
	ctx, cancel := context.WithCancel(context.Background())
	calls = 0
	err := r.Do(ctx, func(context.Context) error {
		calls++
		cancel()
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("cancel mid-attempt: err=%v calls=%d", err, calls)
	}
	if err := r.Do(ctx, func(context.Context) error { calls++; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err=%v", err)
	}
	if calls != 1 {
		t.Fatal("pre-cancelled ctx must not invoke fn")
	}
}

func TestSleep(t *testing.T) {
	if err := Sleep(context.Background(), -time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep = %v", err)
	}
}

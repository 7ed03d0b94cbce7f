package memory

import (
	"sync/atomic"
	"testing"
)

// stopped returns a manager with its actor halted so tests drive the
// ladder deterministically through Set/Add/Step.
func stopped(budget int64) *Manager {
	m := New(budget)
	m.Close()
	return m
}

func TestStageForLadder(t *testing.T) {
	const b = 1000
	cases := []struct {
		used int64
		cur  Stage
		want Stage
	}{
		{0, StageNormal, StageNormal},
		{799, StageNormal, StageNormal},
		{800, StageNormal, StageDropCaches},
		{899, StageNormal, StageDropCaches},
		{900, StageNormal, StageEvict},
		{999, StageNormal, StageEvict},
		{1000, StageNormal, StageShed},
		{5000, StageNormal, StageShed},
		// De-escalation is hysteretic: within 3% below the rung we'd
		// leave, hold position.
		{990, StageShed, StageShed},
		{969, StageShed, StageEvict},
		{880, StageEvict, StageEvict},
		{869, StageEvict, StageDropCaches},
		{780, StageDropCaches, StageDropCaches},
		{769, StageDropCaches, StageNormal},
		// Escalation has no hysteresis.
		{900, StageDropCaches, StageEvict},
		{1000, StageEvict, StageShed},
	}
	for _, c := range cases {
		if got := stageFor(c.used, b, c.cur); got != c.want {
			t.Errorf("stageFor(%d, %d, %v) = %v, want %v", c.used, b, c.cur, got, c.want)
		}
	}
}

func TestAccountingAndSyncEscalation(t *testing.T) {
	m := stopped(1000)
	a := m.Register("a")
	b := m.Register("b")
	a.Set(CatVectors, 400)
	b.Set(CatIndex, 300)
	if got := m.Resident(); got != 700 {
		t.Fatalf("resident %d, want 700", got)
	}
	if st := m.Stage(); st != StageNormal {
		t.Fatalf("stage %v, want normal", st)
	}
	// The Set that crosses the threshold flips the stage before it
	// returns — callers over budget see Shed synchronously.
	b.Add(CatIndex, 350)
	if st := m.Stage(); st != StageShed {
		t.Fatalf("stage %v after crossing budget, want shed", st)
	}
	if !m.ShouldShed() {
		t.Fatal("ShouldShed false at shed stage")
	}
	// Unregister subtracts the account's bytes and de-escalates.
	m.Unregister("b")
	if got := m.Resident(); got != 400 {
		t.Fatalf("resident %d after unregister, want 400", got)
	}
	if st := m.Stage(); st != StageNormal {
		t.Fatalf("stage %v after unregister, want normal", st)
	}
}

func TestUnlimitedBudgetNeverEscalates(t *testing.T) {
	m := stopped(0)
	a := m.Register("a")
	a.Set(CatVectors, 1<<40)
	if st := m.Stage(); st != StageNormal {
		t.Fatalf("stage %v with no budget, want normal", st)
	}
	if m.ShouldShed() {
		t.Fatal("shedding with no budget")
	}
}

func TestStepDropCachesLatch(t *testing.T) {
	m := stopped(1000)
	a := m.Register("a")
	var drops atomic.Int64
	a.OnDropCaches(func() { drops.Add(1) })
	a.Set(CatIndex, 850)
	m.Step()
	m.Step()
	m.Step()
	if got := drops.Load(); got != 1 {
		t.Fatalf("drop hook ran %d times at a held rung, want 1 (latched)", got)
	}
	// Fall below the rung, then climb back: the latch re-arms.
	a.Set(CatIndex, 100)
	m.Step()
	a.Set(CatIndex, 850)
	m.Step()
	if got := drops.Load(); got != 2 {
		t.Fatalf("drop hook ran %d times after re-escalation, want 2", got)
	}
}

func TestStepEvictsColdestFirst(t *testing.T) {
	m := stopped(1000)
	cold := m.Register("cold")
	hot := m.Register("hot")
	var evicted []string
	evict := func(a *Account, free int64) func() error {
		return func() error {
			evicted = append(evicted, a.Name())
			a.Add(CatVectors, -free)
			a.SetEvicted(true)
			return nil
		}
	}
	cold.Set(CatVectors, 500)
	cold.OnEvict(evict(cold, 500))
	hot.Set(CatVectors, 450)
	hot.OnEvict(evict(hot, 450))
	cold.Touch()
	hot.Touch() // hot touched last → cold sorts first

	m.Step()
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted %v, want [cold] (stop once under the evict threshold)", evicted)
	}
	if got := m.Evictions.Load(); got != 1 {
		t.Fatalf("eviction counter %d, want 1", got)
	}
	if st := m.Stage(); st != StageNormal {
		t.Fatalf("stage %v after remediation freed memory, want normal", st)
	}
}

func TestStepSkipsEvictedAndFailingAccounts(t *testing.T) {
	m := stopped(1000)
	done := m.Register("done")
	done.Set(CatIndex, 600) // structure bytes stay after eviction
	done.SetEvicted(true)
	done.OnEvict(func() error { t.Fatal("re-evicted an mmap-tier account"); return nil })
	stuck := m.Register("stuck")
	stuck.Set(CatVectors, 600)
	calls := 0
	stuck.OnEvict(func() error { calls++; return errTest })
	m.Step()
	if calls != 1 {
		t.Fatalf("failing evict hook called %d times, want 1", calls)
	}
	if got := m.Evictions.Load(); got != 0 {
		t.Fatalf("eviction counter %d after failures only, want 0", got)
	}
	// Over budget with nothing evictable: the ladder stays at Shed
	// rather than thrashing.
	if st := m.Stage(); st != StageShed {
		t.Fatalf("stage %v, want shed", st)
	}
}

type testErr string

func (e testErr) Error() string { return string(e) }

const errTest = testErr("evict refused")

// TestPromote: a promotion the owner performs on its own write path
// is counted by the manager.
func TestPromote(t *testing.T) {
	m := stopped(1000)
	a := m.Register("a")
	a.CountPromotion()
	if got := m.Promotions.Load(); got != 1 {
		t.Fatalf("promotion counter %d, want 1", got)
	}
}

func TestRegisterIdempotentAndStatus(t *testing.T) {
	m := stopped(1 << 20)
	a1 := m.Register("same")
	a2 := m.Register("same")
	if a1 != a2 {
		t.Fatal("Register returned two accounts for one name")
	}
	a1.Set(CatVectors, 4096)
	a1.Set(CatQuantCodes, 512)
	st := m.Status()
	if st.BudgetBytes != 1<<20 || st.ResidentBytes != 4608 || st.Stage != "normal" {
		t.Fatalf("status = %+v", st)
	}
	cs, ok := st.Collections["same"]
	if !ok {
		t.Fatal("status missing the account")
	}
	if cs.Tier != "heap" || cs.ByCategory["vectors"] != 4096 || cs.ByCategory["quant_codes"] != 512 {
		t.Fatalf("collection status = %+v", cs)
	}
	a1.SetEvicted(true)
	if got := m.Status().Collections["same"].Tier; got != "mmap" {
		t.Fatalf("tier %q after eviction, want mmap", got)
	}
}

func TestReadRSS(t *testing.T) {
	// On Linux this must report something plausible; elsewhere 0.
	rss := ReadRSS()
	if rss < 0 {
		t.Fatalf("negative RSS %d", rss)
	}
	if rss > 0 && rss < 1<<20 {
		t.Fatalf("implausibly small RSS %d for a running Go test binary", rss)
	}
}

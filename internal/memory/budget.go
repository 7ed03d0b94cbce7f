// Package memory implements the process-wide memory budget manager of
// the serving tier. Owners (collections) register accounts and
// push-account their resident bytes by category (float columns, index
// structure, quantized codes, WAL buffers); the manager compares the
// accounted total against a configurable budget and walks a
// graceful-degradation ladder instead of letting the kernel OOM-kill
// the process:
//
//	Normal      → everything heap-resident, full caches
//	DropCaches  → page/scorer caches released
//	Evict       → coldest collections' float columns moved to the
//	              mmap tier (quantized codes stay hot; exact re-rank
//	              faults pages in on demand)
//	Shed        → reads/writes refused with 503 + Retry-After
//
// Escalation is immediate (an accounting change that crosses a
// threshold flips the stage before the caller returns); de-escalation
// is hysteretic so the ladder does not flap around a threshold.
// Eviction work runs on the manager's goroutine, never on the
// accounting caller's — owners may account while holding their own
// locks, and eviction calls back into owners.
package memory

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vdbms/internal/obs"
)

// Category partitions an account's resident bytes by what holds them.
type Category int

const (
	CatVectors    Category = iota // float32 columns (heap tier only)
	CatIndex                      // graph/tree/IVF structures
	CatQuantCodes                 // quantized code blocks (never evicted)
	CatWALBuffers                 // WAL write buffers
	numCategories
)

// String returns the metric label for the category.
func (c Category) String() string {
	switch c {
	case CatVectors:
		return "vectors"
	case CatIndex:
		return "index"
	case CatQuantCodes:
		return "quant_codes"
	case CatWALBuffers:
		return "wal_buffers"
	}
	return "unknown"
}

// Stage is a rung of the degradation ladder.
type Stage int32

const (
	StageNormal Stage = iota
	StageDropCaches
	StageEvict
	StageShed
)

// String returns the metric label for the stage.
func (s Stage) String() string {
	switch s {
	case StageNormal:
		return "normal"
	case StageDropCaches:
		return "drop_caches"
	case StageEvict:
		return "evict"
	case StageShed:
		return "shed"
	}
	return "unknown"
}

// Ladder thresholds as fractions of the budget. Escalate at the
// fraction; de-escalate only once usage falls hysteresis below it.
const (
	dropFrac   = 0.80
	evictFrac  = 0.90
	shedFrac   = 1.00
	hysteresis = 0.03
)

// Account tracks one owner's resident bytes. All methods are safe for
// concurrent use; Set/Add may be called under the owner's locks.
type Account struct {
	name  string
	mgr   *Manager
	bytes [numCategories]atomic.Int64
	// lastTouch is the manager's logical clock value at the owner's
	// most recent query — the coldness signal for eviction order.
	lastTouch atomic.Int64
	// evicted marks accounts currently serving from the mmap tier.
	evicted atomic.Bool

	hookMu  sync.Mutex
	onDrop  func()       // release caches (DropCaches rung)
	onEvict func() error // move float column to mmap (Evict rung)
}

// Name returns the account's registered name.
func (a *Account) Name() string { return a.name }

// Set records the absolute resident byte count for one category.
func (a *Account) Set(cat Category, n int64) {
	old := a.bytes[cat].Swap(n)
	a.mgr.adjust(n - old)
}

// Add adjusts one category by delta bytes.
func (a *Account) Add(cat Category, delta int64) {
	if delta == 0 {
		return
	}
	a.bytes[cat].Add(delta)
	a.mgr.adjust(delta)
}

// Get returns the current byte count for one category.
func (a *Account) Get(cat Category) int64 { return a.bytes[cat].Load() }

// Resident sums all categories.
func (a *Account) Resident() int64 {
	var total int64
	for c := range a.bytes {
		total += a.bytes[c].Load()
	}
	return total
}

// Touch marks the account recently used (called per query). Purely a
// logical clock — no time syscall on the hot path.
func (a *Account) Touch() {
	a.lastTouch.Store(a.mgr.clock.Add(1))
}

// Evicted reports whether the account's column lives in the mmap tier.
func (a *Account) Evicted() bool { return a.evicted.Load() }

// CountPromotion records a promotion the owner performed on its own
// (write paths promote before mutating a read-only mapping), keeping
// the manager's counters in lockstep with hook-driven moves.
func (a *Account) CountPromotion() {
	a.mgr.Promotions.Add(1)
	obs.MemPromotions.Inc()
}

// SetEvicted records tier residency (set by the owner after it moves
// its column, including evictions it performs on its own).
func (a *Account) SetEvicted(v bool) { a.evicted.Store(v) }

// OnDropCaches registers the cache-release hook.
func (a *Account) OnDropCaches(fn func()) {
	a.hookMu.Lock()
	a.onDrop = fn
	a.hookMu.Unlock()
}

// OnEvict registers the evict-to-mmap hook. Accounts without one are
// skipped by the Evict rung.
func (a *Account) OnEvict(fn func() error) {
	a.hookMu.Lock()
	a.onEvict = fn
	a.hookMu.Unlock()
}

// Manager is the process-wide budget authority. The zero value is not
// usable; call New.
type Manager struct {
	budget   atomic.Int64
	resident atomic.Int64
	clock    atomic.Int64
	stage    atomic.Int32

	mu       sync.Mutex
	accounts map[string]*Account

	wake   chan struct{}
	done   chan struct{}
	exited chan struct{}
	stop   sync.Once

	// cachesDropped latches the DropCaches sweep so the rung acts once
	// per escalation instead of per tick.
	cachesDropped bool

	// RetryAfter is what shed responses should advertise.
	RetryAfter time.Duration

	// Counters for /debug/stats (metrics are updated in lockstep).
	Evictions  atomic.Int64
	Promotions atomic.Int64
	CacheDrops atomic.Int64
	Sheds      atomic.Int64
}

// DefaultBudget returns GOMEMLIMIT when one is set, else 0
// (unlimited). This makes `-mem-budget 0` mean "inherit the runtime
// limit", matching how operators already bound the process.
func DefaultBudget() int64 {
	lim := debug.SetMemoryLimit(-1)
	if lim > 0 && lim < math.MaxInt64 {
		return lim
	}
	return 0
}

// New creates a manager enforcing budget bytes (0 = unlimited; the
// ladder stays at Normal and only observability runs) and starts its
// background actor.
func New(budget int64) *Manager {
	m := &Manager{
		accounts:   make(map[string]*Account),
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		exited:     make(chan struct{}),
		RetryAfter: 1 * time.Second,
	}
	m.budget.Store(budget)
	obs.MemBudgetBytes.Set(float64(budget))
	go m.loop()
	return m
}

// Close stops the background actor and waits for it to exit: once
// Close returns, no remediation pass is running or will run, so owners
// can safely tear down the state the hooks reach into.
func (m *Manager) Close() {
	m.stop.Do(func() { close(m.done) })
	<-m.exited
}

// Budget returns the configured budget in bytes.
func (m *Manager) Budget() int64 { return m.budget.Load() }

// Resident returns the accounted resident total.
func (m *Manager) Resident() int64 { return m.resident.Load() }

// Stage returns the current ladder position.
func (m *Manager) Stage() Stage { return Stage(m.stage.Load()) }

// ShouldShed reports whether new work must be refused. The caller
// counts the shed (CountShed) only when it actually refuses.
func (m *Manager) ShouldShed() bool { return m.Stage() >= StageShed }

// CountShed records one refused request.
func (m *Manager) CountShed() {
	m.Sheds.Add(1)
	obs.MemShedTotal.Inc()
}

// Register creates (or returns) the account for name.
func (m *Manager) Register(name string) *Account {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.accounts[name]; ok {
		return a
	}
	a := &Account{name: name, mgr: m}
	a.lastTouch.Store(m.clock.Add(1))
	m.accounts[name] = a
	return a
}

// Unregister removes an account, subtracting its bytes.
func (m *Manager) Unregister(name string) {
	m.mu.Lock()
	a, ok := m.accounts[name]
	delete(m.accounts, name)
	m.mu.Unlock()
	if ok {
		m.adjust(-a.Resident())
	}
}

// Accounts returns a stable-ordered snapshot of account names.
func (m *Manager) Accounts() []*Account {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Account, 0, len(m.accounts))
	for _, a := range m.accounts {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// adjust applies a resident-bytes delta and recomputes the stage.
// Escalation takes effect here, synchronously, so a write that pushes
// the process over budget sees Shed before it completes; the actual
// remediation work is done by the actor goroutine.
func (m *Manager) adjust(delta int64) {
	used := m.resident.Add(delta)
	obs.MemResidentBytes.Set(float64(used))
	m.recompute(used)
}

func (m *Manager) recompute(used int64) {
	b := m.budget.Load()
	if b <= 0 {
		return
	}
	cur := Stage(m.stage.Load())
	next := stageFor(used, b, cur)
	if next != cur {
		if m.stage.CompareAndSwap(int32(cur), int32(next)) {
			obs.MemStage.Set(float64(next))
			obs.MemStageChanges.With(next.String()).Inc()
		}
	}
	if next >= StageDropCaches {
		m.kick()
	}
}

// stageFor maps usage to a rung with hysteresis on the way down.
func stageFor(used, budget int64, cur Stage) Stage {
	frac := float64(used) / float64(budget)
	var next Stage
	switch {
	case frac >= shedFrac:
		next = StageShed
	case frac >= evictFrac:
		next = StageEvict
	case frac >= dropFrac:
		next = StageDropCaches
	default:
		next = StageNormal
	}
	if next >= cur {
		return next
	}
	// De-escalate only when clearly below the rung we'd leave.
	var leaving float64
	switch cur {
	case StageShed:
		leaving = shedFrac
	case StageEvict:
		leaving = evictFrac
	case StageDropCaches:
		leaving = dropFrac
	default:
		return next
	}
	if frac >= leaving-hysteresis {
		return cur
	}
	return next
}

func (m *Manager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// loop is the actor: it performs the remediation work of whatever
// rung the ladder sits at, plus periodic /proc sampling.
func (m *Manager) loop() {
	defer close(m.exited)
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-m.wake:
		case <-t.C:
		}
		// A wake and Close can be ready simultaneously and select picks
		// at random; re-check so a closed manager never runs another pass.
		select {
		case <-m.done:
			return
		default:
		}
		m.Step()
		sampleProc()
	}
}

// Step synchronously performs one remediation pass for the current
// rung. Exposed so tests can drive the ladder deterministically.
func (m *Manager) Step() {
	st := m.Stage()
	if st >= StageDropCaches && !m.cachesDropped {
		m.dropAllCaches()
		m.cachesDropped = true
	}
	if st < StageDropCaches {
		m.cachesDropped = false
	}
	if st >= StageEvict {
		m.evictColdest()
	}
	// Publish per-category totals while we're here.
	m.publishCategories()
	// Remediation may have freed memory; re-evaluate the rung.
	m.recompute(m.resident.Load())
}

func (m *Manager) dropAllCaches() {
	for _, a := range m.Accounts() {
		a.hookMu.Lock()
		fn := a.onDrop
		a.hookMu.Unlock()
		if fn != nil {
			fn()
		}
	}
	m.CacheDrops.Add(1)
	obs.MemCacheDrops.Inc()
}

// evictColdest evicts accounts coldest-first until usage falls below
// the evict threshold (or nothing evictable remains).
func (m *Manager) evictColdest() {
	b := m.budget.Load()
	if b <= 0 {
		return
	}
	target := int64(evictFrac * float64(b))
	cands := m.Accounts()
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].lastTouch.Load() < cands[j].lastTouch.Load()
	})
	for _, a := range cands {
		if m.resident.Load() < target {
			return
		}
		if a.Evicted() {
			continue
		}
		a.hookMu.Lock()
		fn := a.onEvict
		a.hookMu.Unlock()
		if fn == nil {
			continue
		}
		if err := fn(); err != nil {
			continue // owner keeps heap residency; try the next one
		}
		// The hook sets the evicted bit itself, under the owner's lock,
		// so write-path promotions racing this pass cannot be clobbered.
		m.Evictions.Add(1)
		obs.MemEvictions.Inc()
	}
}

func (m *Manager) publishCategories() {
	var byCat [numCategories]int64
	for _, a := range m.Accounts() {
		for c := range byCat {
			byCat[c] += a.bytes[c].Load()
		}
	}
	for c := Category(0); c < numCategories; c++ {
		obs.MemCategoryBytes.With(c.String()).Set(float64(byCat[c]))
	}
}

// Status is the /debug/stats projection of the manager.
type Status struct {
	BudgetBytes   int64                       `json:"budget_bytes"`
	ResidentBytes int64                       `json:"resident_bytes"`
	Stage         string                      `json:"stage"`
	Evictions     int64                       `json:"evictions"`
	Promotions    int64                       `json:"promotions"`
	CacheDrops    int64                       `json:"cache_drops"`
	Sheds         int64                       `json:"sheds"`
	RSSBytes      int64                       `json:"rss_bytes"`
	Collections   map[string]CollectionStatus `json:"collections"`
}

// CollectionStatus is one account's projection.
type CollectionStatus struct {
	ResidentBytes int64            `json:"resident_bytes"`
	Tier          string           `json:"tier"`
	ByCategory    map[string]int64 `json:"by_category"`
}

// Status snapshots the manager for /debug/stats.
func (m *Manager) Status() Status {
	st := Status{
		BudgetBytes:   m.Budget(),
		ResidentBytes: m.Resident(),
		Stage:         m.Stage().String(),
		Evictions:     m.Evictions.Load(),
		Promotions:    m.Promotions.Load(),
		CacheDrops:    m.CacheDrops.Load(),
		Sheds:         m.Sheds.Load(),
		RSSBytes:      ReadRSS(),
		Collections:   map[string]CollectionStatus{},
	}
	for _, a := range m.Accounts() {
		cs := CollectionStatus{
			ResidentBytes: a.Resident(),
			Tier:          "heap",
			ByCategory:    map[string]int64{},
		}
		if a.Evicted() {
			cs.Tier = "mmap"
		}
		for c := Category(0); c < numCategories; c++ {
			cs.ByCategory[c.String()] = a.Get(c)
		}
		st.Collections[a.Name()] = cs
	}
	return st
}

// ReadRSS returns the process resident set size in bytes from
// /proc/self/statm, or 0 where /proc is unavailable.
func ReadRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// readMajorFaults returns cumulative major page faults from
// /proc/self/stat (field 12, majflt), or 0 where unavailable.
func readMajorFaults() int64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	// comm can contain spaces; skip past the closing paren.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is state (field 3); majflt is field 12 → index 9.
	if len(fields) < 10 {
		return 0
	}
	v, err := strconv.ParseInt(fields[9], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func sampleProc() {
	if rss := ReadRSS(); rss > 0 {
		obs.MemRSSBytes.Set(float64(rss))
	}
	obs.MemMajorFaults.Set(float64(readMajorFaults()))
}

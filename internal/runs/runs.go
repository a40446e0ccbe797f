// Package runs is the process-wide run registry of the SimMR ops
// plane: every replay, capacity sweep, replay batch, branch fan-out,
// and attribution pass registers a Run here, so a long-lived process
// (and the debug server mounted on it) can enumerate what is executing
// right now, stream live progress, and look up how recent work ended.
//
// The registry is deliberately small-surface: Begin returns a Handle,
// the running code pokes coarse progress into it (phase, done/total,
// event counters), and End retires it into a bounded ring of completed
// runs. All Handle methods are safe for concurrent use — sweeps update
// progress from many worker goroutines while HTTP scrapers snapshot —
// and the update path is a few atomic stores: the handle pushes
// nothing, and a snapshot is assembled only when someone reads one
// (GET /runs, or a /runs/{id}/stream poll).
//
// A multi-tenant `simmr serve` (parked in ROADMAP.md) would mount
// tenancy and admission on this registry; this package is the
// substrate, not the policy.
package runs

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simmr/internal/obs"
	"simmr/internal/parallel"
)

// Kind classifies a run by the entry point that registered it.
type Kind string

const (
	KindReplay Kind = "replay" // single-trace replay
	KindSweep  Kind = "sweep"  // capacity sweep grid
	KindBatch  Kind = "batch"  // replay batch
	KindBranch Kind = "branch" // what-if branch fan-out
	KindAttr   Kind = "attr"   // attribution pass
)

// Kinds lists every run kind, for per-kind metric registration.
var Kinds = []Kind{KindReplay, KindSweep, KindBatch, KindBranch, KindAttr}

// Meta is the immutable identity a run registers with.
type Meta struct {
	Kind Kind
	// Trace names the input trace; TraceHash is its content digest
	// (trace.ContentHash as %016x — the digest cache keys are built from).
	Trace     string
	TraceHash string
	// Policy names the scheduling policy; Config fingerprints the
	// engine/sweep configuration.
	Policy string
	Config string
}

// Outcome is a run's terminal state.
const (
	OutcomeRunning  = "running"
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeCanceled = "canceled"
)

// Snapshot is one point-in-time JSON view of a run — the payload of
// GET /runs, GET /runs/{id}, and every SSE frame.
type Snapshot struct {
	ID        string `json:"id"`
	Kind      Kind   `json:"kind"`
	Trace     string `json:"trace,omitempty"`
	TraceHash string `json:"trace_hash,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Config    string `json:"config,omitempty"`
	Phase     string `json:"phase,omitempty"`
	// Done/Total count the run's coarse work units (sweep cells, batch
	// entries, branches; jobs for a single replay). Total 0 means the
	// extent is unknown.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Progress is Done/Total in [0,1]; 0 when Total is unknown.
	Progress float64 `json:"progress"`
	// Events/Jobs accumulate engine totals as sub-runs finish.
	Events uint64 `json:"events"`
	Jobs   uint64 `json:"jobs"`
	// Cached counts sub-runs served from the replay result cache
	// instead of simulation; when every cell was cached the run's
	// terminal phase is "cached" so a memoized run is never mistaken
	// for a fresh one.
	Cached uint64 `json:"cached,omitempty"`
	// Outcome is "running" until End, then "ok", "error", or
	// "canceled"; Error carries the failure message.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// ElapsedSec is wall time from Begin to End (or to now while live).
	ElapsedSec float64 `json:"elapsed_sec"`
	// FlightDumps counts the post-mortem captures available at
	// /runs/{id}/flight.
	FlightDumps int `json:"flight_dumps,omitempty"`
}

// ended captures a run's terminal state in one immutable record,
// published via atomic pointer so Snapshot never locks.
type ended struct {
	at      time.Time
	outcome string
	errMsg  string
}

// Handle is one registered run. All methods are safe for concurrent
// use and cheap enough to call from progress callbacks; a nil Handle
// is inert, so callers wire registration with a single `if reg != nil`
// at the top and call methods unconditionally.
type Handle struct {
	id    string
	meta  Meta
	start time.Time
	reg   *Registry

	phase  atomic.Pointer[string]
	policy atomic.Pointer[string] // named after Begin (NamePolicy)
	done   atomic.Int64
	total  atomic.Int64
	events atomic.Uint64
	jobs   atomic.Uint64
	cached atomic.Uint64
	end    atomic.Pointer[ended]

	flightMu sync.Mutex
	flights  []*obs.FlightRecorder
	dumps    []*obs.FlightDump
}

// maxFlightDumps bounds the retained post-mortems per run; older dumps
// are evicted oldest-first.
const maxFlightDumps = 8

// ID returns the run's ULID-style identifier.
func (h *Handle) ID() string {
	if h == nil {
		return ""
	}
	return h.id
}

// NamePolicy names the run's policy, when Begin's Meta did not, once a
// cell has built it: a sweep's PolicyFactory is called per replay only.
func (h *Handle) NamePolicy(name string) {
	if h != nil && h.meta.Policy == "" && h.policy.Load() == nil {
		named := name
		h.policy.CompareAndSwap(nil, &named)
	}
}

// SetPhase records the run's current phase ("replay", "prefix",
// "branches", "merge", ...).
func (h *Handle) SetPhase(phase string) {
	if h == nil {
		return
	}
	h.phase.Store(&phase)
}

// Progress records absolute completion (done of total work units).
// Out-of-order calls are tolerated the same way parallel.ProgressFunc
// demands: the maximum done value wins.
func (h *Handle) Progress(done, total int) {
	if h == nil {
		return
	}
	storeMax(&h.done, int64(done))
	h.total.Store(int64(total))
}

// ProgressFunc adapts the handle to parallel.MapProgress's callback,
// composing with next (which may be nil) so CLIs keep their stderr
// renderers while the registry observes the same stream.
func (h *Handle) ProgressFunc(next parallel.ProgressFunc) parallel.ProgressFunc {
	if h == nil {
		return next
	}
	return func(done, total int) {
		h.Progress(done, total)
		if next != nil {
			next(done, total)
		}
	}
}

// AddEvents accumulates engine event totals (per finished sub-run).
func (h *Handle) AddEvents(n uint64) {
	if h == nil {
		return
	}
	h.events.Add(n)
}

// AddJobs accumulates completed-job totals.
func (h *Handle) AddJobs(n uint64) {
	if h == nil {
		return
	}
	h.jobs.Add(n)
}

// AddCached accumulates sub-runs served from the replay result cache.
func (h *Handle) AddCached(n uint64) {
	if h == nil {
		return
	}
	h.cached.Add(n)
}

// End retires the run: nil err means OutcomeOK, context cancellation
// becomes OutcomeCanceled, anything else OutcomeError. Exactly the
// first call wins, and from then on every Snapshot is the final one.
// The handle moves from the registry's active set to its completed
// ring, keeping its flight dumps but not the recorders they came from
// (releaseFlights).
func (h *Handle) End(err error) {
	if h == nil {
		return
	}
	rec := &ended{at: time.Now(), outcome: OutcomeOK}
	if err != nil {
		rec.outcome = OutcomeError
		rec.errMsg = err.Error()
		if isCanceled(err) {
			rec.outcome = OutcomeCanceled
		}
	}
	if !h.end.CompareAndSwap(nil, rec) {
		return
	}
	h.releaseFlights()
	if h.reg != nil {
		h.reg.retire(h)
	}
}

// Snapshot assembles the current JSON view.
func (h *Handle) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	// Load end before the counters: a snapshot that sees End then also
	// sees every update made before End, so a final frame carries the
	// final totals.
	rec := h.end.Load()
	s := Snapshot{
		ID: h.id, Kind: h.meta.Kind,
		Trace: h.meta.Trace, TraceHash: h.meta.TraceHash,
		Policy: h.meta.Policy, Config: h.meta.Config,
		Done:    int(h.done.Load()),
		Total:   int(h.total.Load()),
		Events:  h.events.Load(),
		Jobs:    h.jobs.Load(),
		Cached:  h.cached.Load(),
		Outcome: OutcomeRunning,
	}
	if p := h.phase.Load(); p != nil {
		s.Phase = *p
	}
	if p := h.policy.Load(); p != nil {
		s.Policy = *p
	}
	if s.Total > 0 {
		s.Progress = float64(s.Done) / float64(s.Total)
		if s.Progress > 1 {
			s.Progress = 1
		}
	}
	if rec != nil {
		s.Outcome = rec.outcome
		s.Error = rec.errMsg
		s.ElapsedSec = rec.at.Sub(h.start).Seconds()
	} else {
		s.ElapsedSec = time.Since(h.start).Seconds()
	}
	h.flightMu.Lock()
	s.FlightDumps = len(h.flightDumpsLocked())
	h.flightMu.Unlock()
	return s
}

// storeMax raises a to at least v (monotonic progress under
// out-of-order reporters).
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// isCanceled reports whether err is, or wraps, a context cancellation
// or deadline.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Registry tracks the process's runs: a live set plus a bounded ring
// of completed ones, newest first. The zero value is not usable; use
// New or the process-wide Default.
type Registry struct {
	mu      sync.Mutex
	active  map[string]*Handle
	recent  []*Handle // completed, oldest first; bounded by cap
	cap     int
	started map[Kind]uint64
	rng     *rand.Rand
}

// DefaultRecent is Default's completed-run ring capacity.
const DefaultRecent = 256

// New builds a registry retaining the last recentCap completed runs
// (<= 0 selects DefaultRecent).
func New(recentCap int) *Registry {
	if recentCap <= 0 {
		recentCap = DefaultRecent
	}
	return &Registry{
		active:  make(map[string]*Handle),
		cap:     recentCap,
		started: make(map[Kind]uint64),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// defaultRegistry is the process-wide registry the debug server
// serves; CLIs register their runs here when -debug-addr is set.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = New(DefaultRecent) })
	return defaultReg
}

// Begin registers a new run and returns its handle. Safe for
// concurrent use. A nil registry returns a nil handle, which is inert
// — callers need no branching.
func (r *Registry) Begin(meta Meta) *Handle {
	if r == nil {
		return nil
	}
	now := time.Now()
	h := &Handle{meta: meta, start: now, reg: r}
	r.mu.Lock()
	h.id = newID(now, r.rng)
	for r.active[h.id] != nil { // vanishingly unlikely collision
		h.id = newID(now, r.rng)
	}
	r.active[h.id] = h
	r.started[meta.Kind]++
	r.mu.Unlock()
	return h
}

// retire moves a handle from active to the completed ring.
func (r *Registry) retire(h *Handle) {
	r.mu.Lock()
	delete(r.active, h.id)
	r.recent = append(r.recent, h)
	if len(r.recent) > r.cap {
		// Shift in place; the ring is small and retirement is cold.
		n := copy(r.recent, r.recent[len(r.recent)-r.cap:])
		r.recent = r.recent[:n]
	}
	r.mu.Unlock()
}

// Get resolves an ID — exact, unique-prefix, or the literal "latest"
// (most recently started live run, else most recently completed).
func (r *Registry) Get(id string) *Handle {
	if r == nil {
		return nil
	}
	if id == "latest" || id == "" {
		return r.Latest()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.active[id]; h != nil {
		return h
	}
	for _, h := range r.recent {
		if h.id == id {
			return h
		}
	}
	// Unique prefix (>= 4 chars, so a bare "0" can't match everything
	// started the same second).
	if len(id) < 4 {
		return nil
	}
	var match *Handle
	matches := 0
	scan := func(h *Handle) {
		if len(h.id) > len(id) && h.id[:len(id)] == id {
			match = h
			matches++
		}
	}
	for _, h := range r.active {
		scan(h)
	}
	for _, h := range r.recent {
		scan(h)
	}
	if matches == 1 {
		return match
	}
	return nil
}

// Latest returns the most recently started live run, or failing that
// the most recently completed one.
func (r *Registry) Latest() *Handle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *Handle
	for _, h := range r.active {
		if best == nil || h.start.After(best.start) {
			best = h
		}
	}
	if best == nil && len(r.recent) > 0 {
		best = r.recent[len(r.recent)-1]
	}
	return best
}

// List snapshots every known run: live first (newest start first),
// then completed (newest first).
func (r *Registry) List() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	live := make([]*Handle, 0, len(r.active))
	for _, h := range r.active {
		live = append(live, h)
	}
	done := make([]*Handle, len(r.recent))
	copy(done, r.recent)
	r.mu.Unlock()

	sort.Slice(live, func(i, j int) bool { return live[i].start.After(live[j].start) })
	out := make([]Snapshot, 0, len(live)+len(done))
	for _, h := range live {
		out = append(out, h.Snapshot())
	}
	for i := len(done) - 1; i >= 0; i-- {
		out = append(out, done[i].Snapshot())
	}
	return out
}

// Active returns the number of live runs — the simmr_runs_active
// gauge.
func (r *Registry) Active() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Started returns how many runs of the kind have ever begun — the
// simmr_runs_started_total counter family.
func (r *Registry) Started(k Kind) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started[k]
}

// crockford is ULID's base32 alphabet (no I, L, O, U).
const crockford = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

// newID builds a ULID-style identifier: 48 bits of millisecond
// timestamp then 80 bits of randomness, base32, 26 chars,
// lexicographically sortable by start time. Called under the registry
// lock (the rng is not concurrency-safe).
func newID(now time.Time, rng *rand.Rand) string {
	var b [16]byte
	ms := uint64(now.UnixMilli())
	b[0], b[1], b[2] = byte(ms>>40), byte(ms>>32), byte(ms>>24)
	b[3], b[4], b[5] = byte(ms>>16), byte(ms>>8), byte(ms)
	r1, r2 := rng.Uint64(), rng.Uint64()
	for i := 0; i < 8; i++ {
		b[6+i] = byte(r1 >> (8 * i))
	}
	b[14], b[15] = byte(r2), byte(r2>>8)

	// 16 bytes = 128 bits → 26 base32 chars (130 bits, top 2 zero).
	var out [26]byte
	var acc uint64
	bits := 0
	pos := 25
	for i := 15; i >= 0; i-- {
		acc |= uint64(b[i]) << bits
		bits += 8
		for bits >= 5 && pos >= 0 {
			out[pos] = crockford[acc&31]
			acc >>= 5
			bits -= 5
			pos--
		}
	}
	for pos >= 0 {
		out[pos] = crockford[acc&31]
		acc >>= 5
		pos--
	}
	return string(out[:])
}

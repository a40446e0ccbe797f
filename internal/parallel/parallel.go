// Package parallel provides the bounded worker pool behind SimMR's
// parallel replay runtime: capacity sweeps, replay batches, and the
// embarrassingly-parallel experiment grids all fan independent
// simulation runs across cores through it.
//
// The pool makes three guarantees the callers rely on:
//
//   - Deterministic collection: results come back indexed exactly as the
//     inputs were ordered, regardless of which worker finished first, so
//     a parallel grid is byte-identical to its serial counterpart.
//   - First-error aggregation: the error of the lowest-indexed failing
//     task is returned (the same error a serial in-order loop would have
//     surfaced first); remaining tasks are canceled promptly.
//   - Cancellation: the context passed to Map/ForEachProgress flows to every
//     task; canceling it stops the pool early.
//   - Bounded progress reporting: a ProgressFunc passed to
//     MapProgress/ForEachProgress is invoked at most once per
//     MinProgressInterval (plus one final call), claimed via a single
//     compare-and-swap — workers that lose the claim proceed
//     immediately, so progress reporting never serializes the pool no
//     matter how slow the callback is.
//
// Simulation runs share immutable inputs (traces, templates, pools of
// profiled jobs) read-only; all mutable state lives inside each run's
// engine. See DESIGN.md "Concurrency model".
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ProgressFunc receives completion progress: done tasks out of total.
// Guarantees (see MapProgress):
//
//   - Calls are rate-bounded: successive invocations are at least
//     MinProgressInterval apart, except the final call, which is always
//     delivered exactly once after the pool stops — (total, total) on
//     success, (done, total) with done < total when the run failed or
//     was canceled, so a renderer can terminate an in-place progress
//     line either way.
//   - Calls are delivered from worker goroutines; with workers > 1 two
//     rate windows can overlap (a slow callback does not delay the
//     next window's claim), so implementations must be safe for
//     concurrent invocation and tolerate out-of-order done values —
//     render max(done) seen, not the latest argument. The final call of
//     a failed run is the exception: it arrives after every worker has
//     stopped, with no concurrent siblings.
//   - The pool never blocks on the callback: a worker that isn't the
//     one elected to report continues to its next task untouched.
type ProgressFunc func(done, total int)

// MinProgressInterval is the minimum spacing between ProgressFunc
// invocations (final call excepted). The bound is what keeps progress
// reporting off the critical path: with T tasks the callback runs
// O(runtime/MinProgressInterval) times, not O(T).
const MinProgressInterval = 100 * time.Millisecond

// progress is the rate-bounded completion counter shared by the
// workers of one Map call.
type progress struct {
	fn    ProgressFunc
	total int
	done  atomic.Int64
	final atomic.Bool  // the guaranteed last call has been delivered
	last  atomic.Int64 // wall nanos of the last claimed rate window
}

// newProgress pre-claims the window opening now, so the first
// intermediate call lands one full MinProgressInterval later and an
// instantly-completing first task does not report.
func newProgress(fn ProgressFunc, total int) *progress {
	if fn == nil {
		return nil
	}
	p := &progress{fn: fn, total: total}
	p.last.Store(time.Now().UnixNano())
	return p
}

// elect reports whether the caller won the current rate window: within
// each MinProgressInterval exactly one caller wins a single
// compare-and-swap, and the losers return at once without blocking.
func (p *progress) elect() bool {
	now := time.Now().UnixNano()
	last := p.last.Load()
	if now-last < int64(MinProgressInterval) {
		return false
	}
	return p.last.CompareAndSwap(last, now)
}

// tick records one completed task and invokes the callback if this
// worker wins the rate-window claim. Completing the final task always
// reports, regardless of the window.
func (p *progress) tick() {
	if p == nil {
		return
	}
	d := int(p.done.Add(1))
	if d >= p.total {
		if p.final.CompareAndSwap(false, true) {
			p.fn(d, p.total)
		}
		return
	}
	if p.elect() {
		p.fn(d, p.total)
	}
}

// abort delivers the guaranteed final call for a run that failed or was
// canceled before completing: exactly once, with the completed count
// (done < total). Callers invoke it only after every worker has
// stopped, so unlike tick it never races a sibling callback.
func (p *progress) abort() {
	if p == nil {
		return
	}
	if p.final.CompareAndSwap(false, true) {
		p.fn(int(p.done.Load()), p.total)
	}
}

// Workers resolves a worker-count request: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS), and the count is never more
// than n, the number of tasks.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded pool of
// workers and returns the n results in index order. workers <= 0 uses
// one worker per CPU. On failure the lowest-indexed task error is
// returned and the remaining tasks are canceled; the partial results
// are discarded. fn must be safe for concurrent invocation when
// workers > 1.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapProgress(ctx, workers, n, nil, fn)
}

// MapProgress is Map with completion reporting: after each successful
// task, progress (when non-nil) may be invoked with the number of
// completed tasks, rate-bounded to one call per MinProgressInterval
// plus a guaranteed final call — (n, n) on success, (done, n) with
// done < n when the run fails or is canceled — see ProgressFunc for
// the delivery contract.
func MapProgress[T any](ctx context.Context, workers, n int, progressFn ProgressFunc, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	prog := newProgress(progressFn, n)
	if err := ctx.Err(); err != nil {
		prog.abort()
		return nil, err
	}
	out := make([]T, n)
	workers = Workers(workers, n)
	if workers == 1 {
		// Serial fast path: identical semantics, no goroutine overhead.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				prog.abort()
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				prog.abort()
				return nil, err
			}
			out[i] = v
			prog.tick()
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
				out[i] = v
				prog.tick()
			}
		}()
	}
	wg.Wait()

	if err := firstError(errs); err != nil {
		prog.abort()
		return nil, err
	}
	// The parent context may have been canceled with no task reporting it
	// (workers observe cctx before claiming an index).
	if err := ctx.Err(); err != nil {
		prog.abort()
		return nil, err
	}
	return out, nil
}

// ForEachProgress runs fn(ctx, i) for every i in [0, n) on a bounded
// pool, with the same ordering, error, cancellation and completion
// reporting guarantees as MapProgress.
func ForEachProgress(ctx context.Context, workers, n int, progressFn ProgressFunc, fn func(ctx context.Context, i int) error) error {
	_, err := MapProgress(ctx, workers, n, progressFn, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// firstError picks the lowest-indexed real failure. Cancellation errors
// are only reported when no task failed for a substantive reason: once
// one task fails, siblings that were already running may return
// context.Canceled, and those must not mask the root cause.
func firstError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("cell-%03d", i), nil
	}
	serial, err := Map(context.Background(), 1, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), 8, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel diverged from serial:\n%v\n%v", serial, par)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			if i == 3 || i == 30 {
				return 0, fmt.Errorf("task %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// Workers race, but the reported failure is always a substantive
		// one, never a cancellation of an innocent sibling.
		if errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancellation masked the root cause: %v", workers, err)
		}
	}
}

func TestMapErrorStopsRemainingWork(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 1000, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 10 {
		t.Fatalf("%d tasks ran after the failure; pool did not stop", n)
	}
}

// TestMapContextCancellation bounds the tasks that start once cancel has
// returned: a worker checks the context before it claims a task, so each
// one can have claimed at most one task before seeing it done. Tasks that
// start before cancel runs are not bounded — another worker can finish
// any number of them before task 1 gets to run.
func TestMapContextCancellation(t *testing.T) {
	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled atomic.Bool
	var late atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, workers, 1000, func(ctx context.Context, i int) (int, error) {
			if cancelled.Load() {
				late.Add(1)
			}
			if i == 1 {
				cancel()
				cancelled.Store(true)
			}
			return i, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not stop after cancellation")
	}
	if n := late.Load(); n > workers {
		t.Fatalf("%d tasks started after cancellation, want at most %d", n, workers)
	}
}

func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 10, func(_ context.Context, i int) (int, error) {
		t.Error("fn ran under pre-canceled context")
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachProgress(t *testing.T) {
	out := make([]int, 64)
	err := ForEachProgress(context.Background(), 0, len(out), nil, func(_ context.Context, i int) error {
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0, 8); w < 1 {
		t.Fatalf("Workers(0,8) = %d", w)
	}
	if w := Workers(16, 4); w != 4 {
		t.Fatalf("Workers(16,4) = %d, want 4 (clamped to n)", w)
	}
	if w := Workers(3, 100); w != 3 {
		t.Fatalf("Workers(3,100) = %d", w)
	}
}

func TestMapProgressFinalOnSuccess(t *testing.T) {
	var finals atomic.Int64
	var last atomic.Int64
	_, err := MapProgress(context.Background(), 4, 50, func(done, total int) {
		if done >= total {
			finals.Add(1)
		}
		last.Store(int64(done))
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if finals.Load() != 1 {
		t.Fatalf("final (total,total) calls = %d, want exactly 1", finals.Load())
	}
	if last.Load() != 50 {
		t.Fatalf("last reported done = %d, want 50", last.Load())
	}
}

func TestMapProgressFinalOnFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		var lastDone, lastTotal atomic.Int64
		boom := errors.New("boom")
		_, err := MapProgress(context.Background(), workers, 40, func(done, total int) {
			calls.Add(1)
			lastDone.Store(int64(done))
			lastTotal.Store(int64(total))
		}, func(_ context.Context, i int) (int, error) {
			if i == 20 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if calls.Load() == 0 {
			t.Fatalf("workers=%d: no final progress call on failed run", workers)
		}
		if got := int(lastDone.Load()); got >= 40 {
			t.Fatalf("workers=%d: aborted final reported done = %d, want < total", workers, got)
		}
		if lastTotal.Load() != 40 {
			t.Fatalf("workers=%d: total = %d", workers, lastTotal.Load())
		}
	}
}

func TestMapProgressFinalOnPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	_, err := MapProgress(ctx, 1, 10, func(done, total int) {
		calls.Add(1)
		if done != 0 || total != 10 {
			t.Errorf("final call = (%d, %d), want (0, 10)", done, total)
		}
	}, func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("final calls = %d, want exactly 1", calls.Load())
	}
}

// The rate window opening at creation is pre-claimed; once a window has
// passed, concurrent reporters elect one winner per window.
func TestProgressElectsOnePerWindow(t *testing.T) {
	p := newProgress(func(int, int) {}, 10)
	if p.elect() {
		t.Fatal("first window should be pre-claimed at creation")
	}
	p.last.Store(0)
	start := time.Now()
	var wins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.elect() {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	windows := 1 + int64(time.Since(start)/MinProgressInterval)
	if n := wins.Load(); n < 1 || n > windows {
		t.Fatalf("%d winners over %d rate window(s), want 1 per window", n, windows)
	}
}

// TestForEachProgressFinalOnSuccess: ForEachProgress reports completion
// as MapProgress does — exactly one final (total, total) call.
func TestForEachProgressFinalOnSuccess(t *testing.T) {
	var finals, last atomic.Int64
	err := ForEachProgress(context.Background(), 4, 50, func(done, total int) {
		if done >= total {
			finals.Add(1)
		}
		last.Store(int64(done))
	}, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if finals.Load() != 1 {
		t.Fatalf("final (total,total) calls = %d, want exactly 1", finals.Load())
	}
	if last.Load() != 50 {
		t.Fatalf("last reported done = %d, want 50", last.Load())
	}
}

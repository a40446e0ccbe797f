package telemetry

import (
	"io"
	"math"
	"sync"
	"testing"
)

func TestCounterSums(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "test")
	for n := uint64(1); n <= 4; n++ {
		c.Add(n)
	}
	c.Inc()
	if got := c.Value(); got != 1+2+3+4+1 {
		t.Fatalf("Value() = %d, want 11", got)
	}
}

func TestMaxGaugeMergesByMax(t *testing.T) {
	r := NewRegistry()
	g := r.NewMaxGauge("g", "test")
	g.Observe(5)
	g.Observe(9)
	g.Observe(7) // lower than the current max: ignored
	g.Observe(3)
	if got := g.Value(); got != 9 {
		t.Fatalf("Value() = %g, want 9", got)
	}
}

func TestHistogramBucketsAndMerge(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "test", []float64{1, 5, 10})
	h.Observe(0.5) // le=1
	h.Observe(1)   // le=1: bounds are inclusive upper bounds
	h.Observe(3)   // le=5
	h.Observe(10)  // le=10
	h.Observe(11)  // overflow (+Inf)
	s := h.Snapshot()
	if want := []uint64{2, 1, 1, 1}; len(s.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(want))
	} else {
		for i, w := range want {
			if s.Buckets[i] != w {
				t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
			}
		}
	}
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if want := 0.5 + 1 + 3 + 10 + 11; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", s.Sum, want)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate family name did not panic")
		}
	}()
	r.NewCounter("dup", "second")
}

// TestConcurrentWritersAndScraper is the registry's contract under
// -race: many writers hammer the same cells with atomics while a
// scraper goroutine loops the read paths (WritePrometheus, Value,
// Snapshot). After the writers join, the values must be exact — no
// update may be lost to a contended CAS or a concurrent scrape.
func TestConcurrentWritersAndScraper(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	r := NewRegistry()
	c := r.NewCounter("stress_total", "test")
	g := r.NewMaxGauge("stress_max", "test")
	h := r.NewHistogram("stress_hist", "test", []float64{100, 1000, 10000})

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			_ = c.Value()
			_ = g.Value()
			_ = h.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				c.Inc()
				g.Observe(float64(w*perG + i))
				h.Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	if got := g.Value(); got != float64((writers-1)*perG+perG) {
		t.Errorf("max gauge = %g, want %d", got, writers*perG)
	}
	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Errorf("histogram count = %d, want %d", s.Count, writers*perG)
	}
	// Each writer observes 1..perG: 100 land in le=100, 900 in le=1000,
	// the rest in le=10000, none overflow.
	if s.Buckets[0] != writers*100 || s.Buckets[1] != writers*900 ||
		s.Buckets[2] != writers*(perG-1000) || s.Buckets[3] != 0 {
		t.Errorf("histogram buckets = %v", s.Buckets)
	}
	// Every partial sum is an integer well below 2^53, so the sum is
	// exact whatever order the CAS loops land in.
	if want := float64(writers) * float64(perG) * float64(perG+1) / 2; s.Sum != want {
		t.Errorf("histogram sum = %g, want %g", s.Sum, want)
	}
}

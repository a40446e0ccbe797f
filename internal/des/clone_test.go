package des

import (
	"math/rand"
	"testing"
)

// populate pushes a deterministic pseudo-random schedule — some of it
// at the current instant, some reserved and left open — pops a prefix of
// it, and returns the queue mid-flight: records in the heap and the
// same-instant lane, reservations outstanding, nonzero fired counter.
func populate(t *testing.T, rng *rand.Rand, pushes, pops int) *Lanes {
	t.Helper()
	q := &Lanes{}
	var ev Record
	for i := 0; i < pushes; i++ {
		switch {
		case i%11 == 10:
			q.Reserve()
		case i%5 == 4 && i < pops && q.Pop(&ev):
			q.Push(ev.Time, uint8(i%7), i, i%5) // same-instant lane
		default:
			q.Push(rng.Float64()*1000, uint8(i%7), i, i%5)
		}
	}
	for i := 0; i < pops; i++ {
		q.Pop(&ev)
	}
	return q
}

// drain pops the queue to empty (of records; reservations stay).
func drain(q *Lanes) []Record {
	var out []Record
	var ev Record
	for q.Pop(&ev) {
		out = append(out, ev)
	}
	return out
}

// TestCloneIntoPopOrder pins the core clone property: the clone pops
// the exact same sequence as the source, and counters carry over so a
// simulator resuming on the clone is indistinguishable from one that
// kept running on the source.
func TestCloneIntoPopOrder(t *testing.T) {
	src := populate(t, rand.New(rand.NewSource(7)), 500, 180)
	var dst Lanes
	src.CloneInto(&dst)

	if got, want := dst.Len(), src.Len(); got != want {
		t.Fatalf("clone Len = %d, want %d", got, want)
	}
	if got, want := dst.Fired(), src.Fired(); got != want {
		t.Fatalf("clone Fired = %d, want %d", got, want)
	}
	if got, want := dst.HighWater(), src.HighWater(); got != want {
		t.Fatalf("clone HighWater = %d, want %d", got, want)
	}
	if src.Push(2000, 0, 0, 0) != dst.Push(2000, 0, 0, 0) {
		t.Fatal("clone mints a different next seq")
	}

	srcSeq := drain(src)
	dstSeq := drain(&dst)
	if len(srcSeq) != len(dstSeq) {
		t.Fatalf("drained %d events from clone, want %d", len(dstSeq), len(srcSeq))
	}
	for i := range srcSeq {
		if srcSeq[i] != dstSeq[i] {
			t.Fatalf("pop %d diverged: src %+v clone %+v", i, srcSeq[i], dstSeq[i])
		}
	}
	if src.Len() == 0 || src.Len() != dst.Len() {
		t.Fatalf("open reservations after the drain: src %d clone %d, want equal and nonzero", src.Len(), dst.Len())
	}
}

// TestCloneIntoSourceUnchanged verifies cloning is non-destructive and
// repeatable: popping the clone leaves the source intact, and a second
// clone still matches.
func TestCloneIntoSourceUnchanged(t *testing.T) {
	src := populate(t, rand.New(rand.NewSource(3)), 200, 50)
	wantLen, wantFired := src.Len(), src.Fired()

	var c1 Lanes
	src.CloneInto(&c1)
	drain(&c1)

	if src.Len() != wantLen || src.Fired() != wantFired {
		t.Fatalf("source mutated by clone drain: len %d fired %d, want %d/%d",
			src.Len(), src.Fired(), wantLen, wantFired)
	}
	var c2 Lanes
	src.CloneInto(&c2)
	srcSeq := drain(src)
	c2Seq := drain(&c2)
	for i := range srcSeq {
		if srcSeq[i] != c2Seq[i] {
			t.Fatalf("second clone diverged at pop %d", i)
		}
	}
}

// TestCloneIntoRecyclesDst pins the pooled-destination contract: a dirty
// destination queue (pending records, popped history, warmed lanes) is
// fully overwritten, its storage reused — and a steady-state re-clone
// into the same destination allocates nothing beyond the first clone's
// warmup.
func TestCloneIntoRecyclesDst(t *testing.T) {
	src := populate(t, rand.New(rand.NewSource(5)), 400, 100)
	dst := populate(t, rand.New(rand.NewSource(6)), 350, 300)

	src.CloneInto(dst)
	got := drain(dst)
	src2 := populate(t, rand.New(rand.NewSource(5)), 400, 100)
	want := drain(src2)
	if len(got) != len(want) {
		t.Fatalf("recycled clone drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled clone diverged at pop %d", i)
		}
	}

	// Steady state: clone → drain → clone into the same dst must not
	// allocate (lanes sized by the first pass).
	var ev Record
	allocs := testing.AllocsPerRun(20, func() {
		src.CloneInto(dst)
		for dst.Pop(&ev) {
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state CloneInto allocated %.1f/op, want 0", allocs)
	}
}

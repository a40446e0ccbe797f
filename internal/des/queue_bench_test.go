package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkLanes is shaped like the engine's use of all three lanes: N
// job arrivals preloaded as the schedule, at most 128 timed departures
// in flight, and every second push at the current instant (task
// arrivals, stage completions, job departures). ns/op reads as "cost
// per event through the queue in a replay of N jobs" and must not grow
// with N.
func BenchmarkLanes(b *testing.B) {
	for _, jobs := range []int{4_000, 100_000} {
		b.Run(fmt.Sprintf("replay=%d", jobs), func(b *testing.B) { benchReplayShaped(b, jobs) })
	}
}

// benchReplayShaped drains a schedule of n arrivals 60 s apart, over
// and over. Each arrival fans out the way a job fans out into tasks:
// four same-instant hand-offs, each starting a chain of three timed
// departures (at most 128 in flight) with a same-instant hand-off
// between one departure and the next — 25 events per arrival, every
// second push at the current instant.
func benchReplayShaped(b *testing.B, n int) {
	const (
		evArrival = iota
		evDeparture
		evHandOff
		slots = 128
	)
	sched := make([]Arrival, n)
	for i := range sched {
		sched[i] = Arrival{Time: Time(i) * 60, JobID: i}
	}
	rng := rand.New(rand.NewSource(9))
	var q Lanes
	var e Record
	inFlight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.Pop(&e) {
			q.Reset()
			q.Preload(evArrival, sched)
			q.Pop(&e)
		}
		now, left := e.Time, int(e.Task)
		switch e.Type {
		case evArrival:
			for k := 0; k < 4; k++ {
				q.Push(now, evHandOff, i, 3)
			}
		case evDeparture:
			inFlight--
			if left > 1 {
				q.Push(now, evHandOff, i, left-1)
			}
		case evHandOff:
			if inFlight < slots {
				inFlight++
				q.Push(now+1+rng.Float64()*600, evDeparture, i, left)
			}
		}
	}
}

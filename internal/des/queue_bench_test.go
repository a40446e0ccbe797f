package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventQueue measures the pointer queue's hot mix — push, pop,
// and update — at a steady population of timed events: what a simulator
// pushing its whole arrival list up front (mumak, the cluster emulator)
// sees. Each iteration performs one pop+free, one push, and (every 8th)
// one update, so ns/op reads as "cost per event through the heap".
func BenchmarkEventQueue(b *testing.B) {
	for _, population := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("live=%d", population), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			var q EventQueue
			live := make([]*Event, 0, population)
			now := 0.0
			for i := 0; i < population; i++ {
				live = append(live, q.PushTask(now+rng.Float64()*1000, 0, i, i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.Pop()
				now = e.Time
				slot := e.Task % population
				q.Free(e)
				live[slot] = q.PushTask(now+rng.Float64()*1000, 0, i, slot)
				if i%8 == 0 {
					u := live[(slot+population/2)%population]
					if u.Scheduled() {
						q.Update(u, now+rng.Float64()*500)
					}
				}
			}
		})
	}
}

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

// BenchmarkEventQueuePushPopChurn is the degenerate fill-then-drain
// cycle: no steady population, maximal sift depth on every pop.
func BenchmarkEventQueuePushPopChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var q EventQueue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Float64()*1e6, 0, i, nil)
		if q.Len() > 4096 {
			for q.Len() > 0 {
				q.Free(q.Pop())
			}
		}
	}
}

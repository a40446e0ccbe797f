package plan

import (
	"math"

	"simmr/internal/engine"
	"simmr/internal/obs"
)

// copyInto copies res into dst, reusing dst's Jobs array.
func copyInto(dst, res *engine.Result) *engine.Result {
	jobs := append(dst.Jobs[:0], res.Jobs...)
	*dst = *res
	dst.Jobs = jobs
	return dst
}

// passed counts what a gate has passed on of a stream: events, and
// depth samples.
type passed struct{ events, depth uint64 }

// gate passes a replay's stream on to one follower's own sink for as
// long as it is the follower's own stream, less what an earlier gate
// already passed on. It counts the slots of each kind the lead holds,
// from the stream's slot allocations and releases. While every round of a replay ends holding fewer slots of a
// kind than both clusters have, the round stopped because no job wanted
// another slot, not for want of one, so the follower makes the same
// policy calls and grants (the induction of "Capacity above the peak",
// up to a round rather than over the whole replay). So for each kind
// whose counts differ the gate closes just before the first allocation
// that takes the lead's holding to the smaller count: everything before
// it is the follower's stream, events, depth samples and all. A gate
// still open at the end forwards RunEnd, and stays open exactly when
// engine.Answers holds for the lead's Result. Closing records what was
// passed on with the follower and hands it off (cut); the gate forwards
// nothing after that.
type gate struct {
	f     *pending
	sink  obs.Sink // the follower's own sink; nil when it builds none
	feed  obs.Feed
	depth obs.DepthSampler
	cut   func()

	// The lead's holding of each kind, and the holding at which the gate
	// closes (math.MaxInt when both clusters have the same count).
	maps, reduces         int
	mapLimit, reduceLimit int
	passed                passed
	closed                bool
}

// newGate builds the gate from a lead replaying under ran to the
// follower f's own sink. A follower with no slot of a kind the lead has
// is cut before the lead starts.
func newGate(ran engine.Config, f *pending, cut func()) *gate {
	sink := f.own()
	g := &gate{
		f: f, sink: sink, feed: obs.FeedOf(sink), cut: cut,
		mapLimit:    limit(ran.MapSlots, f.Cfg.MapSlots),
		reduceLimit: limit(ran.ReduceSlots, f.Cfg.ReduceSlots),
	}
	g.depth, _ = sink.(obs.DepthSampler)
	if g.mapLimit <= 0 || g.reduceLimit <= 0 {
		g.close()
	}
	return g
}

// limit is the holding at which a lead of ran slots of a kind and a
// follower of want may part.
func limit(ran, want int) int {
	if ran == want {
		return math.MaxInt
	}
	return min(ran, want)
}

// Events passes a block on up to the allocation that closes the gate.
func (g *gate) Events(evs []obs.Event) {
	if g.closed {
		return
	}
	for i := range evs {
		switch evs[i].Kind {
		case obs.KindMapSlotAlloc:
			if g.maps++; g.maps == g.mapLimit {
				g.pass(evs[:i])
				g.close()
				return
			}
		case obs.KindReduceSlotAlloc:
			if g.reduces++; g.reduces == g.reduceLimit {
				g.pass(evs[:i])
				g.close()
				return
			}
		case obs.KindMapSlotRelease:
			g.maps--
		case obs.KindReduceSlotRelease:
			g.reduces--
		}
	}
	g.pass(evs)
}

func (g *gate) Event(ev obs.Event) { g.Events((&[1]obs.Event{ev})[:]) }

func (g *gate) pass(evs []obs.Event) {
	g.passed.events += uint64(len(evs))
	if g.sink != nil && len(evs) > 0 {
		g.feed.Events(evs)
	}
}

func (g *gate) SampleDepth(now float64, depth int) {
	if g.closed {
		return
	}
	g.passed.depth++
	if g.depth != nil {
		g.depth.SampleDepth(now, depth)
	}
}

func (g *gate) RunEnd(c obs.Counters) {
	if !g.closed && g.sink != nil {
		g.sink.RunEnd(c)
	}
}

// close shuts the gate and hands the follower off; the gate never
// touches it again. The follower has now seen the longer of the two
// prefixes of its stream, this gate's and any earlier one's.
func (g *gate) close() {
	g.closed = true
	seen := &g.f.seen
	seen.events, seen.depth = max(seen.events, g.passed.events), max(seen.depth, g.passed.depth)
	g.cut()
}

// mute is a cut follower's own sink for a later stream of its own: it
// drops the events and depth samples gates already passed on, then
// forwards the rest, so that the sink sees the follower's stream
// once.
type mute struct {
	sink  obs.Sink
	feed  obs.Feed
	depth obs.DepthSampler
	skip  passed
}

func newMute(s obs.Sink, seen passed) *mute {
	m := &mute{sink: s, feed: obs.FeedOf(s), skip: seen}
	m.depth, _ = s.(obs.DepthSampler)
	return m
}

func (m *mute) Events(evs []obs.Event) {
	if n := uint64(len(evs)); m.skip.events >= n {
		m.skip.events -= n
		return
	}
	evs = evs[m.skip.events:]
	m.skip.events = 0
	m.feed.Events(evs)
}

func (m *mute) Event(ev obs.Event) { m.Events((&[1]obs.Event{ev})[:]) }

func (m *mute) SampleDepth(now float64, depth int) {
	if m.skip.depth > 0 {
		m.skip.depth--
	} else if m.depth != nil {
		m.depth.SampleDepth(now, depth)
	}
}

func (m *mute) RunEnd(c obs.Counters) { m.sink.RunEnd(c) }

package engine

import (
	"simmr/internal/sched"
	"simmr/internal/trace"
)

// EventsFired returns the number of events handled so far; on a fork it
// includes the shared prefix's events, matching Result.Events.
func (e *Engine) EventsFired() uint64 { return e.q.Fired() }

// Fork seals the engine (Snapshot) and branches once off it.
func (e *Engine) Fork(opts ForkOptions) (*Engine, error) {
	s, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Fork(opts)
}

// Fold is Run for callers that reduce the outcome on the spot: the
// replay runs into the pooled engine's own scratch Result, fn reads it,
// and the engine goes back to the pool. The Result is lent: it is
// emptied when fn returns. fn is not called when the replay fails.
func (p *Pool) Fold(cfg Config, tr *trace.Trace, policy sched.Policy, fn func(*Result)) error {
	return p.FoldTrail(cfg, tr, policy, nil, func(res *Result, _ int, _ uint64) { fn(res) })
}

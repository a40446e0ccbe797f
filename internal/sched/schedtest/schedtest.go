// Package schedtest holds the scheduling oracle's one helper: a way to
// force a built-in policy through the paper's two-call interface, so
// differential tests and the scan-side benchmarks have the O(jobs)
// reference path to compare the engine's scheduling index against.
package schedtest

import "simmr/internal/sched"

// ScanOnly returns p behind an opaque wrapper. The engine picks its
// scheduling index by the policy's concrete type, so hiding the type
// makes it fall back to calling ChooseNextMapTask/ChooseNextReduceTask
// once per free slot. Everything else the engine and the result cache
// look for is forwarded: the name, the fingerprint, and — exactly when p
// has it — the ArrivalAware hook (MinEDF sizes allocations there).
func ScanOnly(p sched.Policy) sched.Policy {
	if aa, ok := p.(sched.ArrivalAware); ok {
		return arrivalScan{scan{p}, aa}
	}
	return scan{p}
}

type scan struct{ sched.Policy }

func (s scan) Fingerprint() (uint64, bool) { return sched.FingerprintOf(s.Policy) }

type arrivalScan struct {
	scan
	sched.ArrivalAware
}

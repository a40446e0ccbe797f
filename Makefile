GO ?= go

# VERSION is stamped into internal/buildinfo.Version and surfaces as
# the simmr_build_info gauge on every -debug-addr endpoint.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS  = -ldflags "-X simmr/internal/buildinfo.Version=$(VERSION)"

.PHONY: build test verify smoke-bigtrace clean

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: static checks (an unformatted file
# fails it), a full build, and the complete test suite under the race
# detector (the concurrency model's determinism tests only mean
# something with -race on). The subscribe/End race in internal/runs
# showed up once in ~30 runs, so its test is repeated until it would.
# Which cells a parallel capacity sweep answers from a finished replay,
# or copies from its largest cell's trail, depends on which replays
# finish first, and which worker replays a batch follower its group cut
# depends on timing, so the reuse differentials run
# a few more times, as does the emulator's speculation determinism test
# (it once depended on map iteration order) and the test of four
# processes sharing one cache directory (their interleaving differs per run),
# and the telemetry tests whose writers share one registry's cells (which
# CAS retries, and which tally flush adds on top, differs per run).
# The tests of how the fan-out scheduler's workers claim, wait for and
# cancel a sweep's cells (SWEEP_CLAIMS, in pkg/simmr and internal/plan)
# run twenty times: a scheduling bug shows in some interleavings only.
# A branch set's branches go through the same claim loop, so its
# serial-versus-parallel test runs a few more times too.
# one-path keeps the run plan the only executor: the calls that make up
# its sequence (key, observe the pool, attach a recorder, account), the
# split replay, which must start from a single replay and never from a
# fan-out that already fills the cores, the replays that leave and
# follow a trail, which must be bare, and the test of which replay
# answers for another, so that only the fan-out scheduler decides what is
# shared, appear in non-test code only in internal/plan and in the
# packages that define them.
ONE_PATH = ReplayDone\(|\.Observed\(|rcache\.KeyFor\(|AttachFlight\(|\.EngineHook\(|\.RunSplit\(|\.RunTrail\(|\.FoldTrail\(|engine\.Answers\(
# one-queue keeps every simulator on the one event queue (des.Lanes,
# des.Record): des.EventQueue is a deprecated wrapper of it that only the
# benchmark's probe still uses, and there is no des.Event.
POINTER_QUEUE = des\.(EventQueue|Event)\b
# one-input keeps the event stream a sink's only input: no non-test code
# implements or calls a sampler. obs.DepthSampler stays declared (its
# comment, type line and method line in internal/obs/obs.go) for the
# benchmark harness alone, which names it (ROADMAP item 1e).
SAMPLER = SampleDepth|DepthSampler
# a grant starts its task: the engine has no task-arrival event type to
# queue, so nothing can pause, snapshot or fork between a slot grant and
# the start of its task.
QUEUED_ARRIVAL = ev(Map|Reduce)TaskArrival
# one-settle keeps one choke point for every Result the run plan hands
# out: only its settle function's file accounts replays in the run
# registry, and only tests install the shortcut checker (plantest) on
# its hook, plan.Settled.
ONE_SETTLE = \.AddCached\(|\.AddJobs\(|\.AddEvents\(
SETTLED_HOOK = \bSettled[[:space:]]*=[^=]
SWEEP_CLAIMS = TestParallelSweepReplaysWhatSerialDoes|TestParallelSweepKeepsDenseParallelism|TestSweepCancelWhileWaiting|TestSweepErrorIsWorkerIndependent
verify:
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }
	@second="$$(grep -rnE '$(ONE_PATH)' --include='*.go' --exclude='*_test.go' cmd pkg examples internal \
		| grep -vE '^internal/(plan|telemetry|engine|rcache|runs|obs)/')"; \
		test -z "$$second" || { echo "run-plan calls outside internal/plan:"; echo "$$second"; exit 1; }
	@pointer="$$(grep -rnE '$(POINTER_QUEUE)' --include='*.go' --exclude='*_test.go' cmd pkg examples internal)"; \
		test -z "$$pointer" || { echo "non-test code names the pointer queue:"; echo "$$pointer"; exit 1; }
	@sampler="$$(grep -rnE '$(SAMPLER)' --include='*.go' --exclude='*_test.go' cmd pkg examples internal \
		| grep -vE '^internal/obs/obs\.go:[0-9]+:(//.*|type DepthSampler interface \{|[[:space:]]+SampleDepth\(now float64, depth int\))$$')"; \
		test -z "$$sampler" || { echo "non-test code implements or calls a sampler:"; echo "$$sampler"; exit 1; }
	@queued="$$(grep -rnE '$(QUEUED_ARRIVAL)' --include='*.go' --exclude='*_test.go' internal/engine)"; \
		test -z "$$queued" || { echo "internal/engine names a task-arrival event type:"; echo "$$queued"; exit 1; }
	@settle="$$(grep -rnE '$(ONE_SETTLE)' --include='*.go' cmd pkg examples internal | grep -vE '^internal/(runs/|plan/plan\.go:)')"; \
		test -z "$$settle" || { echo "run accounting outside the run plan's settle:"; echo "$$settle"; exit 1; }
	@hook="$$(grep -rnE '$(SETTLED_HOOK)' --include='*.go' --exclude='*_test.go' cmd pkg examples internal benchmark | grep -vE ':[0-9]+:[[:space:]]*//')"; \
		test -z "$$hook" || { echo "non-test code sets the shortcut checker's hook:"; echo "$$hook"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -run TestSubscribeCancelRace -count=200 ./internal/runs
	$(GO) test -race -run 'TestReplayAboveThePeakIsIdentical|TestAnswersRefuses|TestTrailFollowerMatchesReplay|TestSweepReuseMatchesReplay|TestBatchFollowersMatchOwnReplay|TestBatchGroupErrorIsLowestSpec|TestLeadSettlesWhatAnswersAccepts|TestSpeculationDeterministic|TestSharedDirAcrossProcesses|TestHitIsTheCallersCopy|TestConcurrentWritersAndScraper|TestTallyConcurrentWriters|TestTelemetryConcurrentReplays|TestCheckerCatchesBadShortcuts|TestPlanObservedBatchSharesAsBare|TestBranchSetSerialParallelIdentical' -count=3 ./internal/engine ./pkg/simmr ./internal/plan ./internal/plan/plantest ./internal/cluster ./internal/rcache ./internal/telemetry
	$(GO) test -race -run '$(SWEEP_CLAIMS)' -count=20 ./pkg/simmr ./internal/plan

# smoke-bigtrace is the large-trace end-to-end check: stream-generate
# 100k jobs straight to the columnar .strc store (the full trace is
# never held in memory), inspect it, and replay it mmapped under a
# 128 MiB memory ceiling — proving load and replay memory stay bounded
# by job count and unique-template volume, not task-duration volume.
# What replay holds per job of the trace is its outcome (64 B), its
# arrival-schedule entry and a table pointer; engine state proper is
# sized by the jobs in flight (DESIGN.md §5, "Lifetime"). Then the
# per-job output of the replay split over every core (DESIGN.md §7) must
# be byte for byte the one-core replay's: GOMAXPROCS=1 never splits.
# CI runs this as the bigtrace-smoke job.
SMOKE = /tmp/smoke-big
smoke-bigtrace:
	$(GO) build -o $(SMOKE)-simmr ./cmd/simmr
	$(GO) run ./cmd/tracegen -kind multitenant -n 100000 -format bin -stream -pool 256 -out $(SMOKE).strc
	$(SMOKE)-simmr trace info -trace $(SMOKE).strc
	GOMEMLIMIT=128MiB $(SMOKE)-simmr -trace $(SMOKE).strc -policy minedf
	for p in fifo maxedf minedf fair capacity; do \
		GOMAXPROCS=1 $(SMOKE)-simmr -trace $(SMOKE).strc -policy $$p -v > $(SMOKE)-one.txt && \
		$(SMOKE)-simmr -trace $(SMOKE).strc -policy $$p -v > $(SMOKE)-all.txt && \
		cmp $(SMOKE)-one.txt $(SMOKE)-all.txt || exit 1; \
	done
	rm -f $(SMOKE).strc $(SMOKE)-simmr $(SMOKE)-one.txt $(SMOKE)-all.txt

# clean removes what `go build ./cmd/<name>` leaves at the repo root
# (the list .gitignore carries).
clean:
	rm -f simmr tracegen experiments mrprofiler testbed

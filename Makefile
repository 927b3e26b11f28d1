# sonet — build, test, and reproduction targets.

GO ?= go

.PHONY: all check build vet test test-race race cover bench bench-all bench-guard bench-compare bench-baseline bench-check bench-repo experiments examples fuzz chaos-smoke chaos-soak clean

all: check

# The default gate: compile, static checks, unit tests, the race detector
# (the buffer-pool ownership rules make -race a required check), the
# fast-path allocation budgets, the pinned-seed chaos campaigns, and the
# repository benchmark's own build and tests.
check: build vet test test-race bench-guard chaos-smoke bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate runs the full suite once, then re-runs the daemon suite
# and the node's shard-crossing tests (decision parity between shard 0 and
# a snapshot shard, control payloads surfacing on a data shard) pinned at
# four protocol shards: the auto shard count collapses to one on
# single-core CI runners, and the engine's shard crossings (per-shard link
# sessions, COW snapshot readers, cross-shard clones) must be race-checked
# even there.
test-race:
	$(GO) test -race ./...
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=1 -run 'TestDaemon' ./internal/transport/
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=1 -run 'TestShardDecisionParity|TestMembershipOnDataShard|TestUnknownPeerIsCounted' ./internal/node/

race: test-race

cover:
	$(GO) test -cover ./...

# Regenerate every table/figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/benchrun

# Hot-path microbenchmarks: overlay forwarding, underlay send, scheduler
# timer churn, the fair-scheduler DRR core at 1k/10k/100k flows, the
# pooled wire round trip, the control-plane SPF / reconvergence pair, and
# the batched UDP data plane over loopback, and the client edge (client →
# one daemon → client over loopback TCP).
BENCH_PATTERN = Forwarding|MarshalAlloc|NetemuSend|Sched|Packet|DisjointPaths|SPF|ConvergenceScale|UDP|ClientEdge

bench:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem .

# Every benchmark, including the full experiment reproductions.
bench-all:
	$(GO) test -run xxx -bench . -benchmem .

# Allocation-budget regression guards for the fast paths: fails if a
# warmed netemu.Send allocates (route cache + pooled buffers/events must
# keep it at 0 allocs/op on a stable topology), if a warmed dense SPF
# recompute allocates, if a warmed incremental single-link SPT repair
# does, if a warmed whole-engine reconvergence does, if the real UDP
# data plane exceeds one amortized allocation per datagram, or if the
# fair-scheduler DRR core allocates on a steady-state decision at up to
# 100k concurrent flows, or if transit forwarding through the whole
# sharded daemon stack exceeds one amortized allocation per packet, or if
# a steady-state membership detector/corrector sweep allocates, or if the
# client edge does (RemoteFlow.Send: 0; daemon ingress + egress: at most 2
# per message on top of the in-process session path).
bench-guard:
	$(GO) test -run 'TestNetemuSendAllocBudget|TestSPFAllocBudget|TestIncrementalSPFAllocBudget|TestConvergenceAllocBudget|TestUDPTransportAllocBudget|TestSchedAllocBudget|TestDaemonForwardingAllocBudget' -count=1 .
	$(GO) test -run TestMembershipSweepAllocBudget -count=1 ./internal/membership/
	$(GO) test -run TestClientEdgeAllocBudget -count=1 ./internal/transport/

# Diff current hot-path benchmark numbers against the checked-in baseline:
# ns/op may drift within the baseline's tolerance, allocs/op may not grow.
bench-compare:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem . | $(GO) run ./cmd/benchcompare -baseline BENCH_baseline.json

# Regenerate the baseline (run on the reference machine, then commit).
bench-baseline:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem . | $(GO) run ./cmd/benchcompare -write BENCH_baseline.json

# The repository benchmark (BENCHMARK.json) is a nested module, so the
# targets above never compile it. bench-check vets and tests it with and
# without the sonet_layers tag: the tagged files reach unexported fields
# of sonet.Daemon, transport.Daemon and session.Manager by name, and this
# is what notices when a rename breaks them. About 20 s.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench vet -tags sonet_layers ./...
	$(GO) -C bench test ./...
	$(GO) -C bench test -tags sonet_layers ./...

# Run the four BENCHMARK.json workloads once each (about 40 s apiece);
# see bench/README.md for -repeat, -aa and --trace 1.
BENCH_SEED ?= 1
bench-repo:
	for w in chain3-video-be chain3-small-reliable emu-mixed-loss emu-churn-64; do \
		$(GO) -C bench run . --workload $$w --seed $(BENCH_SEED) --seconds 28 --trace 0 || exit 1; \
	done

# Pinned-seed fault-campaign suite (internal/chaos): twelve campaigns
# spanning link flaps, partitions, crash-restarts, ISP outages,
# brown-outs, latency spikes, and — on the membership-enabled churn
# worlds — graceful leaves, re-admissions, and corrupted-view injections
# under the stabilization-bound invariant. Every invariant checked, zero
# violations tolerated. Deterministic — a failure here replays
# bit-for-bit with `go run ./cmd/sonet-chaos run -campaign <name>`.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestSmokeTraceHashesPinned|TestCampaignDeterminism|TestReplayFromArtifact' ./internal/chaos/

# Long-haul randomized campaigns across every topology and fault mix.
chaos-soak:
	CHAOS_SOAK=1 $(GO) test -race -count=1 -run TestChaosSoak -v ./internal/chaos/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videotransport
	$(GO) run ./examples/cloudmonitor
	$(GO) run ./examples/intrusiontolerant
	$(GO) run ./examples/remotemanip
	$(GO) run ./examples/compoundflow

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalPacket -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzUnmarshalFrame -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzFramePooledRoundTrip -fuzztime 30s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzFrameReader -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzClientRequest -fuzztime 30s -fuzzminimizetime 2s

clean:
	$(GO) clean ./...

# sonet — build, test, and reproduction targets.

GO ?= go

.PHONY: all check build fmt vet test test-race race stress cover bench bench-guard bench-check bench-repo bench-pairs experiments examples fuzz chaos-smoke chaos-soak loc clean

all: check

# The default gate: compile, formatting, static checks, unit tests, the
# race detector (the buffer-pool ownership rules make -race a required
# check), the fast-path allocation budgets, the pinned-seed chaos
# campaigns, and the repository benchmark's own build and tests.
check: build fmt vet test test-race bench-guard chaos-smoke bench-check

build:
	$(GO) build ./...

# Fails on any file gofmt would rewrite, and rewrites none. gofmt walks
# directories, not modules, so this covers the nested bench/ module too.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l . lists:"; echo "$$out"; exit 1; fi

# udp_portable.go is the only data plane a non-Linux build has; the
# sonet_portable tag selects it on Linux too, so vet and test keep it
# compiling and green (the experiments package builds the wire rigs on it).
vet:
	$(GO) vet ./...
	$(GO) vet -tags sonet_portable ./internal/transport/ ./internal/experiments/

# The unit tests, then the portable plane's transport suite and the public
# package (the API a non-Linux application links) on it, and the
# experiments' allocation budgets on its one-datagram reads.
test:
	$(GO) test ./...
	$(GO) test -tags sonet_portable ./internal/transport/ .
	$(GO) test -tags sonet_portable -run AllocBudget ./internal/experiments/

# The race gate runs the full suite once, then re-runs the daemon suite
# (the reload suite TestDaemonApply* and TestDaemonReadmitAfterEvict, and
# runtime admission of a peer homed off shard 0, among it) and the node's
# shard-crossing tests (decision parity between shard 0 and a snapshot
# shard, control payloads surfacing on a data shard, the crossing rings'
# order, overflow, shutdown and all-pairs stress, admitted-peer homing,
# frames the ownership rule never sends a data shard, and the duplicate
# table's stripes observed from four goroutines)
# pinned at four protocol shards: the auto shard count collapses to one on
# single-core CI runners, and the engine's shard crossings (per-shard link
# sessions, COW snapshot readers, per-pair hand-off rings) must be
# race-checked even there.
test-race:
	$(GO) test -race ./...
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=1 -run 'TestDaemon' ./internal/transport/
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=1 -run 'TestShardDecisionParity|TestMembershipOnDataShard|TestUnknownPeerIsCounted|TestCrossing|TestDataPlaneCloseReleasesCrossings|TestAdmittedPeerIsHomedByHash|TestMisroutedFrameIsDropped|TestDedupStripesConcurrent' ./internal/node/

race: test-race

# Repetition for the cross-goroutine code, kept out of check (about a
# quarter of an hour): the all-pairs crossing stress and the plane's close
# with records in flight, at four shards, the duplicate table's stripes
# under four observers, the hand-off primitive both
# rings are built on, the loop and the realtime
# clock's timers, the link protocols on the realtime clock (one recovery
# timer per link, re-armed from inside its own callback), the client
# edge (Send, the edge writer goroutine and Close), admission at four
# shards (a config applied to a live daemon, and an admitted peer homed by
# hash: admission posts sibling peer entries across shard loops), and the
# once-per-turn link ack over a four-shard loopback chain (at most one
# ack per two frames), 200 runs each under the race
# detector. A flake that shows once in tens of runs fails here. Each line
# may take 30 minutes, not go test's default 10: the client-edge line
# alone needs about 17 on a 2-vCPU machine.
stress:
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=200 -timeout 30m -run 'TestCrossingStress|TestDataPlaneCloseReleasesCrossings|TestDedupStripesConcurrent' ./internal/node/
	$(GO) test -race -count=200 -timeout 30m -run TestHandoff ./internal/sim/
	$(GO) test -race -count=200 -timeout 30m -run 'TestLoop|TestRealtime|TestTimerContract/realtime' ./internal/sim/
	$(GO) test -race -count=200 -timeout 30m -run 'OverRealtimeClock' ./internal/link/
	$(GO) test -race -count=200 -timeout 30m -run 'ClientEdge|ClientClose|ClientWrite' ./internal/transport/
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=200 -timeout 30m -run 'TestDaemonApply|TestDaemonReadmit' ./internal/transport/
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=200 -timeout 30m -run TestAdmittedPeerIsHomedByHash ./internal/node/
	SONET_DAEMON_SHARDS=4 $(GO) test -race -count=200 -timeout 30m -run TestDaemonReliableAcksOncePerTurn ./internal/transport/

cover:
	$(GO) test -cover ./...

# Regenerate every table/figure of the paper's evaluation; one of them
# with `go run ./cmd/benchrun -only <ID>`.
experiments:
	$(GO) run ./cmd/benchrun

# Developer microbenchmarks, each beside the code it measures (wire, sim,
# itmsg, topology, node, transport; the loopback rigs, the convergence
# arena and the continental fixtures in internal/experiments). They keep
# no stored baseline and gate nothing: performance claims are parent/change
# pairs of the repository benchmark (bench-repo, bench/README.md).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# The machine-independent gate: every fast path's allocation budget and
# every resident-state budget, by naming convention — a test called
# Test*AllocBudget or Test*Footprint anywhere in the tree is part of it.
# Not under -race: sync.Pool drops Puts there.
bench-guard:
	$(GO) test -run 'AllocBudget|Footprint' -count=1 ./...

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

# Alternating parent/change pairs of the same command, the way a
# BENCH_pr<N>.json records a claim: PARENT and the working tree are each
# built from a git archive, odd pairs run the parent first, and every run
# prints one JSON line in the shape of that file's "runs" (about 80 s per
# pair and workload). BENCH_SEED picks the seed, as for bench-repo. Not
# part of check.
#   make bench-pairs PARENT=<rev> PAIRS=<n> WORKLOADS="<w> ..." BENCH_SEED=<s>
PAIRS ?= 10
WORKLOADS ?= chain3-video-be chain3-small-reliable emu-mixed-loss emu-churn-64
bench-pairs:
	@test -n "$(PARENT)" || { echo 'usage: make bench-pairs PARENT=<rev> [PAIRS=<n>] [WORKLOADS="<w> ..."] [BENCH_SEED=<s>]' >&2; exit 2; }
	PAIRS=$(PAIRS) SEED=$(BENCH_SEED) WORKLOADS="$(WORKLOADS)" sh scripts/bench-pairs.sh $(PARENT)

# Pinned-seed fault-campaign suite (internal/chaos): twelve campaigns
# spanning link flaps, partitions, crash-restarts, ISP outages,
# brown-outs, latency spikes, and — on the membership-enabled churn
# worlds — graceful leaves, re-admissions, and corrupted-view injections
# under the stabilization-bound invariant. Every invariant checked, zero
# violations tolerated. Deterministic — a failure here replays
# bit-for-bit with `go run ./cmd/sonet-chaos run -campaign <name>`.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke|TestSmokeTraceHashesPinned|TestCampaignDeterminism|TestReplayFromArtifact|TestRestoreAllRepairsEveryFault' ./internal/chaos/

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

# Every fuzz target in the tree, 30 s each: the list is whatever
# `go test -list` finds, so a new Fuzz* function is in it by being written.
# go test fuzzes one target of one package per run. The transport targets
# cap minimization: shrinking a failing multi-frame stream can otherwise
# outlast the run.
fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ {name[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, name[i]; n = 0}' | \
	while read pkg name; do \
		case $$pkg in */transport) min="-fuzzminimizetime 2s";; *) min=;; esac; \
		echo "== $$pkg $$name"; \
		$(GO) test $$pkg -run xxx -fuzz "^$$name\$$" -fuzztime 30s $$min || exit 1; \
	done

# The size figures the simplification PRs and ROADMAP item 5 quote: raw
# lines and non-blank non-comment lines of non-test Go outside bench/, for
# the repository and for internal/experiments alone, then the five largest
# packages (directories) by non-blank non-comment lines, same filter.
loc:
	@for d in . ./internal/experiments; do \
		find $$d -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | \
		awk -v d=$$d '{raw++} !/^[ \t]*($$|\/\/)/ {code++} END {printf "%-24s %6d lines  %6d non-blank non-comment\n", d, raw, code}'; \
	done
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec \
		awk '!/^[ \t]*($$|\/\/)/ {d = FILENAME; sub(/\/[^\/]*$$/, "", d); code[d]++} END {for (d in code) print d, code[d]}' {} + | \
		awk '{code[$$1] += $$2} END {for (d in code) print code[d], d}' | sort -rn | head -n 5 | \
		awk '{printf "%-24s %6d non-blank non-comment\n", $$2, $$1}'

clean:
	$(GO) clean ./...

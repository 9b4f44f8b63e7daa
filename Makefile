# Tier-1 verification gate. The experiment layer fans out across goroutines
# (internal/parallel), so the race detector is part of the gate, not an
# optional extra; bench-short smoke-runs every package benchmark once so a
# broken bench path cannot land, and report-check keeps REPORT.md regenerable.
.PHONY: tier1 build vet fmt static test race chaos netfault gossip gossip-short ckpt ckpt-short ckpt-delta-short bench-short bench-smoke report-check quickbench scale-short

tier1: build vet fmt static race scale-short gossip-short ckpt-short ckpt-delta-short bench-short bench-smoke report-check

# Fuzz campaign duration for the timed targets (gossip, ckpt); override
# with e.g. `make ckpt FUZZTIME=2m`.
FUZZTIME ?= 30s

build:
	go build ./...

vet:
	go vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck when available; a bare toolchain passes the gate without it.
static:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

test:
	go test ./...

race:
	go test -race ./...

# Short deterministic chaos campaign under the race detector: compound
# faults (dual hangs, hang-during-recovery, flapping/lossy cables, dead
# switch ports, failing reloads) with the exactly-once delivery audit, plus
# the trial runner's per-kind golden digests and schedule replay.
chaos:
	go test -race -short -v -run 'Campaign|Trial' ./internal/chaos/

# Network-fault failover suite: dead trunks and partitions on the
# dual-switch fabric, GM vs FTGM vs FTGM+netwatch.
netfault:
	go test -race -v -run 'NetFault|NetworkFault|NetWatch|Remap' ./gm/ ./internal/core/ ./internal/mapper/ ./internal/chaos/ ./internal/experiments/

# Gossip control-plane campaign: the membership/link-state plane suite
# under the race detector (agents, gm wiring, mapper-death chaos and the
# control-plane comparison), then a timed fuzz campaign over the wire
# codec. The corpus itself runs in tier-1 as a plain test (gossip-short).
gossip:
	go test -race -v -run 'Gossip|ControlPlane|MapperDeath|Wire' \
		./internal/gossip/ ./gm/ ./internal/chaos/ ./internal/experiments/
	go test -fuzz FuzzDecodeGossip -fuzztime $(FUZZTIME) ./internal/gossip/

# Gossip smoke gate (tier1): the plane's unit suite and the fuzz corpus
# as plain tests under the race detector (no open-ended fuzzing in CI).
gossip-short:
	go test -race -run 'Gossip|Wire|Fuzz' ./internal/gossip/

# Host-fault campaign: endpoint checkpoint/restart under the race detector
# (drain/kill/restore unit suite, host-death and mapper-rebirth chaos
# campaigns, the experiment comparison), then a timed fuzz campaign over each
# checkpoint frame family (GMCK full frames, GMCD deltas).
ckpt:
	go test -race -v -run 'HostFault|HostDeath|MapperRebirth|Checkpoint|Periodic|Delta|ReplayChain' \
		./internal/ckpt/ ./gm/ ./internal/chaos/ ./internal/experiments/
	go test -fuzz FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) ./internal/ckpt/
	go test -fuzz FuzzDecodeDelta -fuzztime $(FUZZTIME) ./internal/ckpt/

# Checkpoint smoke gate (tier1): the wire codec's unit suite and fuzz
# corpus as plain tests plus the endpoint drain/kill/restore suite, all
# under the race detector.
ckpt-short:
	go test -race -run 'Checkpoint|Fuzz' ./internal/ckpt/
	go test -race -run 'HostFault|HostDeath' ./gm/

# Incremental-checkpoint smoke gate (tier1): the delta codec (round-trip,
# chain replay, reject cases, zero-alloc build), the periodic pipeline
# (bounded drain, chain replay bit-identity, restore-from-chain) and the
# periodic-ckpt chaos class (kill mid-chain, replay, exactly-once audit,
# shard/speculation invariance), all under the race detector.
ckpt-delta-short:
	go test -race -run 'Delta|ReplayChain|ApplyMerges|Fuzz' ./internal/ckpt/
	go test -race -run 'Periodic' ./gm/ ./internal/chaos/

# Sharded-engine smoke gate (tier1): the 64-node Clos storm trial on the
# sharded conservative-time engine under the race detector (schedule
# identical at one and four executors), plus the bit-for-bit
# shard-invariance trials (chaos, netfault, and the 256-node speculation
# trial with forced rollbacks) and the speculation unit suite. The second
# line is the speculating-fabric chaos cell: hang + link flap + host death
# with node and switch domains running ahead, audited exactly-once and
# bit-identical to the conservative books at 1/4/8 shards. The sharded
# engine's wall-clock cost is the benchmark's clos_alltoall workload
# (bash bench/run.sh).
scale-short:
	go test -race -run 'TestScaleShort|TestShardInvariance|TestSpec|TestRNGState|TestZeroLookahead' \
		./internal/sim/ ./internal/experiments/ ./gm/
	go test -race -short -run 'TestCampaignSpeculationInvariance' ./internal/chaos/

# Bench smoke gate (tier1): every package's go-test benchmarks (engine,
# chip, MCP first contact, core, fault) run once. The paper's experiments
# are not benchmarks: they run in `cmd/reproduce`, checked by report-check.
bench-short:
	go test -bench=. -benchtime=1x -run=^$$ ./...

# Benchmark-of-record smoke gate (tier1): bench/ is a nested module that
# `go build ./...` and `go test ./...` at the root never see, so a core/gm
# API change could break `bash bench/run.sh` unnoticed. Vets it and runs its
# own short tests (~3 s).
bench-smoke:
	cd bench && go vet . && go test .

# Report gate (tier1): REPORT.md is exactly what `cmd/reproduce` prints
# (~10 s). After a change that moves a simulated number, regenerate it with
# `go run ./cmd/reproduce -o REPORT.md`.
report-check:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
		go run ./cmd/reproduce -o "$$tmp" && diff -u REPORT.md "$$tmp"

# Engine-, chip- and MCP-level microbenchmarks with allocation counts.
quickbench:
	go test -bench=BenchmarkEngine -benchmem -run=^$$ ./internal/sim/
	go test -bench=BenchmarkChip -benchmem -run=^$$ ./internal/lanai/
	go test -bench=BenchmarkFirstContact -benchmem -run=^$$ ./internal/mcp/

#!/bin/sh
# CI gate: vet (stock passes plus the femtolint contract passes), build,
# and the full test suite under the race detector. The job runtime
# (internal/runtime) and every concurrent driver must be data-race-free;
# -race is the contract, not an option. femtolint enforces the repo's
# determinism, cancellation, and hot-path contracts (see DESIGN.md
# "Static analysis"); a violation anywhere in the tree fails CI.
set -eux
# lap NAME prints the wall seconds since the previous lap (or the start)
# under NAME, so the log shows which step a slow gate spent its time in.
last=$(date +%s)
lap() {
	now=$(date +%s)
	echo "ci: step $1 took $((now - last)) s" >&2
	last=$now
}
# The bit pins assume gc never contracts a multiply and an add into one
# fused instruction. At the amd64 baseline, v1, it cannot (FMA arrives
# with v3), so the Go bodies round every product the way the vector bodies
# do - the AVX hop and the SSE fifth-dimension passes of
# internal/dirac/schur_amd64.s, the AVX half round trip of
# internal/linalg/half_amd64.s - none of which fuses either
# (TestAssemblyDiscipline). Pin the level here rather than inherit
# whatever the environment sets.
export GOAMD64=v1
# Formatting gate: gofmt -l prints the files it would rewrite; any name is
# a failure. The nested benchmark module is covered too (gofmt walks
# directories, not packages).
test -z "$(gofmt -l .)"
lap gofmt
# run_gate REGEX [go test flags] -- PKGS: `go test -run` exits 0 with "no
# tests to run" when the regex matches nothing, so renaming a test can
# silently empty a gate. Every -run line below goes through here: the
# regex must first name at least one test in every listed package.
run_gate() {
	regex=$1
	shift
	flags=
	while [ "$1" != -- ]; do
		flags="$flags $1"
		shift
	done
	shift
	for pkg in "$@"; do
		go test -list "$regex" "$pkg" | grep -Eq '^(Test|Fuzz)' || {
			echo "ci: gate -run '$regex' names no test in $pkg" >&2
			exit 1
		}
	done
	# shellcheck disable=SC2086 # flags is a word list
	go test $flags -run "$regex" "$@"
}
# unsafe allow-list: the tree reinterprets memory in one place, the lane
# views of internal/dirac/lanes.go, whose layout assumption lanes_test.go
# pins. Any other file that imports unsafe fails here.
test "$(grep -rl '"unsafe"' --include='*.go' . | sort | tr '\n' ' ')" = './internal/dirac/lanes.go ./internal/dirac/lanes_test.go '
# Assembly allow-list: the tree has two assembly files. One holds the
# Schur kernel's vector bodies - the AVX hop (hopAVX32, hopAVX64), the SSE
# fibreAInv, fibreBA, fibreBAxpy, fibreAxpy and load/store transposes, and
# the pair layout's AVX bodies of two systems at once (hopAVX32x2,
# aInvAVX32x2, baAVX32x2, baxpyAVX32x2, loadAVX32x2, storeAVX32x2) - and
# the AVX body of one 4-D Wilson site (siteAVX); the
# other the CPUID/XGETBV probe that selects every AVX body once at
# start-up and the AVX half round trip (halfRoundTripAVX). Each single
# body is held bit for bit to its portable Go body, and each pair body to
# the single body it doubles, by the kernel gate below (go vet's asmdecl
# pass checks their frames against the Go declarations).
# Any other .s file fails here.
test "$(find . -name '*.s' -not -path './.bench_build/*' | sort | tr '\n' ' ')" = './internal/dirac/schur_amd64.s ./internal/linalg/half_amd64.s '
lap allow-lists
go vet ./...
lap vet
# The portable Go bodies - hop, fifth-dimension passes, half round trip -
# are what every other architecture (and an amd64 host without AVX) runs:
# keep them compiling and vetted where no assembly stands in for them.
GOARCH=arm64 go vet ./internal/dirac/ ./internal/linalg/ && GOARCH=arm64 go build ./...
lap arm64
go build -o "$PWD/femtolint.bin" ./cmd/femtolint
trap 'rm -f "$PWD/femtolint.bin" "$PWD/garank.bin" "$PWD/gastress.bin"' EXIT
go vet -vettool="$PWD/femtolint.bin" ./...
lap femtolint
go build ./...
lap build
# The benchmark is a nested module (benchmark/go.mod), so ./... does not
# reach it: vet it and run its smoke suite here, so that drift in an
# internal/* signature it compiles against fails CI and not the next
# benchmark run.
(cd benchmark && go vet . && go test .)
lap benchmark-module
# internal/core's race suite takes 16 minutes alone on a 2-vCPU host (the
# fused Schur kernels are half the time of the staged ones natively but
# 1.3x under the race detector: their half spinors travel by pointer, and
# every access through a pointer is instrumented) and longer while other
# packages share the cores; give the full sweep headroom.
go test -race -timeout 40m ./...
lap race
# Chaos gate: the fault-tolerance suites run again under the race
# detector with -count=2, so the chaos engine's determinism claim
# (same seed and plan -> same fault sequence and report at any worker
# count) is exercised twice against fresh goroutine interleavings, and
# the recovery paths (panic isolation, watchdog kills, failure-domain
# casualties, capped retry backoff) hold under concurrent load.
go test -race -count=2 ./internal/fault/ ./internal/runtime/ ./internal/cluster/
lap chaos
# Drain gate: the allocation-budget paths - drain/resume determinism,
# admission control, Preempt-fault preemption, and the atomic container
# save the cache's disk tier and the wire checkpoints rely on - re-run
# under the race detector, so an allocation can end (wall clock, SIGTERM,
# injected preemption) at any instant without losing journaled work or
# corrupting a checkpoint. Then the campaign example runs a campaign in
# two allocations through a journal reopen and exits non-zero unless the
# resumed campaign is bit for bit the uninterrupted one. Last, the journal
# decoder and the container decoder under it (the cache's disk tier and
# the wire checkpoints read through it too) are fuzzed for a short fixed
# time each: whatever file OpenJournal reads, it fails or yields entries
# inside the spec; whatever bytes hio.Decode reads, it fails or yields a
# file that re-encodes to itself; neither panics or allocates by an
# untrusted length.
run_gate 'Drain|Preempt|Budget|Admission|Atomic|Save' -race -count=2 -- ./internal/core/ ./internal/hio/
go run ./examples/campaign
go test -run '^$' -fuzz '^FuzzOpenJournal$' -fuzztime 15s ./internal/core/
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/hio/
lap drain
# Observability gate: the metrics registry and span tracer must be
# race-free under concurrent instrumentation, and the fixed-chunk
# reductions must make solves bitwise identical at every worker count.
# The kernel guards ride here too: the fused Schur kernels against their
# staged reference at every launch split and on both body sets (the
# assembly - the AVX hop, the SSE fibreAInv, fibreBA, fibreBAxpy,
# fibreAxpy, load and store - and the portable Go bodies), each of those
# vector bodies against its Go body at every Ls from 1 to 9 on fibres with
# infinities, a NaN, -0 and subnormals beside the padding lanes, the AVX
# half round trip against its Go body on 20000 blocks of every special
# value and exact ties, its finite flag against NormSqC64's verdict, the
# start-up probe against /proc/cpuinfo (a probe that fell back to Go would
# pass every bit test at half the speed), every .s file free of fused
# multiply-adds and of legacy SSE in a VEX body, with VZEROUPPER before
# each RET of a body that names a Y register, the padding lanes +0 after
# every pass of every entry point, the lane kernel against the scalar
# kernel it replaced on a field with an infinity and a NaN in it, two
# solves splitting their passes at once, a For nested in a For body, and
# zero allocations per BLAS-1 call and per Schur application whenever the
# pass stays on the calling goroutine. So do the propagator lanes: a
# batch on 1, 2, 3 and 12 lanes against the serial loop digest for
# digest, an operator view against its parent while the parent applies,
# a kept solver workspace against a fresh one, the lane budget under
# contention, cancellation and the lowest-failure rule with every lane
# joined, and the half codec's rounding and in-place round trip against
# what they replaced, and the lane views the generic Schur kernel and the 4-D hop read their
# fields through (-race turns checkptr on, which checks every unsafe
# conversion they make). The 4-D stencil rides here too: the flat Wilson
# operator at every launch split, the rank-local stencil of
# internal/domain on every rank of three grids and a CGNE solve against
# the generic hop (an external test of internal/dirac, which can import
# domain where the reference's package cannot), and the flat operator's
# serial pass allocation-free. So does the 4-D site body: the AVX site
# against the Go site on one site, every direction alone and all eight,
# plain and dagger, on dense, point, signed-zero and non-finite spinors;
# the flat operator and every rank of three splits, ghosts included, on
# whole fields with each body; the probe selecting it and Wilson and Sub
# running it; and the rank-local table stencil against the coordinate one
# it replaced (internal/domain). So does the pair layout: each of its AVX
# bodies against the single body it doubles at every Ls from 1 to 9, the
# fused normal operator (ApplyNormal) on one to three systems, paired and
# one at a time, against ApplyDagger of Apply on poisoned, NaN and
# signed-zero fields at every launch split, and the solver's one lock-step
# drive against the loop it replaced, on each system of drives of one to
# five - pairs and one alone, or all alone; escalating, failing,
# cancelled - and the batch, Solve4D and
# Solve5D against a reference composed of the package's public seams
# (Inject5D, PrepareSource, CGNEMixed, Reconstruct, Project4D). The suites
# run under -race with -count=2 against fresh interleavings.
go test -race -count=2 ./internal/obs/
run_gate 'Bitwise|BitForBit|Pair|ReduceChunk|Deterministic|DoesNotAllocate|NestedFor|ConcurrentCallers|Lane|Batch|Budget|Straggler|View|Workspace|RoundTrip|RoundHalf|Lanes|WilsonHop|WilsonApplyDoesNotAllocate|Discipline|Probe|Site' -race -count=2 -- ./internal/linalg/ ./internal/dirac/ ./internal/domain/ ./internal/solver/ ./internal/prop/
lap kernel
run_gate 'Obs|Timeline|Trace' -race -- ./internal/runtime/ ./internal/core/ ./internal/cluster/
lap observability
# Cache gate: the content-addressed result cache must be race-free and
# deterministic - the LRU eviction order, the byte budget, the disk
# tier's corruption-is-a-miss contract and the per-key singleflight all
# re-run under -race against fresh interleavings (-count=2). The driver
# suites then prove the product contract: a warm campaign is bit-for-bit
# the cold one with zero solver iterations (the equivalence matrix's
# 3-worker cells: every journal and batching choice, no store then a cold
# one then the same directory warm), a sequential journaled run goes
# through the store too, concurrent campaigns on one store solve each
# configuration exactly once, and an FH campaign (core.RunFHCampaign)
# reuses cached base propagators across insertions, rejects duplicate
# insertion names and keeps its pinned propagator keys. The FH regex is
# anchored so it names exactly those suites, not TestBitPinFHCampaign.
go test -race -count=2 ./internal/cache/
run_gate 'ShareSolves|UsesCache|EquivalenceMatrix/workers=3' -race -- ./internal/core/
run_gate '^Test(FHCampaign|FHPropKey|PropKeysPinned)' -race -- ./internal/core/
lap cache
# Analysis gate: the analyzer suite itself (driver, fact plumbing,
# fixtures, the vettool handshake e2e) re-runs under the race detector
# against fresh interleavings - the unitchecker is invoked concurrently
# by cmd/go, so its own code must hold to the standard it enforces.
go test -race -count=2 ./internal/analysis/...
lap analysis
# Distributed gate: the wire protocol suite - framing fuzz, bitwise
# apply/solve parity, kill-at-every-iteration recovery, chaos solves,
# partition and hang detection - re-runs under the race detector against
# fresh interleavings (-count=2, -short trims the kill sweep's stride).
# Then the real thing: multi-process garank smoke runs over localhost
# TCP with pinned seeds - a clean 4-rank solve, a rank killed mid-solve
# and recovered from checkpoint, a frame-chaos run, and a partition run
# (chaos seed 2 at rate 0.3 severs a link and forces a recovery) - every
# one required to match the single-process correlator bit for bit.
# The data path's ownership rules get their own lines: the zero-allocation
# budget natively (the number that matters is the production build's),
# the scribble-on-next-Recv solves, the table-vs-coordinates stencil and
# the halo plan (its pinned peer order, and modelled == measured frames
# and bytes at 2 and 4 ranks) under the race detector, and both fuzz
# targets over their checked-in corpora (seeds and past findings;
# `go test -fuzz` explores further).
go test -race -count=2 -short ./internal/wire/
run_gate 'DoesNotAllocate' -count=1 -- ./internal/wire/
run_gate 'NoPayloadOutlivesRecv|ApplyNormal|NormalBitwise|BitForBit|Halo' -race -count=2 -- ./internal/wire/ ./internal/domain/
run_gate Fuzz -count=1 -- ./internal/wire/
go build -o "$PWD/garank.bin" ./cmd/garank
./garank.bin -ranks 4
./garank.bin -ranks 4 -kill-rank 1 -kill-xid 3
./garank.bin -ranks 4 -drop 0.01 -corrupt 0.01 -delay 0.002 -chaos-seed 7 -max-inject 200
./garank.bin -ranks 2 -partition 0.3 -chaos-seed 2 -max-inject 4
rm -f "$PWD/garank.bin"
lap distributed
# Scenario gate: the seeded chaos-soak sweep. The scenario package's own
# suite (generator determinism, coverage, the full six-scenario soak and
# the replay-identity contract) re-runs under the race detector against
# fresh interleavings. Then gastress sweeps the pinned seed twice: eight
# scenarios spanning all five mix families plus preemption, budget
# expiry, and network chaos, each run live (runtime pool + real physics
# episode) and simulated (cluster twin), held to the full invariant set,
# with the two sweeps required to produce byte-identical canonical
# reports. A single-index replay then proves one scenario reproduces in
# isolation, outside sweep order.
go test -race -count=2 ./internal/scenario/
go build -o "$PWD/gastress.bin" ./cmd/gastress
./gastress.bin -seed 1 -count 8 -repeat 2
./gastress.bin -seed 1 -index 3
rm -f "$PWD/gastress.bin"
lap scenario
# Service gate: the multi-tenant campaign server. The serve suite
# re-runs under the race detector against fresh interleavings
# (-count=2): stride fair-share order pinned exactly, priorities that
# would zero a tenant's stride refused, quota admission refusals,
# cross-tenant warm duplicates with zero solver iterations,
# concurrent-duplicate coalescing through the cache singleflight,
# drain + restart resuming a journaled campaign bit for bit, and a
# byte-identical /metrics rendering for a fixed workload. The shared
# flag validator runs with it, then the gaserve e2e drives the real
# binary over real HTTP: three tenants, a duplicate served warm from
# the shared cache, a validation 400 and a quota 429, SIGTERM
# mid-campaign, and a second server generation resuming the journal to
# the uninterrupted run's fingerprint. The gasolve e2e runs one
# campaign as three `-journal -batch 1` invocations plus one on the
# finished journal, which must append nothing, and holds the journal to
# core.Run's fingerprint for the same spec. jmsim's flag test runs the
# command on flag sets it must refuse with exit 2 before its table. Last,
# the submission decoder is fuzzed for a short fixed time: whatever body
# POST /v1/campaigns reads, it fails, or yields a spec core accepts on a
# lattice inside the server's site and Ls caps, and never panics (15 s
# reach 56000-124000 execs on a 2-vCPU host, where the fuzz engine stalls
# after its first seconds).
go test -race -count=2 ./internal/serve/ ./internal/validate/
run_gate 'EndToEnd|FlagValidation' -race -- ./cmd/gaserve/ ./cmd/gasolve/ ./cmd/garank/ ./cmd/gastress/ ./cmd/jmsim/
go test -run '^$' -fuzz '^FuzzSubmitRequest$' -fuzztime 15s ./internal/serve/
lap service
# Touched-package gate: an interleaving-dependent test shows only when
# its suite is repeated, and five were found by hand in four PRs because
# somebody happened to pass -count. So every package the change under test
# touches re-runs its whole suite three times under the race detector. The
# change under test is the Go files that differ from the merge base with
# $CI_BASE when CI names the target branch; otherwise the uncommitted
# ones, if there are any, and the last commit's if the tree is clean. The
# nested benchmark module has its own step above.
if [ -n "${CI_BASE:-}" ]; then
	base=$(git merge-base HEAD "$CI_BASE")
elif [ -n "$(git status --porcelain -- '*.go')" ]; then
	base=HEAD
else
	base=HEAD~1
fi
touched=$({
	git diff --name-only "$base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go'
} | grep -v '^benchmark/' | xargs -r -n1 dirname | sort -u | while read -r d; do
	if ls "$d"/*.go >/dev/null 2>&1; then echo "./$d"; fi
done)
if [ -n "$touched" ]; then
	# shellcheck disable=SC2086 # touched is a word list
	go test -race -count=3 -timeout 120m $touched
fi
lap touched
# The femtolint suppression budget: the tree carries 8 reviewed
# //femtolint:ignore directives (the runtime's deliberate post-drain
# Wait, the journal's best-effort Close-after-error cleanups). New code
# must satisfy the passes, not suppress them. Audit mode replaces the old
# grep: it counts real, well-formed directives in non-test files through
# the analysis itself, and additionally fails on malformed directives and
# on stale ones that no longer suppress anything.
"$PWD/femtolint.bin" -audit -budget=8 ./...
lap audit

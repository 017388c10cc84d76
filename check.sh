#!/bin/sh
# check.sh — the tier-1 gate. Everything here must pass before a change
# lands: formatting, vet, a full build, the full test suite, and the
# race-enabled concurrency suites for the serving pool and runtime.
set -eu
cd "$(dirname "$0")"

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed:" "$fmt"
    exit 1
fi

echo '== go vet ./...'
go vet ./...

echo '== go build ./...'
go build ./...

echo '== go test ./...'
go test ./...

# internal/serve is here because its handlers run sandboxes on their own
# goroutines, on runtimes leased from the shard pools.
echo '== go test -race ./internal/pool ./internal/serve ./internal/lfirt ./internal/obs ./internal/emu ./internal/mem'
go test -race ./internal/pool ./internal/serve ./internal/lfirt ./internal/obs ./internal/emu ./internal/mem

echo '== worker hand-off under race, 20 runs (a worker handed to a caller whose context just fired is never lost)'
go test -race -count=20 -run 'TestHandoffToCanceledWaiter' ./internal/pool

echo '== page-sharing suite under race (snapshot bytes immutable, no residue, no recycled backing, exact round trip, failed loads free their slot)'
go test -race -count=1 -run 'TestSnapshotBytesImmutable|TestRecycledPageNoResidue|TestSharedBackingNeverRecycled|TestSnapshotRoundTripExact|TestLoadFailureReleasesSlot' \
    ./internal/mem ./internal/lfirt

echo '== IPC suite under race (conformance, stress, pipelines, snapshot regressions)'
go test -race -run 'TestIPC|TestRing|TestStream|TestDgram|TestPipeline|TestSnapshotBlocked|TestYield' \
    ./internal/lfirt ./internal/pool

echo '== transition suite under race (vectored calls, handoff, wake coalescing and order, cross-slot blocks, guest-memory spans at page and slot edges, faulting calls without side effects, fork by snapshot and restore)'
go test -race -run 'TestVSubmit|TestHandoff|TestWake|TestCallTableSync|TestWakeOrderDeterministic|TestWaitReapsLowestPID|TestCrossSlotBlocks|TestSpanBoundaries|TestReadFaultKeepsPipeBytes|TestPipeFaultLeaksNoDescriptor|TestWaitFaultKeepsChild|TestForkChildContextWord|TestForkCopiesOnlyWrittenPages' ./internal/lfirt

echo '== transition micro-bench smoke (direct handoff <= 1.5x bare yield; no allocation per runtime call; no page per warm cycle)'
go test -count=1 -run TestTransitionRatios ./internal/bench
# Not under -race: the detector allocates on its own account.
go test -count=1 -run 'TestTransitionAllocs|TestWarmCycleAllocs' ./internal/lfirt
# The profile loop EXPERIMENTS.md "Host cost of a transition" cites.
go test -run '^$' -bench BenchmarkTransitions -benchtime 1x ./internal/lfirt
# The warm-cycle loop the emulator's flush-cost figures come from
# (EXPERIMENTS.md "Chain links on lowered slots").
go test -run '^$' -bench BenchmarkWarmCycle -benchtime 1x ./internal/lfirt
# The fork loop EXPERIMENTS.md "One way to make a sandbox" cites.
go test -run '^$' -bench BenchmarkFork -benchtime 1x ./internal/lfirt

echo '== bench smoke (go test -bench=BenchmarkEmu -benchtime=1x: each executor on each kernel; lowered slot <= 64 B and pointer-free; scoreboard and runtime charges exact in ticks)'
go test -run '^$' -bench 'BenchmarkEmu' -benchtime=1x .
go test -count=1 -run 'TestSlotLayout|TestTimingTicks|TestAddTicksExact' ./internal/emu

echo '== toolchain: golden ELF + alloc bound (verifier: none on accept, none per instruction); codec pinned over 2^24 stride words, checked against the ISA table, refusing registers of the wrong bank'
# Not under -race: the detector allocates on its own account.
go test -count=1 -run 'TestBuildGolden|TestRewriteTextGolden|TestBuildAllocs|TestVerifyAllocs' ./internal/progs
go test -count=1 -run 'TestPrintGolden|TestCodecStride|TestRowsAgainstISA|TestEncodeRefusesWrongBank' ./internal/arm64
# The per-word codec loop EXPERIMENTS.md "The build at codec speed" cites.
go test -run '^$' -bench BenchmarkCodec -benchtime 1x .

echo '== toolchain at 1, 2 and 4 cores (no output may depend on the core count)'
go test -count=1 -cpu 1,2,4 -run 'TestBuildGolden|TestChunked' ./internal/progs

echo '== chunked parse/rewrite/assemble/verify and single-flight image builds under race'
go test -race -count=1 -run 'TestChunked|TestCacheSingleFlight' \
    ./internal/arm64 ./internal/rewrite ./internal/verifier ./internal/pool

echo '== fuzz smoke (lfi-fuzz -iters 2000 -seed 1)'
go run ./cmd/lfi-fuzz -iters 2000 -seed 1

echo '== prove smoke (lfi-verify -prove: per-class sweep, zero counterexamples)'
go run ./cmd/lfi-verify -prove
if [ -n "${LFI_PROVE_FULL:-}" ]; then
    echo '== prove full (LFI_PROVE_FULL set: full register/displacement sweep)'
    go run ./cmd/lfi-verify -prove -full
fi

echo '== wasm conformance under race (wasmfront differential suite, wasmbase)'
go test -race ./internal/wasmfront ./internal/wasmbase
# Not under -race: the detector allocates on its own account.
go test -count=1 -run 'TestDecodeAllocBound' ./internal/wasmfront

echo '== wasm fuzz smoke (FuzzWasmTranslate, 5000 executions)'
go test -run '^$' -fuzz '^FuzzWasmTranslate$' -fuzztime 5000x ./internal/fuzz

echo '== verifier and codec fuzz smoke (FuzzVerify, FuzzRewriteVerify, FuzzDecode: 5000 executions each)'
go test -run '^$' -fuzz '^FuzzVerify$' -fuzztime 5000x ./internal/fuzz
go test -run '^$' -fuzz '^FuzzRewriteVerify$' -fuzztime 5000x ./internal/fuzz
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5000x ./internal/fuzz

echo '== emulator lockstep fuzz smoke (FuzzExecLockstep, 5000 executions: fast path vs per-step on fuzzed words)'
go test -run '^$' -fuzz '^FuzzExecLockstep$' -fuzztime 5000x ./internal/fuzz

echo '== serve smoke (lfi-serve -listen + lfi-loadgen -smoke)'
bindir=$(mktemp -d)
servelog="$bindir/serve.log"
go build -o "$bindir/lfi-serve" ./cmd/lfi-serve
go build -o "$bindir/lfi-loadgen" ./cmd/lfi-loadgen
"$bindir/lfi-serve" -listen 127.0.0.1:0 2>"$servelog" &
servepid=$!
addr=''
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's|.*serving on http://\([^/]*\)/v1/jobs.*|\1|p' "$servelog")
    [ -n "$addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo 'lfi-serve did not come up:'
    cat "$servelog"
    kill "$servepid" 2>/dev/null || true
    exit 1
fi
"$bindir/lfi-loadgen" -smoke -addr "$addr"
kill -TERM "$servepid"
wait "$servepid" || true
rm -rf "$bindir"

# Not gated, but it moves host speed: with both at 0 instead of 32 mod 64,
# exec read op_p50_ms 26.6 -> 34.4 (EXPERIMENTS.md, "A runtime call
# touches guest memory in place", Placement). Compare against the parent.
echo '== emulator hot loops in the ./benchmark binary, address mod 64 (printed, not gated; see EXPERIMENTS.md "Placement")'
nmdir=$(mktemp -d)
go build -o "$nmdir/benchmark" ./benchmark
go tool nm -n "$nmdir/benchmark" | while read -r addr _ name; do
    case "$name" in
    'lfi/internal/emu.(*CPU).exec' | 'lfi/internal/emu.(*CPU).runBlocks')
        echo "$name 0x$addr: $((0x$addr % 64)) mod 64" ;;
    esac
done
rm -rf "$nmdir"

echo '== non-test Go lines outside benchmark/ (ROADMAP aim 2: this figure should fall)'
git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

echo 'ok'

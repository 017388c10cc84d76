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

echo '== go test -race ./internal/pool ./internal/lfirt ./internal/obs ./internal/emu ./internal/mem'
go test -race ./internal/pool ./internal/lfirt ./internal/obs ./internal/emu ./internal/mem

echo '== page-sharing suite under race (snapshot bytes immutable, no residue, no recycled backing, exact round trip)'
go test -race -count=1 -run 'TestSnapshotBytesImmutable|TestRecycledPageNoResidue|TestSharedBackingNeverRecycled|TestSnapshotRoundTripExact' \
    ./internal/mem ./internal/lfirt

echo '== IPC suite under race (conformance, stress, pipelines, snapshot regressions)'
go test -race -run 'TestIPC|TestRing|TestStream|TestDgram|TestPipeline|TestSnapshotBlocked|TestYield' \
    ./internal/lfirt ./internal/pool

echo '== transition suite under race (vectored calls, handoff, wake coalescing and order, cross-slot blocks)'
go test -race -run 'TestVSubmit|TestHandoff|TestWake|TestCallTableSync|TestWakeOrderDeterministic|TestWaitReapsLowestPID|TestCrossSlotBlocks' ./internal/lfirt

echo '== transition micro-bench smoke (direct handoff <= 1.5x bare yield; no allocation per runtime call; no page per warm cycle)'
go test -count=1 -run TestTransitionRatios ./internal/bench
# Not under -race: the detector allocates on its own account.
go test -count=1 -run 'TestTransitionAllocs|TestWarmCycleAllocs' ./internal/lfirt

echo '== bench smoke (go test -bench=BenchmarkEmu -benchtime=1x)'
go test -run '^$' -bench 'BenchmarkEmu' -benchtime=1x .

echo '== toolchain: golden ELF + alloc bound'
go test -count=1 -run 'TestBuildGolden|TestRewriteTextGolden|TestBuildAllocs' ./internal/progs
go test -count=1 -run 'TestPrintGolden' ./internal/arm64

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

echo '== wasm bench smoke (lfi-bench -wasm -smoke)'
go run ./cmd/lfi-bench -wasm -smoke

echo '== serve race suite (go test -race ./internal/serve)'
go test -race ./internal/serve

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

echo '== non-test Go lines outside benchmark/ (ROADMAP aim 2: this figure should fall)'
git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

echo 'ok'

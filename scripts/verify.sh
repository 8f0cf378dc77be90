#!/usr/bin/env bash
# verify.sh — driftclean's full verification gate.
#
# Runs, in order: build, gofmt, go vet, driftlint (the project-native static
# analyzers in internal/lint), the chaos/fault-injection suites, the
# hearst fuzz seed corpus, the full test suite under the race detector,
# and a total-statement-coverage ratchet (override with COVER_MIN). Any
# diagnostic from any stage fails the gate (nonzero exit), which is
# exactly what CI wants: the paper's drift metrics are only meaningful
# when every run is deterministic and race-free.
#
# Usage: scripts/verify.sh        (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go build ./cmd/driftserve (serving binary)"
go build -o "$(mktemp -d)/driftserve" ./cmd/driftserve

# Checks the repository's own Go files (tracked or new, not ignored
# build output). internal/lint/testdata holds analyzer fixtures whose
# diagnostics are pinned to line and column, so it stays as written.
echo "==> gofmt -l (excluding internal/lint/testdata)"
unformatted=$(git ls-files --cached --others --exclude-standard -- '*.go' ':!internal/lint/testdata' \
  | xargs gofmt -l)
if [ -n "$unformatted" ]; then
  echo "gofmt would reformat:" >&2
  echo "$unformatted" >&2
  exit 1
fi

# Line-count ratchet: non-test Go in the root module (tracked or new
# files, without perfbench/ and internal/lint/testdata/) must not grow
# past the ceiling. Lowering the ceiling is always fine; raising it is a
# reviewed decision that belongs in the same diff as the growth.
GO_LINES_MAX=20462
echo "==> non-test Go line count (ceiling: ${GO_LINES_MAX})"
go_lines=$(git ls-files --cached --others --exclude-standard -- '*.go' ':!*_test.go' ':!perfbench/' ':!internal/lint/testdata/' \
  | while read -r f; do if [ -f "$f" ]; then cat "$f"; fi; done | wc -l)
echo "    non-test Go: ${go_lines} lines"
if [ "$go_lines" -gt "$GO_LINES_MAX" ]; then
  echo "non-test Go grew to ${go_lines} lines, past the ceiling ${GO_LINES_MAX}" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

# The suppression budget is a ratchet: 2 //lint:ignore directives are
# reviewed and justified in-source today. Lowering the number is always
# fine; raising it is a reviewed decision that belongs in this diff.
echo "==> driftlint ./... (suppression budget: 2)"
go run ./cmd/driftlint -maxignores 2 ./...

echo "==> driftlint (serving + snapshot-format packages)"
go run ./cmd/driftlint ./internal/snapshot/... ./internal/serve/... ./internal/kb/... \
  ./cmd/driftserve/... ./cmd/kbquery/... ./cmd/kbsnap/...

echo "==> go test -race (serving: snapshot swap under concurrent readers, drift index built once)"
go test -race -run 'TestSwapUnderConcurrentReaders|TestConcurrentReads|TestCoalescing|TestDriftIndex|TestDrifted' \
  ./internal/snapshot ./internal/serve

echo "==> go test -race (admission control: bounded queue, shed as 429 over HTTP, non-blocking ingest counter)"
go test -race -run 'TestAdmission|TestBatchesDoesNotBlock|TestOverloadSurfacesAs429' \
  ./internal/serve ./cmd/driftserve

echo "==> go test -race (parallel pipeline determinism, workers >= 4; fanned-out multi-task training; memoized ID-keyed mutual-exclusion discovery = fresh = string reference)"
go test -race -run 'TestPipelineParallelMatchesSerial' .
go test -race -run 'TestDetectSerialMatchesParallel|TestAnalyzeFansOutPerConcept|TestMutexMemo' ./internal/core
go test -race -run 'TestTrainMultiTaskSerialMatchesParallel' ./internal/learn
go test -race -run 'TestQuickBuildMatchesStringReference' ./internal/mutex

echo "==> go test -race (two-generation memos: unit tests, checkpoint reuse gate, multi-round incremental = batch)"
go test -race ./internal/memo
go test -race -run 'TestCheckpointRerunRebuildsNothing|TestFailedCheckpointDoesNotRotateMemos' ./internal/core
go test -race -run 'TestSessionCheckpointsMatchFromScratch/multi-round' .

echo "==> go test -race (per-pass sub(e) index: kb differential, index-fed Seeds/Matrix bit identity, shared-index hammer)"
go test -race -run 'TestSubIndexMatchesSubInstances|TestQuickSubIndexMatchesSubInstances' ./internal/kb
go test -race -run 'TestMatrixMatchesVectorBits|TestConceptsOfMatchesPairs|TestWarmRaceHammer' ./internal/feature
go test -race -run 'TestSeedsMatchPerInstanceLabel' ./internal/seedlabel

echo "==> go test -race (shorter round: support-restricted walk teleport, fanned-out Detect calibration)"
go test -race -run 'TestRandomWalkMatchesReference|TestBuildGraphCoreMatchesIteration1' ./internal/rank
go test -race -run 'TestDetectMatchesReferenceLoop' ./internal/core

echo "==> go test -race (concept digests: incremental = recompute = every load path, digest-keyed artifacts and walk cache, task index = fresh analysis, lazily filled feature caches)"
go test -race -run 'TestQuickDigestMatchesRecompute|TestDigestKeysArtifactsAcrossCheckpoints' ./internal/kb
go test -race -run 'TestDigestCacheReusesAcrossKBs|TestCacheConcurrentScoresAgree|TestCacheRewalksOnlyRolledBackConcept' ./internal/rank
go test -race -run 'TestTaskIndexMatchesFreshAnalysis' ./internal/core
go test -race -run 'TestWarmRaceHammer|TestWarmParallelMatchesSerial' ./internal/feature

echo "==> go test -race (clone-free publish: KB-maintained pair count and holder index, seal, published snapshot under a running checkpoint)"
go test -race -run 'TestQuickIndexMatchesScan|TestSealedKBRejectsMutation|TestCloneSharesHolderListsCopyOnWrite' ./internal/kb
go test -race -run 'TestPublishedSnapshot' .

echo "==> go test -race (interned IDs: lock-free name table under a concurrent writer, shared-table KB = private-table KB, exclusive holder's core bit in the task key)"
go test -race -run 'TestSymbols|TestQuickDigestMatchesRecompute|TestQuickIndexMatchesScan' ./internal/kb
go test -race -run 'TestTaskKeyCoversExclusiveHolderCore' ./internal/core

echo "==> go test -race (chaos: injected faults, panics, reload breaker)"
go test -race ./internal/fault
go test -race -run 'TestChaosDisabledFaultsAreNoOp|TestChaosPanicSurfacesAsReportError' .
go test -race -run 'TestReload|TestQuery' ./internal/serve ./cmd/driftserve

echo "==> fuzz seed corpus (hearst parser + lint CFG + top-k eigensolver + binary snapshot decoder, seeds only)"
go test -run 'FuzzParseSentence' ./internal/hearst
go test -run 'FuzzCFG' ./internal/lint
go test -run 'FuzzEigenSymTopK' ./internal/linalg
go test -run 'FuzzDecode' ./internal/kb/binsnap

echo "==> snapshot representation differential (heap KB vs binary mmap, byte-identical /v1/* responses)"
go test -race -run 'TestFormatsServeIdenticalResponses' ./internal/serve

echo "==> go test -race ./..."
go test -race ./...

echo "==> coverage ratchet (total statement coverage >= ${COVER_MIN:=82.0}%)"
go test -count=1 -coverprofile=/tmp/driftclean-cover.out -coverpkg=./... ./... > /dev/null
total=$(go tool cover -func=/tmp/driftclean-cover.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
echo "    total coverage: ${total}%"
awk -v got="$total" -v min="$COVER_MIN" 'BEGIN { exit got >= min ? 0 : 1 }' || {
  echo "coverage ${total}% fell below the ratchet ${COVER_MIN}%" >&2
  exit 1
}

echo "==> hot-path benchmarks (compile + one iteration each)"
go test -run '^$' -bench . -benchtime=1x \
  ./internal/linalg ./internal/kpca ./internal/rank ./internal/feature ./internal/learn ./internal/serve

# The pinned rows are the cleaned-KB fingerprints of the default
# pipeline up to 120k sentences, batch at 1 and 4 workers and as
# one-sentence Session checkpoints; under -race only the smoke rows run.
echo "==> pinned pipeline fingerprints (every row; smoke rows again under -race)"
go test -count=1 -run 'TestPinnedFingerprints' .
go test -race -count=1 -run 'TestPinnedFingerprints' .

echo "==> driftload smoke (response fingerprint + latency sweep + snapshot reload)"
go run ./cmd/driftload -smoke -out BENCH_serve.smoke.json
go run ./cmd/driftload -validate BENCH_serve.smoke.json

# The committed full-sweep artifact carries the headline reload claim:
# at scale, reloading the binary snapshot takes at most 4ms at p50.
echo "==> committed serving artifact (schema + 4ms reload p50 ceiling)"
go run ./cmd/driftload -validate BENCH_serve.json -maxreload 4ms

echo "verify: all gates passed"

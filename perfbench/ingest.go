package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"driftclean"
	"driftclean/internal/bench"
	"driftclean/internal/extract"
	"driftclean/internal/snapshot"
)

// ingestTail is how many sentences of the arrival order the set-up holds
// back from the bulk ingest, to be ingested one per timed op.
const ingestTail = 400

// tracedCheckpoints is the traced ingest run's fixed op count: its reuse
// counts must repeat exactly from run to run, so it does not depend on
// the clock.
const tracedCheckpoints = 30

// splitTail holds the corpus's last ingestTail sentences back from the
// bulk ingest and returns both parts in the seed's arrival order. The
// bulk set, and so the KB the timed checkpoints start from, is the same
// for every seed; a seed changes which tail sentences arrive when.
func splitTail(s []driftclean.Sentence, seed int64) (bulk, tail []driftclean.Sentence) {
	n := len(s) - ingestTail
	return arrival(s[:n], seed), arrival(s[n:], seed)
}

// runIngest drives driftserve -session: the set-up bulk-ingests all but
// the tail of the corpus and runs one warm-up checkpoint; each timed op
// is a POST /v1/ingest of one sentence, which runs a checkpoint,
// Publish and Swap. The benchmark sends the sentences itself, in the
// seed's arrival order, so the server receives only generated input.
//
// driftserve -session takes no world seed and always evaluates against
// world 1, so this workload runs on world 1 only.
func runIngest(rc *runCtx) error {
	if rc.world != 1 {
		return fmt.Errorf("world %d: driftserve -session serves world 1 only", rc.world)
	}
	if rc.trace {
		return traceIngest(rc)
	}
	ctx := context.Background()
	cfg := pipelineConfig(rc.w.sentences, rc.world)
	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
	if err != nil {
		return err
	}
	bulk, tail := splitTail(sess.Sentences(), rc.seed)
	sess.Close()

	var t timing
	var srv *server
	var gen uint64
	for i := 0; i < rc.w.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(rc, 0, "-session", "-sentences", strconv.Itoa(rc.w.sentences)); err != nil {
			return err
		}
		for _, batch := range [][]driftclean.Sentence{bulk, tail[:1]} {
			ack, err := srv.ingest(batch)
			if err != nil {
				srv.stop()
				return fmt.Errorf("set-up ingest: %w", err)
			}
			gen = ack.Generation
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	done := append(append([]driftclean.Sentence(nil), bulk...), tail[0])
	pid := srv.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	probe := startHostProbe()
	start := time.Now()
	deadline := start.Add(rc.seconds)
	for _, s := range tail[1:] {
		if !time.Now().Before(deadline) {
			break
		}
		rc.attempted++
		t0 := time.Now()
		ack, err := srv.ingest([]driftclean.Sentence{s})
		d := time.Since(t0)
		if err != nil {
			rc.fail("ingest: %v", err)
			continue
		}
		done = append(done, s)
		t.lat = append(t.lat, ms(d))
		if ack.Ingested != 1 || ack.Generation <= gen {
			rc.fail("ingest ack %+v after generation %d", ack, gen)
		}
		gen = max(gen, ack.Generation)
	}
	t.wall = time.Since(start)
	probe.finish(rc)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	t.cpu = cpu1 - cpu0
	if t.rssMB, err = peakRSSMB(pid); err != nil {
		return err
	}
	served, err := srv.stats()
	if err != nil {
		return err
	}
	srv.stop()

	// The server's KB must equal a batch run over the same sentences.
	ref, err := batchReference(cfg, done)
	if err != nil {
		return err
	}
	if want := ref.KB.Stats(); served != want {
		rc.fail("served stats %+v after the run, batch reference %+v", served, want)
	}
	rc.logf("served %d pairs after %d sentences", served.DistinctPairs, len(done))
	rc.report(t)
	return nil
}

// batchReference runs one Session checkpoint over the sentences.
func batchReference(cfg driftclean.Config, sentences []driftclean.Sentence) (*driftclean.System, error) {
	ctx := context.Background()
	sess, err := driftclean.Open(ctx, driftclean.WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rep, err := sess.Ingest(ctx, sentences)
	if err != nil && !errors.Is(err, driftclean.ErrNoDPsDetected) {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	return rep.System, nil
}

// traceIngest replicates the server's checkpoints in-process layer by
// layer: extract.Stream Append and Replay, the traced detect-and-clean
// loop and evaluation, and snapshot.Freeze for Publish. It runs a fixed
// number of one-sentence checkpoints and checks that the final KB
// equals a batch run over the same sentences.
func traceIngest(rc *runCtx) error {
	cfg := pipelineConfig(rc.w.sentences, rc.world)
	sys, memo := tracedSystem(cfg)
	bulk, tail := splitTail(sys.Corpus.Sentences, rc.seed)
	stream := extract.NewStream(sys.Cfg.Extract)
	checkpoint := func(tr *tracer, c *layerCounts, batch []driftclean.Sentence, op int) error {
		root := tr.begin("checkpoint", -1, op)
		x := tr.begin("extract", root, op)
		stream.Append(batch)
		res := stream.Replay()
		tr.end(x)
		sys.Extraction, sys.KB = res, res.KB
		if err := cleanAndEvaluate(sys, tr, root, op, c); err != nil {
			return err
		}
		f := tr.begin("freeze", root, op)
		snapshot.Freeze(sys.KB)
		tr.end(f)
		tr.end(root)
		return nil
	}

	var setup layerCounts
	for _, batch := range [][]driftclean.Sentence{bulk, tail[:1]} {
		if err := checkpoint(newTracer(), &setup, batch, -1); err != nil {
			return err
		}
	}
	tr := newTracer()
	var c layerCounts
	hits0, fits0 := sys.TaskCacheStats()
	walk0, _ := memo.Stats()
	rt0 := readRuntime()
	probe := startHostProbe()
	n := min(tracedCheckpoints, len(tail)-1)
	for ; c.ops < n; c.ops++ {
		rc.attempted++
		if err := checkpoint(tr, &c, tail[1+c.ops:2+c.ops], c.ops); err != nil {
			return err
		}
	}
	rt1 := readRuntime()
	probe.finish(rc)
	hits1, fits1 := sys.TaskCacheStats()
	walk1, _ := memo.Stats()
	c.taskHits, c.fits, c.walkHits = hits1-hits0, fits1-fits0, walk1-walk0

	done := append(append([]driftclean.Sentence(nil), bulk...), tail[:1+n]...)
	ref, err := batchReference(cfg, done)
	if err != nil {
		return err
	}
	if got, want := bench.Fingerprint(sys.KB), bench.Fingerprint(ref.KB); got != want {
		rc.fail("traced checkpoints end in fingerprint %s, batch reference %s", got, want)
	}
	return rc.reportLayers(tr, "checkpoint", c, rt0, rt1)
}

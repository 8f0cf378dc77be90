package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for an op's root span); Op groups the spans of one
// op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out once the run has
// finished. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// selfMS sums, per span name, each span's duration minus the time its
// children cover, in milliseconds. Children of one span never overlap:
// every traced layer call is sequential.
func (t *tracer) selfMS() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// durationsMS lists the durations of every span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeTrace saves the traced run's spans as JSON under the work
// directory.
func (rc *runCtx) writeTrace(t *tracer) error {
	dir := filepath.Join(rc.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rc.w.name, rc.seed)), b, 0o644)
}

package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"driftclean/internal/kb"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

// body is one response the server can send. appendJSON appends the
// value's JSON encoding, byte for byte what json.Encoder.Encode writes
// (field order and names, omitempty, nil slices as null, HTML-escaped
// strings, the trailing newline), without reflection. The struct tags
// stay on the wire types for the clients and tests that decode them.
type body interface {
	appendJSON(b []byte) []byte
}

// The service's result types, given the encoder's methods.
type (
	statsBody    serve.StatsResult
	conceptList  []serve.ConceptInfo
	instanceList []serve.InstanceInfo
	driftList    []snapshot.DriftRow
	explanation  kb.Explanation
)

// bufPool recycles response buffers across requests.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON sends v with the given status as one JSON body, built whole
// in a pooled buffer and written once.
func writeJSON(w http.ResponseWriter, status int, v body) {
	bp := bufPool.Get().(*[]byte)
	b := v.appendJSON((*bp)[:0])
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(b) // on error the response is committed; nothing to send
	*bp = b
	bufPool.Put(bp)
}

// plain marks the bytes a JSON string carries as they are: printable
// ASCII other than the quote, the backslash and the HTML-escaped <, >
// and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string. A string with any byte that
// is not plain goes through json.Marshal, so escapes, U+2028/U+2029 and
// invalid UTF-8 come out as encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

func appendPair(b []byte, p kb.Pair) []byte {
	b = appendString(append(b, `{"Concept":`...), p.Concept)
	return append(appendString(append(b, `,"Instance":`...), p.Instance), '}')
}

// appendList appends s as a JSON array of elements written by elem, or
// null for a nil slice.
func appendList[T any](b []byte, s []T, elem func(b []byte, e *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

func (v statsBody) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"generation":`...), v.Generation, 10)
	b = appendInt(append(b, `,"stats":{"DistinctPairs":`...), v.Stats.DistinctPairs)
	b = appendInt(append(b, `,"TotalCount":`...), v.Stats.TotalCount)
	b = appendInt(append(b, `,"Concepts":`...), v.Stats.Concepts)
	b = appendInt(append(b, `,"ActiveExtractions":`...), v.Stats.ActiveExtractions)
	return append(b, "}}\n"...)
}

func (v conceptList) appendJSON(b []byte) []byte {
	return append(appendList(b, v, func(b []byte, c *serve.ConceptInfo) []byte {
		b = appendString(append(b, `{"name":`...), c.Name)
		return append(appendInt(append(b, `,"instances":`...), c.Instances), '}')
	}), '\n')
}

func (v instanceList) appendJSON(b []byte) []byte {
	return append(appendList(b, v, func(b []byte, e *serve.InstanceInfo) []byte {
		b = appendString(append(b, `{"name":`...), e.Name)
		b = appendInt(append(b, `,"count":`...), e.Count)
		return append(appendInt(append(b, `,"sub_instances":`...), e.SubInstances), '}')
	}), '\n')
}

func (v driftList) appendJSON(b []byte) []byte {
	return append(appendList(b, v, func(b []byte, r *snapshot.DriftRow) []byte {
		b = append(b, '{')
		if r.Concept != "" { // omitempty
			b = append(appendString(append(b, `"concept":`...), r.Concept), ',')
		}
		b = appendString(append(b, `"name":`...), r.Name)
		return append(appendInt(append(b, `,"depth":`...), r.Depth), '}')
	}), '\n')
}

func (v explanation) appendJSON(b []byte) []byte {
	b = appendPair(append(b, `{"Pair":`...), v.Pair)
	b = appendInt(append(b, `,"Count":`...), v.Count)
	b = appendList(append(b, `,"Supports":`...), v.Supports, func(b []byte, s *kb.Support) []byte {
		b = appendInt(append(b, `{"ExtractionID":`...), s.ExtractionID)
		b = appendInt(append(b, `,"SentenceID":`...), s.SentenceID)
		b = appendInt(append(b, `,"Iteration":`...), s.Iteration)
		b = appendList(append(b, `,"Triggers":`...), s.Triggers, func(b []byte, t *string) []byte {
			return appendString(b, *t)
		})
		b = appendList(append(b, `,"Chain":`...), s.Chain, func(b []byte, l *kb.ChainLink) []byte {
			b = appendPair(append(b, `{"Pair":`...), l.Pair)
			b = appendInt(append(b, `,"Iteration":`...), l.Iteration)
			return append(strconv.AppendBool(append(b, `,"Core":`...), l.Core), '}')
		})
		return append(b, '}')
	})
	return append(b, "}\n"...)
}

func (v generationResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"generation":`...), v.Generation, 10)
	return append(strconv.AppendBool(append(b, `,"stale":`...), v.Stale), "}\n"...)
}

func (v reloadResponse) appendJSON(b []byte) []byte {
	return append(strconv.AppendUint(append(b, `{"generation":`...), v.Generation, 10), "}\n"...)
}

func (v ingestResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendUint(append(b, `{"generation":`...), v.Generation, 10)
	b = appendInt(append(b, `,"ingested":`...), v.Ingested)
	return append(appendInt(append(b, `,"remaining":`...), v.Remaining), "}\n"...)
}

func (v errorBody) appendJSON(b []byte) []byte {
	return append(appendString(append(b, `{"error":`...), v.Error), "}\n"...)
}

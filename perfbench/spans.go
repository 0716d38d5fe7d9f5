package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"twolevel/internal/span"
)

// spanRec is one recorded span: the benchmark's own (Source "bench",
// around a call into the program) or one of the program's tracers
// (Source "program"). Start and End are offsets from the round's start.
type spanRec struct {
	Round  int               `json:"round"`
	Source string            `json:"source"`
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s spanRec) dur() time.Duration { return s.End - s.Start }

func (s spanRec) iv() interval { return interval{s.Start, s.End} }

// tracer keeps one traced round's spans in memory. A nil tracer records
// nothing, so untraced rounds pass nil.
type tracer struct {
	round int
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	recs  []spanRec
}

func newTracer(round int) *tracer { return &tracer{round: round, epoch: time.Now()} }

// add records a finished span and returns its id. attrs are key, value
// pairs.
func (t *tracer) add(name string, parent uint64, start, end time.Time, attrs ...string) uint64 {
	if t == nil {
		return 0
	}
	rec := spanRec{Round: t.round, Source: "bench", Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	if len(attrs) > 0 {
		rec.Attrs = map[string]string{}
		for i := 0; i+1 < len(attrs); i += 2 {
			rec.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	rec.ID = t.next
	t.recs = append(t.recs, rec)
	return rec.ID
}

// addProgram converts records from one of the program's tracers, whose
// epoch sits at offset from this tracer's epoch, and returns them.
func (t *tracer) addProgram(recs []span.Record, offset time.Duration) []spanRec {
	out := make([]spanRec, 0, len(recs))
	for _, r := range recs {
		s := spanRec{Round: t.round, Source: "program", ID: r.ID, Parent: r.Parent, Name: r.Name,
			Start: r.Start + offset, End: r.End + offset}
		if len(r.Attrs) > 0 {
			s.Attrs = map[string]string{}
			for _, a := range r.Attrs {
				s.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, s)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, out...)
	return out
}

func (t *tracer) records() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.recs...)
}

// childrenOf indexes recs by parent id.
func childrenOf(recs []spanRec) map[uint64][]spanRec {
	out := map[uint64][]spanRec{}
	for _, r := range recs {
		if r.Parent != 0 {
			out[r.Parent] = append(out[r.Parent], r)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s spanRec, kids []spanRec) time.Duration {
	ivs := make([]interval, len(kids))
	for i, k := range kids {
		ivs[i] = k.iv()
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// writeSpans writes every traced round's spans as one JSON array.
func writeSpans(path string, recs []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

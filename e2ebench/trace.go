package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a call into a layer made from the
// benchmark, or a detection's path from its POST to the watch stream.
// Spans of one request share the request span as Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // records, entries or pages covered
}

// tracer keeps spans in memory until the run ends. Only the goroutine
// that owns it records; a nil tracer or one switched off records
// nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// add records a finished span and returns its ID (0 when not
// recording).
func (t *tracer) add(name string, parent uint64, start, end time.Time, n int) uint64 {
	if t == nil || !t.on {
		return 0
	}
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Count: n,
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

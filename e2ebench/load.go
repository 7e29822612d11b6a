package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/client"
)

// newHTTPClient returns a client pinned to one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run's measured phase; alternating cancels drift
// in the data's rate out of trace.overhead_frac.
const traceSlice = 500 * time.Millisecond

// depthSample is one observation of the summed pipeline queue depth.
type depthSample struct {
	at    time.Duration
	depth int
}

// loader is the load generator's request side: one goroutine, one
// connection. It posts the measured bodies, issues reads, and records
// what it saw.
type loader struct {
	hc   *http.Client
	base string
	ds   *dataset
	tr   *tracer

	posts, reads, failed int
	accepted             int // records accepted in the measured phase
	sent                 int // measured bodies sent (a prefix of ds.measured)
	postMs, readMs       []float64
	// sentAt is each measured body's send time.
	sentAt   []time.Time
	postSpan []uint64
	refused  []bool    // measured bodies the server did not accept
	t0       time.Time // start of the measured phase
	elapsed  time.Duration
	perSec   []int // records accepted in each second of the measured phase
	depth    []depthSample
	// Records accepted in the untraced and traced slices of the
	// measured phase, and the wall time spent in each.
	sliceRecs [2]int
	sliceTime [2]time.Duration

	// svcMs and svcN total the service time of the measured phase's
	// requests, from send to response.
	svcMs float64
	svcN  int

	cursor   string // /v2/anomalies resume cursor
	nextRead int
}

func newLoader(hc *http.Client, base string, ds *dataset, tr *tracer) *loader {
	return &loader{
		hc: hc, base: base, ds: ds, tr: tr,
		sentAt:   make([]time.Time, len(ds.measured)),
		postSpan: make([]uint64, len(ds.measured)),
		refused:  make([]bool, len(ds.measured)),
	}
}

// post sends one body and reports whether every record was accepted.
// There are no retries: a refused body is a failure.
func (l *loader) post(ctx context.Context, b *batch) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v2/records", bytes.NewReader(b.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := l.hc.Do(req)
	if err != nil {
		return false
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var ir struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return false
	}
	return ir.Accepted == len(b.recs)
}

// postHistory sends the set-up prefix in a closed loop.
func (l *loader) postHistory(ctx context.Context) error {
	for i, b := range l.ds.history {
		if !l.post(ctx, b) {
			return fmt.Errorf("history body %d (stream %d) was not accepted", i, b.stream)
		}
	}
	return nil
}

// measuredPost sends measured body i and accounts for it.
func (l *loader) measuredPost(ctx context.Context, i int) {
	b := l.ds.measured[i]
	start := time.Now()
	ok := l.post(ctx, b)
	end := time.Now()
	l.posts++
	l.svcMs += ms(end.Sub(start))
	l.svcN++
	l.sent = i + 1
	l.sentAt[i] = start
	l.postMs = append(l.postMs, ms(end.Sub(start)))
	l.postSpan[i] = l.tr.add("loadgen.post", 0, start, end, len(b.recs))
	if !ok {
		l.failed++
		l.refused[i] = true
		return
	}
	l.accepted += len(b.recs)
	k := int(end.Sub(l.t0) / time.Second)
	for len(l.perSec) <= k {
		l.perSec = append(l.perSec, 0)
	}
	l.perSec[k] += len(b.recs)
	if l.tr != nil && l.tr.on {
		l.sliceRecs[1] += len(b.recs)
	} else {
		l.sliceRecs[0] += len(b.recs)
	}
}

// splitSlices apportions the measured phase's wall time to the
// untraced (even) and traced (odd) slices.
func (l *loader) splitSlices() {
	for j := time.Duration(0); j*traceSlice < l.elapsed; j++ {
		l.sliceTime[j%2] += min(traceSlice, l.elapsed-j*traceSlice)
	}
}

// readEvery is how many POSTs go between two dashboard refreshes, so
// reads are timed against a busy server.
const readEvery = 2

// probeEvery is the queue-depth sampling period on a pipelined server.
const probeEvery = 250 * time.Millisecond

// closedLoop posts measured bodies back to back for d, or until the
// data runs out, with a dashboard refresh after every readEvery-th and,
// on a pipelined server, a queue-depth probe every probeEvery. In a
// traced run tracing alternates on and off every traceSlice.
func (l *loader) closedLoop(ctx context.Context, d time.Duration) error {
	t0 := time.Now()
	l.t0 = t0
	nextProbe := probeEvery
	for i := range l.ds.measured {
		now := time.Now()
		if now.Sub(t0) >= d {
			l.elapsed = now.Sub(t0)
			return nil
		}
		if l.tr != nil {
			l.tr.on = (now.Sub(t0)/traceSlice)%2 == 1
		}
		l.measuredPost(ctx, i)
		if (i+1)%readEvery == 0 {
			l.read(ctx)
		}
		if l.ds.w.queue > 0 && time.Since(t0) >= nextProbe {
			if err := l.probe(ctx); err != nil {
				return err
			}
			nextProbe += probeEvery
		}
	}
	l.elapsed = time.Since(t0)
	fmt.Fprintf(os.Stderr, "e2ebench: warning: data ran out after %v of %v; raise the workload's ceiling\n", l.elapsed, d)
	return nil
}

// probe samples the summed pipeline queue depth from /v2/stats.
func (l *loader) probe(ctx context.Context) error {
	start := time.Now()
	var st api.StatsResponse
	if err := getJSON(ctx, l.hc, l.base+"/v2/stats", &st); err != nil {
		return fmt.Errorf("queue-depth probe: %w", err)
	}
	l.svcMs += ms(time.Since(start))
	l.svcN++
	l.depth = append(l.depth, depthSample{at: start.Sub(l.t0), depth: queueDepth(st)})
	return nil
}

// read performs one dashboard refresh, timed as one sample: the next
// /v2/anomalies page after the resume cursor, then the detail of the
// next stream in turn. Each of the two requests counts as an attempted
// read.
func (l *loader) read(ctx context.Context) {
	start := time.Now()
	// Responses decode into empty structs: the load generator only
	// needs the cursors, and allocating little keeps its own GC from
	// running during the timed reads.
	var d struct{}
	s := l.nextRead % l.ds.w.streams
	pageOK := l.readPage(ctx)
	streamOK := getJSON(ctx, l.hc, l.base+"/v2/streams/"+streamName(s), &d) == nil
	end := time.Now()
	l.nextRead++
	l.reads += 2
	l.readMs = append(l.readMs, ms(end.Sub(start)))
	l.svcMs += ms(end.Sub(start))
	l.svcN++
	l.tr.add("loadgen.read", 0, start, end, 2)
	if !pageOK {
		l.failed++
	}
	if !streamOK {
		l.failed++
	}
}

// readPage fetches one /v2/anomalies page after the resume cursor and
// advances it, as a dashboard following new detections does.
func (l *loader) readPage(ctx context.Context) bool {
	u := l.base + "/v2/anomalies?limit=100"
	if l.cursor != "" {
		u += "&cursor=" + l.cursor
	}
	var p struct {
		Entries    []struct{} `json:"entries"`
		Cursor     string     `json:"cursor"`
		NextCursor string     `json:"nextCursor"`
	}
	if err := getJSON(ctx, l.hc, u, &p); err != nil {
		return false
	}
	switch {
	case p.NextCursor != "":
		l.cursor = p.NextCursor
	default:
		l.cursor = p.Cursor
	}
	return true
}

// watch is the benchmark's one live subscriber, on its own connection
// and goroutine.
type watch struct {
	cancel  context.CancelFunc
	done    chan struct{}
	n       atomic.Int64
	w       *client.Watcher
	entries []tiresias.AnomalyEntry
	arrived []time.Time
}

// startWatch subscribes to every anomaly from the oldest retained one.
func startWatch(base string, hc *http.Client) (*watch, error) {
	c, err := client.New(base, client.WithHTTPClient(hc), client.WithRetry(4, 50*time.Millisecond))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &watch{cancel: cancel, done: make(chan struct{}), w: c.Watch(ctx, client.AnomalyQuery{})}
	go func() {
		defer close(w.done)
		for w.w.Next() {
			w.arrived = append(w.arrived, time.Now())
			w.entries = append(w.entries, w.w.Entry())
			w.n.Add(1)
		}
	}()
	return w, nil
}

// waitFor blocks until n entries arrived or the timeout passed.
func (w *watch) waitFor(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for w.n.Load() < int64(n) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// stop ends the subscription and waits for its goroutine; entries and
// arrival times are safe to read afterwards.
func (w *watch) stop() {
	w.cancel()
	<-w.done
}

// failures counts the watch's lagged drops and reconnects.
func (w *watch) failures() int { return int(w.w.Lagged()) + w.w.Reconnects() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unitKey identifies one stream's timeunit.
func unitKey(stream string, start time.Time) string {
	return stream + "\x00" + strconv.FormatInt(start.UnixNano(), 10)
}

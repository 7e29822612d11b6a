package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"tiresias"
	"tiresias/httpserve"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// replayCap bounds the measured records each in-process replay times,
// so a traced run stays short on the densest workload.
const replayCap = 200_000

// layerMetrics derives the per-layer metrics of a traced run: deltas
// of the server's own /metrics clocks and counters over the measured
// phase, the load generator's records, and in-process replays of the
// run's inputs through each layer's functions.
func layerMetrics(ds *dataset, l *loader, before, after map[string]float64, ref [][]tiresias.Anomaly, tr *tracer) (map[string]metric, error) {
	delta := func(series string) float64 { return after[series] - before[series] }
	stage := func(name string) float64 {
		return delta(`tiresias_engine_stage_seconds_sum{stage="` + name + `"}`)
	}
	reqBusy := delta("tiresias_http_request_seconds_sum")
	reqN := delta("tiresias_http_request_seconds_count")
	stepBusy := delta("tiresias_engine_step_seconds_sum")
	steps := delta("tiresias_engine_step_seconds_count")
	m := map[string]metric{
		"httpserve.request_busy_s":    {reqBusy, "s"},
		"httpserve.self_busy_s":       {reqBusy - stepBusy, "s"},
		"httpserve.bytes_per_record":  {delta("tiresias_ingest_bytes_total") / max(delta("tiresias_ingest_records_total"), 1), "B"},
		"algo.steps":                  {steps, "count"},
		"algo.step_busy_s":            {stepBusy, "s"},
		"algo.updating_hierarchies_s": {stage("updating_hierarchies"), "s"},
		"algo.creating_time_series_s": {stage("creating_time_series"), "s"},
		"algo.detecting_anomalies_s":  {stage("detecting_anomalies"), "s"},
		"detect.anomalies_per_step":   {delta("tiresias_manager_anomalies_total") / max(steps, 1), "ratio"},
		"store.index_added":           {delta("tiresias_index_added_total"), "count"},
		"store.index_evicted":         {delta("tiresias_index_evicted_total"), "count"},
		"watch.delivered":             {delta("tiresias_watch_delivered_total"), "count"},
		"watch.dropped":               {delta("tiresias_watch_dropped_total"), "count"},
		"watch.lagged":                {delta("tiresias_watch_lagged_total"), "count"},
		"report.store_anomalies":      {after["tiresias_store_anomalies"], "count"},
		"net.post_overhead_ms":        {l.svcMs/float64(max(l.svcN, 1)) - 1000*reqBusy/max(reqN, 1), "ms"},
		"trace.overhead_frac":         {traceOverhead(l), "ratio"},
		"manager.queue_depth_max":     {depthMax(l), "count"},
	}

	batches := replayBatches(ds, l)
	var recs int
	for _, b := range batches {
		recs += len(b.recs)
	}
	n := float64(max(recs, 1))

	hNs, hAllocs, err := replayHandler(ds, batches, tr)
	if err != nil {
		return nil, err
	}
	fNs, fAllocs, err := replayFeed(ds, batches, tr)
	if err != nil {
		return nil, err
	}
	oNs, oAllocs, closed, err := replayObserve(ds, batches, tr)
	if err != nil {
		return nil, err
	}
	warm, err := replayWarmup(ds, tr)
	if err != nil {
		return nil, err
	}
	m["httpserve.handler_ns_per_record"] = metric{hNs / n, "ns"}
	m["httpserve.handler_allocs_per_record"] = metric{hAllocs / n, "count"}
	m["httpserve.self_ns_per_record"] = metric{(hNs - fNs) / n, "ns"}
	m["manager.feed_ns_per_record"] = metric{fNs / n, "ns"}
	m["manager.feed_allocs_per_record"] = metric{fAllocs / n, "count"}
	m["stream.observe_ns_per_record"] = metric{oNs / n, "ns"}
	m["stream.observe_allocs_per_record"] = metric{oAllocs / n, "count"}
	m["stream.units_closed"] = metric{float64(closed), "count"}
	m["algo.warmup_s"] = metric{warm, "s"}
	m["store.page_ns"] = metric{replayPages(ref, tr), "ns"}
	return m, nil
}

// traceOverhead compares the accepted-record rate of the traced and
// untraced slices of the measured phase.
func traceOverhead(l *loader) float64 {
	if l.sliceTime[0] <= 0 || l.sliceTime[1] <= 0 || l.sliceRecs[0] == 0 {
		return 0
	}
	untraced := float64(l.sliceRecs[0]) / l.sliceTime[0].Seconds()
	traced := float64(l.sliceRecs[1]) / l.sliceTime[1].Seconds()
	return 1 - traced/untraced
}

// depthMax is the largest sampled queue depth (0 without samples).
func depthMax(l *loader) float64 {
	n := 0
	for _, s := range l.depth {
		n = max(n, s.depth)
	}
	return float64(n)
}

// replayBatches are the measured bodies the run sent and the server
// accepted, up to replayCap records.
func replayBatches(ds *dataset, l *loader) []*batch {
	var out []*batch
	n := 0
	for i, b := range ds.measured[:l.sent] {
		if l.refused[i] {
			continue
		}
		if n+len(b.recs) > replayCap && len(out) > 0 {
			break
		}
		out = append(out, b)
		n += len(b.recs)
	}
	return out
}

// historyOf returns stream s's history records.
func historyOf(ds *dataset, s int) []tiresias.Record {
	var out []tiresias.Record
	for _, b := range ds.history {
		if b.stream == s {
			out = append(out, b.recs...)
		}
	}
	return out
}

// measure runs f and returns its wall time in ns and its heap
// allocation count.
func measure(f func() error) (ns, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs), err
}

// discard is a minimal http.ResponseWriter for in-process handler
// replays.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(code int)        { d.status = code }

// replayHandler times the server's root handler on the replayed
// bodies, with no network in between, after warming every stream with
// its history through the handler's Manager.
func replayHandler(ds *dataset, batches []*batch, tr *tracer) (ns, allocs float64, err error) {
	hs, err := httpserve.New(httpserve.Config{
		Delta:      delta,
		WindowLen:  ds.w.window,
		Theta:      10,
		Thresholds: tiresias.Thresholds{RT: 2.8, DT: 8},
	})
	if err != nil {
		return 0, 0, err
	}
	defer hs.Close()
	for s := 0; s < ds.w.streams; s++ {
		if _, _, err := hs.Manager().FeedBatch(streamName(s), historyOf(ds, s)); err != nil {
			return 0, 0, err
		}
	}
	h := hs.Handler()
	t0 := time.Now()
	ns, allocs, err = measure(func() error {
		for _, b := range batches {
			req, err := http.NewRequest(http.MethodPost, "/v2/records", bytes.NewReader(b.body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			w := &discard{h: http.Header{}}
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				return fmt.Errorf("handler replay: status %d", w.status)
			}
		}
		return nil
	})
	tr.add("replay.httpserve.handler", 0, t0, time.Now(), len(batches))
	return ns, allocs, err
}

// replayFeed times Manager.FeedBatch on the replayed bodies' records.
func replayFeed(ds *dataset, batches []*batch, tr *tracer) (ns, allocs float64, err error) {
	m, err := tiresias.NewManager(tiresias.WithDetectorOptions(ds.w.detectorOptions()...))
	if err != nil {
		return 0, 0, err
	}
	for s := 0; s < ds.w.streams; s++ {
		if _, _, err := m.FeedBatch(streamName(s), historyOf(ds, s)); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	ns, allocs, err = measure(func() error {
		for _, b := range batches {
			if _, _, err := m.FeedBatch(streamName(b.stream), b.recs); err != nil {
				return err
			}
		}
		return nil
	})
	tr.add("replay.manager.feed", 0, t0, time.Now(), len(batches))
	return ns, allocs, err
}

// replayObserve times Windower.ObserveDense on the replayed records,
// one windower per stream bound to its own tree, and counts the units
// it closes.
func replayObserve(ds *dataset, batches []*batch, tr *tracer) (ns, allocs float64, closed int, err error) {
	ws := make([]*stream.Windower, ds.w.streams)
	for s := range ws {
		if ws[s], err = stream.NewWindower(delta); err != nil {
			return 0, 0, 0, err
		}
		ws[s].BindTree(hierarchy.New())
		for _, r := range historyOf(ds, s) {
			if _, err := ws[s].ObserveDense(r); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	t0 := time.Now()
	ns, allocs, err = measure(func() error {
		for _, b := range batches {
			w := ws[b.stream]
			for _, r := range b.recs {
				done, err := w.ObserveDense(r)
				if err != nil {
					return err
				}
				closed += len(done)
			}
		}
		return nil
	})
	tr.add("replay.stream.observe", 0, t0, time.Now(), len(batches))
	return ns, allocs, closed, err
}

// replayWarmup times Tiresias.Warmup on every stream's history window
// and returns the total in seconds.
func replayWarmup(ds *dataset, tr *tracer) (float64, error) {
	var total time.Duration
	for s := 0; s < ds.w.streams; s++ {
		h := historyOf(ds, s)
		// The last history record opens unit ℓ; Warmup takes units
		// [0, ℓ) only.
		units, start, err := tiresias.Collect(tiresias.NewSliceSource(h[:len(h)-1]), delta)
		if err != nil {
			return 0, err
		}
		t, err := tiresias.New(ds.w.detectorOptions()...)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = t.Warmup(units, start)
		el := time.Since(t0)
		if err != nil {
			return 0, err
		}
		tr.add("replay.algo.warmup", 0, t0, t0.Add(el), len(units))
		total += el
	}
	return total.Seconds(), nil
}

// replayPages fills an anomaly index with the run's reference
// detections and times 100-entry PageAfter walks over it; it returns
// ns per page.
func replayPages(ref [][]tiresias.Anomaly, tr *tracer) float64 {
	ix := tiresias.NewAnomalyIndex(0)
	for s, anoms := range ref {
		ix.Add(streamName(s), anoms...)
	}
	pages := 0
	t0 := time.Now()
	for pages < 5000 && time.Since(t0) < 200*time.Millisecond {
		q := tiresias.AnomalyQuery{Limit: 100}
		for {
			p := ix.PageAfter(q)
			pages++
			if !p.More {
				break
			}
			q.Since = p.Next
		}
	}
	el := time.Since(t0)
	tr.add("replay.store.page", 0, t0, t0.Add(el), pages)
	return float64(el.Nanoseconds()) / float64(pages)
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"tiresias"
	"tiresias/internal/gen"
)

// delta is the timeunit size Δ of every workload (the paper's 15
// minutes).
const delta = 15 * time.Minute

// epoch is the event-time start of every generated stream: a Monday
// midnight, so each run's measured phase begins at the same point of
// the diurnal and weekly cycles.
var epoch = time.Date(2010, 9, 13, 0, 0, 0, 0, time.UTC)

// workload is one traffic mix: the shape and density of the generated
// streams, how they are cut into POST bodies, and the server flags they
// run against. Every workload is a closed loop on one connection.
type workload struct {
	name    string
	shape   gen.Shape
	streams int
	window  int     // ℓ in timeunits; also the history prefix length
	rate    float64 // baseline records per timeunit per stream
	batch   int     // records per POST at most
	perUnit bool    // cut bodies at unit boundaries, so each POST closes one unit
	queue   int     // tiresias-serve -queue (0 = synchronous ingest)
	// ceiling bounds the closed-loop records/s the pre-generated data
	// covers for the whole measured phase; a faster server ends the
	// phase early when the data runs out.
	ceiling float64
	burst   burst
}

// burst injects gen.AnomalySpec pulses into the measured phase, so the
// watch stream carries enough anomalies to sample detect latency.
type burst struct {
	every int     // one pulse per stream every this many units
	span  int     // pulse length in units
	extra float64 // extra records per unit during the pulse
	depth int     // hierarchy depth of the pulsed node (1 = first level)
}

// workloads are the benchmark's traffic mixes. Each one stresses a
// different layer; README.md says which and why.
var workloads = []workload{
	{
		// CCD network-path shape (Table II) at realistic density:
		// request decoding and windowing dominate, the engine is a
		// small share of each request.
		name:    "dense-ingest",
		shape:   gen.CCDNetworkShape(0.5),
		streams: 4,
		window:  96,
		rate:    2000,
		batch:   1000,
		ceiling: 220000,
		burst:   burst{every: 4, span: 1, extra: 300, depth: 2},
	},
	{
		// STB-crash-like SCD shape: a large, sparse hierarchy and a
		// one-week window, so every POST closes a unit and ADA steps
		// dominate; Warmup over the big tree dominates set-up.
		name:    "sparse-steps",
		shape:   gen.SCDNetworkShape(0.1),
		streams: 4,
		window:  672,
		rate:    100,
		batch:   1 << 20,
		perUnit: true,
		ceiling: 40000,
		burst:   burst{every: 4, span: 1, extra: 40, depth: 2},
	},
	{
		// Medium density over many streams on a pipelined server,
		// with reads beside the writes and one live watch: queue
		// handoff, index reads and hub fan-out set freshness.
		name:    "watch-mixed",
		shape:   gen.CCDNetworkShape(0.25),
		streams: 8,
		window:  96,
		rate:    250,
		batch:   125,
		queue:   64,
		ceiling: 180000,
		burst:   burst{every: 6, span: 2, extra: 60, depth: 2},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the tiresias-serve flags the workload runs against.
func (w workload) serverArgs(addr string) []string {
	args := []string{
		"-addr", addr,
		"-delta", delta.String(),
		"-window", strconv.Itoa(w.window),
		"-theta", "10", "-rt", "2.8", "-dt", "8",
		"-log-level", "error",
	}
	if w.queue > 0 {
		args = append(args, "-queue", strconv.Itoa(w.queue), "-backpressure", "block")
	}
	return args
}

// detectorOptions mirror serverArgs for the in-process reference and
// the layer replays.
func (w workload) detectorOptions() []tiresias.Option {
	return []tiresias.Option{
		tiresias.WithDelta(delta),
		tiresias.WithWindowLen(w.window),
		tiresias.WithTheta(10),
		tiresias.WithThresholds(tiresias.Thresholds{RT: 2.8, DT: 8}),
	}
}

// historyBatch is the body size of the history prefix: a bulk
// backfill.
const historyBatch = 1000

// units is how many timeunits per stream to generate for a measured
// phase of the given length at the ceiling rate.
func (w workload) units(seconds float64) int {
	return w.window + int(math.Ceil(w.ceiling*seconds/(w.rate*float64(w.streams)))) + 2
}

// streamName names stream i.
func streamName(i int) string { return "s" + strconv.Itoa(i) }

// batch is one pre-rendered POST /v2/records body.
type batch struct {
	stream int
	body   []byte
	recs   []tiresias.Record
	first  time.Time // event time of the first record
	// closes lists the starts of the units the records of this
	// batch complete: the first record of unit u+1 closes unit u.
	closes []time.Time
}

// dataset is a workload's generated input: per-stream records, the
// history prefix that warms the server, and the measured-phase bodies.
type dataset struct {
	w        workload
	recs     [][]tiresias.Record // per stream, time order
	history  []*batch            // set-up bodies: units [0, ℓ) plus each stream's closing record
	measured []*batch            // measured-phase bodies in send order
}

// generate builds the workload's dataset of the given length for a
// seed: each stream is an independent gen.Generate draw, with anomaly
// pulses injected into the measured phase only.
func generate(w workload, seed int64, units int) (*dataset, error) {
	ds := &dataset{w: w, recs: make([][]tiresias.Record, w.streams)}
	leaves := w.shape.Leaves()
	errs := make([]error, w.streams)
	// Two generator goroutines at most: the container has two CPUs.
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for s := 0; s < w.streams; s++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer wg.Done()
			defer func() { <-sem }()
			sseed := seed*1_000_003 + int64(s)
			cfg := gen.Config{
				Shape:           w.shape,
				Start:           epoch,
				Units:           units,
				Delta:           delta,
				BaseRate:        w.rate,
				DiurnalStrength: 0.5,
				WeeklyStrength:  0.3,
				ZipfS:           1,
				Anomalies:       pulses(w, leaves, units, rand.New(rand.NewSource(sseed^0x5eed))),
				Seed:            sseed,
			}
			d, err := gen.Generate(cfg)
			if err != nil {
				errs[s] = fmt.Errorf("generate stream %d: %w", s, err)
				return
			}
			ds.recs[s] = d.Records
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ds.cut()
	return ds, nil
}

// pulses places one anomaly pulse per burst.every units of the
// measured phase, at a random node of the configured depth.
func pulses(w workload, leaves [][]string, units int, rng *rand.Rand) []gen.AnomalySpec {
	var out []gen.AnomalySpec
	if w.burst.every <= 0 {
		return nil
	}
	for u := w.window + 1 + rng.Intn(w.burst.every); u+w.burst.span <= units; u += w.burst.every {
		leaf := leaves[rng.Intn(len(leaves))]
		out = append(out, gen.AnomalySpec{
			Path:         append([]string(nil), leaf[:w.burst.depth]...),
			StartUnit:    u,
			EndUnit:      u + w.burst.span,
			ExtraPerUnit: w.burst.extra,
		})
	}
	return out
}

// unitOf returns the index of the unit holding t.
func unitOf(t time.Time) int { return int(t.Sub(epoch) / delta) }

// cut splits every stream into history and measured bodies and orders
// the measured bodies for sending.
func (ds *dataset) cut() {
	w := ds.w
	for s, recs := range ds.recs {
		// The history prefix is every record before unit ℓ plus the
		// first record of unit ℓ, which completes unit ℓ-1 and so
		// triggers the detector's Warmup.
		h := sort.Search(len(recs), func(i int) bool { return unitOf(recs[i].Time) >= w.window })
		if h < len(recs) {
			h++
		}
		ds.history = append(ds.history, ds.split(s, recs[:h], historyBatch, false)...)
		ds.measured = append(ds.measured, ds.split(s, recs[h:], w.batch, w.perUnit)...)
	}
	// Streams interleave in event-time order; a stable sort keeps each
	// stream's own bodies in order.
	sort.SliceStable(ds.measured, func(i, j int) bool { return ds.measured[i].first.Before(ds.measured[j].first) })
	ds.markCloses()
}

// split cuts one stream's records into bodies of at most max records,
// also cutting at unit boundaries when perUnit is set.
func (ds *dataset) split(s int, recs []tiresias.Record, max int, perUnit bool) []*batch {
	var out []*batch
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && n < max && (!perUnit || unitOf(recs[n].Time) == unitOf(recs[0].Time)) {
			n++
		}
		out = append(out, ds.render(s, recs[:n]))
		recs = recs[n:]
	}
	return out
}

// render builds one NDJSON body. The previous record of the stream is
// needed to know which units the batch closes, so bodies must be
// rendered in stream order.
func (ds *dataset) render(s int, recs []tiresias.Record) *batch {
	b := &batch{stream: s, recs: recs, first: recs[0].Time}
	name := strconv.Quote(streamName(s))
	buf := make([]byte, 0, len(recs)*96)
	for _, r := range recs {
		buf = append(buf, `{"stream":`...)
		buf = append(buf, name...)
		buf = append(buf, `,"path":[`...)
		for i, p := range r.Path {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, p)
		}
		buf = append(buf, `],"time":"`...)
		buf = r.Time.AppendFormat(buf, time.RFC3339Nano)
		buf = append(buf, "\"}\n"...)
	}
	b.body = buf
	return b
}

// markCloses fills every batch's closes list from the stream order of
// the records: a record whose unit is past its predecessor's completes
// every unit in between.
func (ds *dataset) markCloses() {
	prev := make([]int, ds.w.streams)
	for i := range prev {
		prev[i] = -1
	}
	mark := func(b *batch) {
		for _, r := range b.recs {
			u := unitOf(r.Time)
			if p := prev[b.stream]; p >= 0 {
				for c := p; c < u; c++ {
					b.closes = append(b.closes, epoch.Add(time.Duration(c)*delta))
				}
			}
			prev[b.stream] = u
		}
	}
	for _, b := range ds.history {
		mark(b)
	}
	for _, b := range ds.measured {
		mark(b)
	}
}

// Command e2ebench is the repository's end-to-end benchmark: it
// launches the stock tiresias-serve binary as its own process on
// loopback, replays seeded, pre-rendered NDJSON at it from one load
// generator (one request connection plus one watch subscriber), checks
// every detected anomaly against an in-process reference, and prints
// the metrics as one JSON line.
//
// Run it through run.sh from the root of a checkout, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload dense-ingest --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, from /metrics deltas and from replaying the run's
// inputs through each layer's functions in process, and writes the
// run's spans under .bench_build/trace/. README.md lists every metric,
// its source, and the end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tiresias"
	"tiresias/api"
)

// setups is how many times a run launches a server and posts the
// history prefix; setup_s is the median, and the last server carries
// on into the measured phase.
const setups = 3

// gcPercent is the load generator's GOGC outside the measured phase.
// The pre-generated data lives for the whole run and is only read after
// generation: a low target keeps the footprint near its live size.
const gcPercent = 25

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config holds the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.server, "server", "", "tiresias-serve binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	stopOnSignal()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run.
func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.server == "" || cfg.seconds < 1 {
		return nil, fmt.Errorf("need -server and -seconds >= 1")
	}
	ctx := context.Background()
	debug.SetGCPercent(gcPercent)
	tGen := time.Now()
	ds, err := generate(w, cfg.seed, w.units(float64(cfg.seconds)))
	if err != nil {
		return nil, err
	}
	histRecs := 0
	for _, b := range ds.history {
		histRecs += len(b.recs)
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{t0: time.Now()}
	}
	debug.FreeOSMemory()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	phases := []string{"generate " + time.Since(tGen).Round(time.Millisecond).String()}

	setupS, srv, err := setUp(ctx, cfg.server, ds, hc, tr)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	wc := newHTTPClient()
	defer wc.CloseIdleConnections()
	wt, err := startWatch(srv.base, wc)
	if err != nil {
		return nil, err
	}
	defer wt.stop()
	if err := waitSubscribed(ctx, hc, srv.base); err != nil {
		return nil, err
	}

	// Measured phase.
	var before, after map[string]float64
	if cfg.trace {
		if before, err = srv.scrape(ctx, hc); err != nil {
			return nil, err
		}
	}
	p0, err := srv.readProc()
	if err != nil {
		return nil, err
	}
	l := newLoader(hc, srv.base, ds, tr)
	d := time.Duration(cfg.seconds) * time.Second
	gc0 := quietGC()
	err = l.closedLoop(ctx, d)
	gcs := restoreGC(gc0)
	if err != nil {
		return nil, err
	}
	l.splitSlices()
	if tr != nil {
		tr.on = true
	}
	p1, err := srv.readProc()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if after, err = srv.scrape(ctx, hc); err != nil {
			return nil, err
		}
	}

	// Output check.
	tCheck := time.Now()
	sentRecs := histRecs + l.accepted
	st, err := waitDrained(ctx, hc, srv.base, sentRecs)
	if err != nil {
		return nil, err
	}
	ref, err := reference(ds, l)
	if err != nil {
		return nil, err
	}
	want := 0
	for _, a := range ref {
		want += len(a)
	}
	wt.waitFor(want, 30*time.Second)
	wt.stop()
	var why []string
	if r := compare(ref, wt.entries); r != "" {
		why = append(why, r)
	}
	if st.Ingest.Records != uint64(sentRecs) {
		why = append(why, fmt.Sprintf("/v2/stats counts %d ingested records, %d were sent", st.Ingest.Records, sentRecs))
	}
	if r := steadyGuard(w, l); r != "" {
		why = append(why, r)
	}

	phases = append(phases, "check "+time.Since(tCheck).Round(time.Millisecond).String())
	pEnd, err := srv.readProc()
	if err != nil {
		return nil, err
	}

	detectMs := detectLatencies(ds, l, wt, tr)
	failed := l.failed + wt.failures()
	attempted := l.posts + l.reads
	res := &result{Correct: len(why) == 0, Attempted: attempted, Failed: min(failed, attempted)}
	for _, r := range why {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", r)
	}
	e2e := map[string]metric{
		"setup_s":                  {quantile(setupS, 0.5), "s"},
		"ingest_records_per_s":     {float64(l.accepted) / l.elapsed.Seconds(), "1/s"},
		"post_p50_ms":              {quantile(l.postMs, 0.5), "ms"},
		"detect_p50_ms":            {quantile(detectMs, 0.5), "ms"},
		"read_p50_ms":              {quantile(l.readMs, 0.5), "ms"},
		"server_cpu_us_per_record": {float64(p1.cpu-p0.cpu) / float64(time.Microsecond) / float64(max(l.accepted, 1)), "us"},
		"server_rss_peak_mb":       {float64(pEnd.hwmKiB) / 1024, "MiB"},
		"ok_frac":                  {1 - float64(res.Failed)/float64(max(attempted, 1)), "ratio"},
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d posts, %d reads, %d records in %.2fs (per second %v); samples: post %d, detect %d (of %d anomalies), read %d; setups %.3v; %s; load generator heap %d MiB\n",
		w.name, cfg.seed, l.posts, l.reads, l.accepted, l.elapsed.Seconds(), l.perSec, len(l.postMs), len(detectMs), want, len(l.readMs), setupS,
		strings.Join(phases, ", "), mem.HeapSys>>20)
	fmt.Fprintf(os.Stderr, "e2ebench: load generator collections during the measured phase: %d\n", gcs)
	if !cfg.trace {
		res.Metrics = e2e
		printTable(e2e)
		return res, nil
	}
	res.Metrics, err = layerMetrics(ds, l, before, after, ref, tr)
	if err != nil {
		return nil, err
	}
	// The tails as the load generator sees them. They are reported
	// here, without a bound, because between runs on a shared host
	// they spread far wider than any bound an end-to-end metric may
	// carry (README.md).
	res.Metrics["loadgen.post_p95_ms"] = metric{tailQuantile(l.postMs, 0.95), "ms"}
	res.Metrics["loadgen.detect_p95_ms"] = metric{tailQuantile(detectMs, 0.95), "ms"}
	res.Metrics["loadgen.read_p95_ms"] = metric{tailQuantile(l.readMs, 0.95), "ms"}
	printTable(res.Metrics)
	path := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// phaseHeadroom is how far the load generator's heap may grow during
// the measured phase before it collects.
const phaseHeadroom = 1 << 30

// quietGC switches the load generator's collector off for the measured
// phase: its heap is the pre-rendered data, hundreds of MiB, and a
// collection would mark all of it on the CPUs the server needs. A
// memory limit phaseHeadroom above the current heap is the backstop.
// It returns the collection count so far.
func quietGC() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(int64(m.HeapSys) + phaseHeadroom)
	return m.NumGC
}

// restoreGC undoes quietGC and returns how many collections ran since.
func restoreGC(gc0 uint32) uint32 {
	debug.SetMemoryLimit(math.MaxInt64)
	debug.SetGCPercent(gcPercent)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC - gc0
}

// setUp launches a server, posts the history prefix and waits until
// every stream is warm, setups times over; the last server stays up.
// It returns each set-up's duration in seconds.
func setUp(ctx context.Context, bin string, ds *dataset, hc *http.Client, tr *tracer) ([]float64, *server, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startServer(ctx, bin, ds.w, hc)
		if err != nil {
			return nil, nil, err
		}
		if err := newLoader(hc, s.base, ds, nil).postHistory(ctx); err != nil {
			s.stop()
			return nil, nil, err
		}
		if err := waitWarm(ctx, hc, s.base, ds.w.streams); err != nil {
			s.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if tr != nil {
			tr.on = true
			tr.add("setup", 0, t0, time.Now(), len(ds.history))
		}
		if i == setups-1 {
			return times, s, nil
		}
		s.stop()
		hc.CloseIdleConnections()
	}
}

// waitWarm polls GET /v2/streams until all n streams are warm.
func waitWarm(ctx context.Context, hc *http.Client, base string, n int) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var sts []tiresias.StreamStatus
		if err := getJSON(ctx, hc, base+"/v2/streams", &sts); err != nil {
			return err
		}
		warm := 0
		for _, s := range sts {
			if s.Warm {
				warm++
			}
		}
		if warm == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d streams warm after 120s", warm, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSubscribed polls GET /v2/stats until the watch subscriber is
// attached, so the measured phase cannot outrun it.
func waitSubscribed(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st api.StatsResponse
		if err := getJSON(ctx, hc, base+"/v2/stats", &st); err != nil {
			return err
		}
		if st.Watch.Subscribers >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch subscriber not attached after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDrained polls GET /v2/stats until detection has consumed every
// sent record and the queues are empty, and returns that snapshot.
func waitDrained(ctx context.Context, hc *http.Client, base string, records int) (api.StatsResponse, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st api.StatsResponse
		if err := getJSON(ctx, hc, base+"/v2/stats", &st); err != nil {
			return st, err
		}
		if st.Manager.Records >= uint64(records) && queueDepth(st) == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("server fed %d of %d records after 60s", st.Manager.Records, records)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// detectLatencies pairs every watched anomaly with the body that
// carried the record closing its unit and returns the delays in ms.
// In a traced run each pair also becomes a span under the POST's.
func detectLatencies(ds *dataset, l *loader, wt *watch, tr *tracer) []float64 {
	closer := map[string]int{}
	for i, b := range ds.measured[:l.sent] {
		for _, c := range b.closes {
			closer[unitKey(streamName(b.stream), c)] = i
		}
	}
	var out []float64
	for k, e := range wt.entries {
		i, ok := closer[unitKey(e.Stream, e.Time)]
		if !ok {
			continue
		}
		out = append(out, ms(wt.arrived[k].Sub(l.sentAt[i])))
		tr.add("watch.detect", l.postSpan[i], l.sentAt[i], wt.arrived[k], 1)
	}
	return out
}

// steadyGuard rejects a pipelined run whose queues filled: a queue
// depth that trends upward over the phase means the workers fell behind
// and latencies measure a growing backlog.
func steadyGuard(w workload, l *loader) string {
	var xs, ys []float64
	for _, s := range l.depth {
		xs = append(xs, s.at.Seconds())
		ys = append(ys, float64(s.depth))
	}
	growth := slope(xs, ys) * l.elapsed.Seconds()
	if limit := 0.1 * float64(w.queue*w.streams); growth > max(limit, 8) {
		return fmt.Sprintf("queue depth grew by %.1f batches over the measured phase: the workers fell behind", growth)
	}
	return ""
}

// printTable writes the metrics to stderr, one per line.
func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// Package perfbench holds the repository's hot-path micro-benchmark
// bodies in library form, so the same workloads are runnable both as
// `go test -bench` benchmarks (bench_test.go at the repo root) and as
// the machine-readable `tiresias-bench -json` mode that records the
// performance trajectory (BENCH_*.json).
package perfbench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/experiments"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
)

// profile mirrors the repo-root benchProfile: sized so one iteration
// is microseconds to sub-millisecond.
func profile() experiments.Profile {
	p := experiments.Quick()
	p.WarmUnits = 64
	p.RunUnits = 32
	p.BaseRate = 100
	return p
}

// engineWorkload builds a warm engine on a shared tree plus the step
// stream in dense form (paths pre-interned, so the steady state is
// reached immediately).
func engineWorkload(b *testing.B, name string) (algo.Engine, []*algo.DenseUnit) {
	b.Helper()
	p := profile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	tree := hierarchy.New()
	cfg := algo.Config{
		Theta:         p.Theta,
		WindowLen:     p.WarmUnits,
		Rule:          algo.LongTermHistory,
		RefLevels:     2,
		NewForecaster: algo.HoltWintersFactory(0.4, 0.05, 0.3, 24),
		Tree:          tree,
	}
	var e algo.Engine
	if name == "STA" {
		e, err = algo.NewSTA(cfg)
	} else {
		e, err = algo.NewADA(cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Init(algo.Units(tree, w.Units[:p.WarmUnits])); err != nil {
		b.Fatal(err)
	}
	steps := make([]*algo.DenseUnit, 0, len(w.Units)-p.WarmUnits)
	for _, u := range w.Units[p.WarmUnits:] {
		steps = append(steps, new(algo.DenseUnit).Load(tree, u))
	}
	return e, steps
}

// ADAStep measures one ADA time instance on the dense hot path (the
// paper's O(|tree|) step).
func ADAStep(b *testing.B) {
	e, units := engineWorkload(b, "ADA")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// STAStep measures one STA time instance (the O(ℓ·|tree|) strawman),
// the Table III contrast.
func STAStep(b *testing.B) {
	e, units := engineWorkload(b, "STA")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// WindowerObserve measures Step-1 record classification on the dense
// path (path interning plus pooled dense units).
func WindowerObserve(b *testing.B) {
	p := profile()
	w, err := experiments.CCDNetWorkload(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	recs := w.Dataset.Records
	tree := hierarchy.New()
	b.ReportAllocs()
	b.ResetTimer()
	var win *stream.Windower
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			b.StopTimer()
			win, err = stream.NewWindower(time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			win.BindTree(tree)
			b.StartTimer()
		}
		if _, err := win.ObserveDense(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Spec names one micro-benchmark.
type Spec struct {
	Name string
	Fn   func(b *testing.B)
}

// Specs lists the tracked hot-path benchmarks.
func Specs() []Spec {
	return []Spec{
		{"ADAStep", ADAStep},
		{"STAStep", STAStep},
		{"WindowerObserve", WindowerObserve},
		{"ManagerFeed", ManagerFeed},
		{"ManagerFeedPipelined", ManagerFeedPipelined},
	}
}

// Result is one benchmark measurement in the BENCH_*.json schema.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Note annotates the measurement's provenance (e.g. the commit a
	// committed baseline was taken at).
	Note       string   `json:"note,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// RunAll executes every tracked benchmark via testing.Benchmark and
// returns the report. A benchmark whose body failed (testing.Benchmark
// reports N == 0) is an error, so a broken workload cannot silently
// record a zeroed row into the perf trajectory.
func RunAll() (Report, error) {
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range Specs() {
		r := testing.Benchmark(s.Fn)
		if r.N == 0 {
			return rep, fmt.Errorf("perfbench: benchmark %s failed (0 iterations)", s.Name)
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:        s.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rep, nil
}

package stream

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tiresias/internal/hierarchy"
)

func denseStart() time.Time {
	return time.Date(2012, 6, 18, 0, 0, 0, 0, time.UTC)
}

// TestObserveDenseRecycles checks emitted units are pooled: after the
// next dense call, previously returned units are reset and reused.
func TestObserveDenseRecycles(t *testing.T) {
	tree := hierarchy.New()
	w, err := NewWindower(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.BindTree(tree)
	at := denseStart()
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: at}); err != nil {
		t.Fatal(err)
	}
	done, err := w.ObserveDense(Record{Path: []string{"a"}, Time: at.Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].Unit().Total() != 1 {
		t.Fatalf("expected one completed unit with total 1, got %d units", len(done))
	}
	first := done[0]
	// Crossing two more boundaries must reuse the recycled unit.
	done, err = w.ObserveDense(Record{Path: []string{"a"}, Time: at.Add(3 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("expected 2 completed units, got %d", len(done))
	}
	reused := false
	for _, u := range done {
		if u == first {
			reused = true
		}
	}
	if !reused {
		t.Fatal("emitted unit was not recycled into the pool")
	}
}

// TestObserveDenseSteadyStateAllocs is the Windower.Observe allocation
// guard: once the pools are warm, classifying a record — including
// boundary crossings — allocates nothing.
func TestObserveDenseSteadyStateAllocs(t *testing.T) {
	tree := hierarchy.New()
	w, err := NewWindower(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.BindTree(tree)
	paths := [][]string{{"a", "x"}, {"a", "y"}, {"b"}}
	at := denseStart()
	step := 0
	observe := func() {
		at = at.Add(7 * time.Second) // crosses a boundary every ~9 records
		r := Record{Path: paths[step%len(paths)], Time: at}
		step++
		if _, err := w.ObserveDense(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		observe() // warm the pools and intern the paths
	}
	allocs := testing.AllocsPerRun(500, observe)
	if allocs != 0 {
		t.Fatalf("steady-state ObserveDense allocates %.2f per op, want 0", allocs)
	}
}

// TestObserveDenseRequiresBind checks ObserveDense guards its
// precondition.
func TestObserveDenseRequiresBind(t *testing.T) {
	w, err := NewWindower(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err == nil {
		t.Fatal("ObserveDense without BindTree must error")
	}
}

// TestWindowerMaxGap checks the gap bound: the record is rejected
// with ErrMaxGap, no state is mutated, and sane records keep working.
func TestWindowerMaxGap(t *testing.T) {
	w := newBoundWindower(t, time.Minute)
	w.SetMaxGap(10)
	if got := w.MaxGap(); got != 10 {
		t.Fatalf("MaxGap() = %d", got)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err != nil {
		t.Fatal(err)
	}
	// Within the bound: fine.
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(9 * time.Minute)}); err != nil {
		t.Fatalf("in-bound gap rejected: %v", err)
	}
	// Past the bound: ErrMaxGap, and the windower stays usable.
	_, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(500 * time.Minute)})
	if !errors.Is(err, ErrMaxGap) {
		t.Fatalf("far-future record error = %v, want ErrMaxGap", err)
	}
	if !strings.Contains(err.Error(), "timeunits past") {
		t.Fatalf("error not descriptive: %v", err)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(10 * time.Minute)}); err != nil {
		t.Fatalf("windower unusable after rejection: %v", err)
	}
}

// TestWindowerMaxGapLargeDelta pins the overflow guard: with a
// multi-day delta, maxGap*delta would overflow a Duration; the
// unit-count comparison must still accept ordinary records.
func TestWindowerMaxGapLargeDelta(t *testing.T) {
	w := newBoundWindower(t, 36*time.Hour)
	w.SetMaxGap(100_000) // tiresias.DefaultMaxGap
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(40 * time.Hour)}); err != nil {
		t.Fatalf("ordinary record rejected under large delta: %v", err)
	}
}

// TestWindowerMaxGapDisabled checks n <= 0 keeps unbounded filling.
func TestWindowerMaxGapDisabled(t *testing.T) {
	w := newBoundWindower(t, time.Minute)
	if _, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart()}); err != nil {
		t.Fatal(err)
	}
	done, err := w.ObserveDense(Record{Path: []string{"a"}, Time: denseStart().Add(1000 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1000 {
		t.Fatalf("unbounded gap filled %d units, want 1000", len(done))
	}
}

package tiresias

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
)

func start() time.Time { return time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC) }

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{name: "bad delta", opts: []Option{WithDelta(0)}},
		{name: "bad window", opts: []Option{WithWindowLen(1)}},
		{name: "too many periods", opts: []Option{WithSeasonality(0.5, 2, 3, 4)}},
		{name: "bad period", opts: []Option{WithSeasonality(0.5, 0)}},
		{name: "bad thresholds", opts: []Option{WithThresholds(Thresholds{})}},
		{name: "zero algorithm", opts: []Option{WithAlgorithm(Algorithm(0))}},
		{name: "unknown algorithm", opts: []Option{WithAlgorithm(Algorithm(7))}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opts...); err == nil {
				t.Fatal("New must fail")
			}
		})
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgorithmADA.String() != "ADA" || AlgorithmSTA.String() != "STA" {
		t.Fatal("Algorithm names wrong")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Fatal("unknown algorithm String wrong")
	}
}

func TestLifecycleGuards(t *testing.T) {
	tr, err := New(WithWindowLen(8), WithTheta(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ProcessUnit(Timeunit{}); !errors.Is(err, ErrNotWarm) {
		t.Fatalf("ProcessUnit before Warmup = %v, want ErrNotWarm", err)
	}
	units := make([]Timeunit, 8)
	for i := range units {
		units[i] = Timeunit{hierarchy.KeyOf([]string{"a"}): 5}
	}
	if err := tr.Warmup(units, start()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Warmup(units, start()); !errors.Is(err, ErrWarm) {
		t.Fatalf("second Warmup = %v, want ErrWarm", err)
	}
	if tr.Delta() != 15*time.Minute {
		t.Fatal("default Delta wrong")
	}
	if tr.Engine() == nil {
		t.Fatal("Engine must be available after Warmup")
	}
	if hh := tr.HeavyHitters(); len(hh) == 0 {
		t.Fatal("warmup SHHH empty")
	}
}

func TestResetAllowsRewarm(t *testing.T) {
	tr, err := New(WithWindowLen(8), WithTheta(3), WithSeasonality(1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	units := make([]Timeunit, 8)
	for i := range units {
		units[i] = Timeunit{hierarchy.KeyOf([]string{"a"}): 5}
	}
	if err := tr.Warmup(units, start()); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ProcessUnit(units[0]); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if tr.Warm() {
		t.Fatal("Reset must clear warm state")
	}
	if tr.Engine() != nil {
		t.Fatal("Reset must discard the engine")
	}
	if _, err := tr.ProcessUnit(units[0]); !errors.Is(err, ErrNotWarm) {
		t.Fatalf("ProcessUnit after Reset = %v, want ErrNotWarm", err)
	}
	// Re-warm on fresh history and keep detecting.
	if err := tr.Warmup(units, start().Add(24*time.Hour)); err != nil {
		t.Fatalf("re-Warmup after Reset: %v", err)
	}
	sr, err := tr.ProcessUnit(Timeunit{hierarchy.KeyOf([]string{"a"}): 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Anomalies) == 0 {
		t.Fatal("re-warmed detector missed an obvious spike")
	}
}

// genDataset builds a small seasonal dataset with one injected spike.
func genDataset(t *testing.T, units int, anoms []gen.AnomalySpec) *gen.Dataset {
	t.Helper()
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{4, 3}, LevelPrefix: []string{"v", "io"}},
		Start:           start(),
		Units:           units,
		Delta:           15 * time.Minute,
		BaseRate:        40,
		DiurnalStrength: 0.5,
		ZipfS:           0.8,
		Seed:            42,
		Anomalies:       anoms,
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunDetectsInjectedAnomaly(t *testing.T) {
	const warm = 96 // one day
	spike := gen.AnomalySpec{
		Path:         []string{"v1"},
		StartUnit:    warm + 20,
		EndUnit:      warm + 24,
		ExtraPerUnit: 400,
	}
	d := genDataset(t, warm+40, []gen.AnomalySpec{spike})
	tr, err := New(
		WithWindowLen(warm),
		WithTheta(5),
		WithSeasonality(1.0, 96), // daily season, known by construction
		WithThresholds(Thresholds{RT: 2.5, DT: 10}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 40 {
		t.Fatalf("processed %d units, want 40", res.Units)
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("injected spike not detected")
	}
	if res.AnomalyCount != len(res.Anomalies) {
		t.Fatalf("AnomalyCount = %d, len(Anomalies) = %d", res.AnomalyCount, len(res.Anomalies))
	}
	target := hierarchy.KeyOf([]string{"v1"})
	found := false
	for _, a := range res.Anomalies {
		inWindow := a.Instance >= 20 && a.Instance < 26
		if inWindow && target.IsAncestorOf(a.Key) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no anomaly under v1 in the spike window; got %+v", res.Anomalies)
	}
}

func TestQuietStreamYieldsFewAnomalies(t *testing.T) {
	const warm = 96
	d := genDataset(t, warm+40, nil)
	tr, err := New(
		WithWindowLen(warm),
		WithTheta(5),
		WithSeasonality(1.0, 96),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	// A clean seasonal stream should produce almost no alarms with
	// the paper's thresholds.
	if len(res.Anomalies) > 4 {
		t.Fatalf("too many false alarms on a quiet stream: %d", len(res.Anomalies))
	}
}

func TestSTAandADAAgreeOnAnomalies(t *testing.T) {
	const warm = 48
	spike := gen.AnomalySpec{
		Path:         []string{"v2", "io1"},
		StartUnit:    warm + 10,
		EndUnit:      warm + 13,
		ExtraPerUnit: 300,
	}
	d := genDataset(t, warm+20, []gen.AnomalySpec{spike})
	run := func(a Algorithm) []Anomaly {
		tr, err := New(
			WithWindowLen(warm),
			WithTheta(5),
			WithAlgorithm(a),
			WithSeasonality(1.0, 24),
			WithReferenceLevels(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
		if err != nil {
			t.Fatal(err)
		}
		return res.Anomalies
	}
	adaAnoms := run(AlgorithmADA)
	staAnoms := run(AlgorithmSTA)
	// Both must flag the injected spike window under v2.
	target := hierarchy.KeyOf([]string{"v2"})
	check := func(name string, as []Anomaly) {
		for _, a := range as {
			if a.Instance >= 10 && a.Instance < 15 && target.IsAncestorOf(a.Key) {
				return
			}
		}
		t.Fatalf("%s missed the injected spike: %+v", name, as)
	}
	check("ADA", adaAnoms)
	check("STA", staAnoms)
}

func TestAutoSeasonalityPicksDailyPeriod(t *testing.T) {
	// Hourly units over 8 days with strong diurnal pattern: the
	// analyzer should select a period near 24 units.
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{3}},
		Start:           start(),
		Units:           8 * 24,
		Delta:           time.Hour,
		BaseRate:        200,
		DiurnalStrength: 0.7,
		ZipfS:           0.5,
		Seed:            7,
	}
	d, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	units, first, err := Collect(NewSliceSource(d.Records), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(WithDelta(time.Hour), WithWindowLen(len(units)), WithTheta(5), WithAutoSeasonality())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Warmup(units, first); err != nil {
		t.Fatal(err)
	}
	ps := tr.SeasonalPeriods()
	if len(ps) == 0 {
		t.Fatal("no seasonal period detected")
	}
	if ps[0] < 20 || ps[0] > 28 {
		t.Fatalf("detected period = %d units, want ≈ 24", ps[0])
	}
}

func TestRunEmptySource(t *testing.T) {
	tr, err := New(WithWindowLen(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), NewSliceSource(nil)); err == nil {
		t.Fatal("empty source must fail")
	}
}

func TestRunShortStreamStillWarms(t *testing.T) {
	// Fewer units than the window: Run warms with what it has and
	// screens nothing, like the old Collect-based batch path.
	const warm = 96
	d := genDataset(t, 10, nil)
	tr, err := New(WithWindowLen(warm), WithTheta(5), WithSeasonality(1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(context.Background(), NewSliceSource(d.Records))
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 0 {
		t.Fatalf("short stream screened %d units, want 0", res.Units)
	}
	if !tr.Warm() {
		t.Fatal("short stream must still warm the detector")
	}
}

func TestShortWarmupKeepsClockHonest(t *testing.T) {
	// Warm with fewer units than the configured window: processed
	// units must be stamped from the actual history length, not ℓ.
	tr, err := New(WithWindowLen(672), WithTheta(1), WithSeasonality(1.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	units := make([]Timeunit, 10)
	for i := range units {
		units[i] = Timeunit{hierarchy.KeyOf([]string{"a"}): 5}
	}
	if err := tr.Warmup(units, start()); err != nil {
		t.Fatal(err)
	}
	sr, err := tr.ProcessUnit(Timeunit{hierarchy.KeyOf([]string{"a"}): 5})
	if err != nil {
		t.Fatal(err)
	}
	want := start().Add(10 * 15 * time.Minute)
	if !sr.UnitStart.Equal(want) {
		t.Fatalf("UnitStart = %v, want %v (short warmup must not skew the clock)", sr.UnitStart, want)
	}
}

// TestConfiguredSmoothingHonoredWithoutSeasonality is the regression
// test for the forecaster-plumbing bug: with no seasonal period the
// factory returned DefaultFactory's fixed EWMA(0.5) and silently
// discarded the α configured via WithHoltWinters. A 0.5-smoothing
// model absorbs a sustained anomaly after its first unit (one update
// moves the forecast halfway to the spike, past actual/RT), so
// detection of multi-unit incidents collapsed to onset-only. With the
// configured slow smoothing the spike must stay flagged across all
// four units.
func TestConfiguredSmoothingHonoredWithoutSeasonality(t *testing.T) {
	tr, err := New(
		WithWindowLen(12), WithTheta(0.5),
		WithThresholds(Thresholds{RT: 2.8, DT: 8}),
		WithHoltWinters(0.1, 0.02, 0.05),
	)
	if err != nil {
		t.Fatal(err)
	}
	key := hierarchy.KeyOf([]string{"a"})
	units := make([]Timeunit, 12)
	for i := range units {
		units[i] = Timeunit{key: 12}
	}
	if err := tr.Warmup(units, start()); err != nil {
		t.Fatal(err)
	}
	for unit := 0; unit < 4; unit++ {
		sr, err := tr.ProcessUnit(Timeunit{key: 200})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range sr.Anomalies {
			if a.Key == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("spike unit %d not flagged: the configured α=0.1 was not honored", unit)
		}
	}
}

// TestMapPathDeterministic runs the map-form facade (Collect → Warmup
// → ProcessUnit) twice on identical input and requires bit-identical
// output: the same heavy hitters in the same order and the same
// anomalies down to the float64 bits. The map adapter must intern
// unseen keys in a fixed (sorted Key) order; Go's randomized map
// iteration order would otherwise give the two runs different node
// IDs, sibling orders, and float summation orders.
func TestMapPathDeterministic(t *testing.T) {
	ds, err := gen.Generate(gen.Config{
		Shape:           gen.Shape{Degrees: []int{4, 5, 6}, LevelPrefix: []string{"v", "c", "d"}},
		Start:           start(),
		Units:           72,
		Delta:           15 * time.Minute,
		BaseRate:        120,
		DiurnalStrength: 0.5,
		ZipfS:           1.0,
		Seed:            5,
		Anomalies: []gen.AnomalySpec{
			{Path: []string{"v1", "c2"}, StartUnit: 56, EndUnit: 60, ExtraPerUnit: 300},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type trace struct {
		hhs   [][]Key
		anoms []Anomaly
	}
	run := func() trace {
		units, first, err := Collect(NewSliceSource(ds.Records), 15*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		det, err := New(WithWindowLen(48), WithTheta(6), WithSeasonality(1.0, 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := det.Warmup(units[:48], first); err != nil {
			t.Fatal(err)
		}
		var tr trace
		for _, u := range units[48:] {
			sr, err := det.ProcessUnit(u)
			if err != nil {
				t.Fatal(err)
			}
			tr.hhs = append(tr.hhs, det.HeavyHitters())
			tr.anoms = append(tr.anoms, sr.Anomalies...)
		}
		return tr
	}
	want := run()
	if len(want.anoms) == 0 {
		t.Fatal("workload produced no anomalies; the comparison would be vacuous")
	}
	for rep := 0; rep < 3; rep++ {
		got := run()
		for i := range want.hhs {
			if fmt.Sprint(got.hhs[i]) != fmt.Sprint(want.hhs[i]) {
				t.Fatalf("run %d unit %d: heavy hitters %v, want %v", rep, i, got.hhs[i], want.hhs[i])
			}
		}
		sameAnomalies(t, fmt.Sprintf("run %d", rep), want.anoms, got.anoms)
	}
}

package tiresias_test

import (
	"os"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/experiments"
)

// TestSoakSpeedupGrowsWithWindow verifies the central scaling claim of
// Table III: STA's cost is Θ(ℓ·|tree|) per instance while ADA's is
// Θ(|tree|), so the ADA/STA speedup must grow roughly linearly with
// the window length ℓ. The paper's ℓ=8064 yields 14.2×; at our test
// sizes the ratio is smaller but must increase monotonically in ℓ.
//
// The test runs ~20 s and is gated behind TIRESIAS_SOAK=1.
func TestSoakSpeedupGrowsWithWindow(t *testing.T) {
	if os.Getenv("TIRESIAS_SOAK") == "" {
		t.Skip("set TIRESIAS_SOAK=1 to run the scaling soak")
	}
	p := experiments.Quick()
	p.RunUnits = 24
	p.BaseRate = 150

	measure := func(warm int) float64 {
		prof := p
		prof.WarmUnits = warm
		w, err := experiments.CCDNetWorkload(prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		cost := func(name string) time.Duration {
			cfg := algo.Config{Theta: prof.Theta, WindowLen: warm}
			var e algo.Engine
			if name == "STA" {
				e, err = algo.NewSTA(cfg)
			} else {
				e, err = algo.NewADA(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Init(algo.Units(e.Tree(), w.Units[:warm])); err != nil {
				t.Fatal(err)
			}
			var total time.Duration
			var du algo.DenseUnit
			for _, u := range w.Units[warm:] {
				st, err := e.Step(du.Load(e.Tree(), u))
				if err != nil {
					t.Fatal(err)
				}
				total += st.Timings.Total()
			}
			return total
		}
		sta := cost("STA")
		ada := cost("ADA")
		if ada == 0 {
			return 0
		}
		return float64(sta) / float64(ada)
	}

	s96 := measure(96)
	s384 := measure(384)
	s1536 := measure(1536)
	t.Logf("speedup: ℓ=96 → %.1fx, ℓ=384 → %.1fx, ℓ=1536 → %.1fx", s96, s384, s1536)
	if !(s1536 > s384 && s384 > s96) {
		t.Fatalf("speedup must grow with ℓ: %.1f, %.1f, %.1f", s96, s384, s1536)
	}
	if s1536 < 8 {
		t.Fatalf("at ℓ=1536 the speedup should be large (paper: 14.2x at ℓ=8064), got %.1fx", s1536)
	}
}

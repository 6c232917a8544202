package core

import (
	"fmt"
	"math"
	"testing"

	"pasp/internal/stats"
)

// segSynthetic builds phase times obeying T_p = A_p(n) + B_p(n)/f exactly.
func segSynthetic() map[string]map[Config]float64 {
	phases := map[string]map[Config]float64{
		"compute": {},
		"comm":    {},
	}
	for _, n := range []int{1, 2, 4} {
		for _, mhz := range []float64{600, 800, 1000, 1200, 1400} {
			// Compute: fully frequency-scaled, perfectly parallel.
			phases["compute"][Config{n, mhz}] = 6000 / mhz / float64(n)
			// Comm: mostly flat with a small 1/f tail, grows with n.
			if n > 1 {
				phases["comm"][Config{n, mhz}] = 0.5*float64(n) + 120/mhz
			} else {
				phases["comm"][Config{n, mhz}] = 0
			}
		}
	}
	return phases
}

func TestFitSegExactOnModelFamily(t *testing.T) {
	pt := segSynthetic()
	m, err := FitSeg(pt, 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	// Interior frequencies were never shown to the fit; predictions must
	// still be exact because the data is in the model family.
	for _, n := range []int{1, 2, 4} {
		for _, mhz := range []float64{800, 1000, 1200} {
			want := pt["compute"][Config{n, mhz}] + pt["comm"][Config{n, mhz}]
			got, err := m.PredictTime(n, mhz)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.AlmostEqual(got, want, 1e-9) {
				t.Errorf("N=%d f=%g: predicted %g, want %g", n, mhz, got, want)
			}
		}
	}
}

func TestSegPhaseAccessors(t *testing.T) {
	m, err := FitSeg(segSynthetic(), 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ph := m.Phases()
	if len(ph) != 2 || ph[0] != "comm" || ph[1] != "compute" {
		t.Errorf("Phases = %v", ph)
	}
	if _, err := m.PredictPhase("nope", 2, 600); err == nil {
		t.Error("unknown phase accepted")
	}
	if _, err := m.PredictPhase("comm", 16, 600); err == nil {
		t.Error("unfitted N accepted")
	}
	if _, err := m.PredictPhase("comm", 2, -5); err == nil {
		t.Error("negative frequency accepted")
	}
}

func TestSegFrequencySensitivity(t *testing.T) {
	m, err := FitSeg(segSynthetic(), 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	// Compute is fully frequency-scaled.
	s, err := m.FrequencySensitivity("compute", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(s, 1, 1e-9) {
		t.Errorf("compute sensitivity %g, want 1", s)
	}
	// Comm at N=4: flat 2 s + 0.2 s at 600 MHz → ~9%.
	s, err = m.FrequencySensitivity("comm", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(s, 0.2/2.2, 1e-9) {
		t.Errorf("comm sensitivity %g, want %g", s, 0.2/2.2)
	}
}

func TestFitSegValidation(t *testing.T) {
	if _, err := FitSeg(nil, 600, 1400); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := FitSeg(segSynthetic(), 1400, 600); err == nil {
		t.Error("inverted columns accepted")
	}
	missing := map[string]map[Config]float64{
		"p": {Config{1, 600}: 1}, // no 1400 column
	}
	if _, err := FitSeg(missing, 600, 1400); err == nil {
		t.Error("missing column accepted")
	}
	neg := map[string]map[Config]float64{
		"p": {Config{1, 600}: -1, Config{1, 1400}: 1},
	}
	if _, err := FitSeg(neg, 600, 1400); err == nil {
		t.Error("negative time accepted")
	}
}

func TestFitSegClampsNegativeFlatTerm(t *testing.T) {
	// A phase whose time grows with frequency (inverted) would fit A < 0;
	// the clamp keeps predictions non-negative and the low column matched.
	pt := map[string]map[Config]float64{
		"odd": {
			Config{2, 600}:  1.0,
			Config{2, 1400}: 2.0,
		},
	}
	m, err := FitSeg(pt, 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.PredictPhase("odd", 2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(got, 1.0, 1e-9) {
		t.Errorf("low-column prediction %g, want 1.0", got)
	}
	for _, mhz := range []float64{800, 2000} {
		v, err := m.PredictPhase("odd", 2, mhz)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 {
			t.Errorf("negative prediction %g at %g MHz", v, mhz)
		}
	}
}

func TestSegCoefficients(t *testing.T) {
	m, err := FitSeg(segSynthetic(), 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := m.Coefficients("comm", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(a, 2.0, 1e-9) || !stats.AlmostEqual(b, 120, 1e-9) {
		t.Errorf("comm coefficients (%g, %g), want (2, 120)", a, b)
	}
	if _, _, err := m.Coefficients("nope", 4); err == nil {
		t.Error("unknown phase accepted")
	}
	if _, _, err := m.Coefficients("comm", 64); err == nil {
		t.Error("unfitted N accepted")
	}
}

// TestSegPredictTimeDeterministic pins PredictTime's summation order. The
// phases span sixteen orders of magnitude, so their float sum depends on the
// order it is taken in; every freshly fitted model must still predict the
// same bits, namely those of summing the phases in sorted order.
func TestSegPredictTimeDeterministic(t *testing.T) {
	pt := map[string]map[Config]float64{}
	for i := 0; i < 16; i++ {
		scale := math.Pow(10, float64(i%8*2-8)) * (1 + 0.1*float64(i))
		times := map[Config]float64{}
		for _, mhz := range []float64{600, 1400} {
			times[Config{4, mhz}] = scale * (1 + 600/mhz)
		}
		pt[fmt.Sprintf("phase%02d", i)] = times
	}
	first, err := FitSeg(pt, 600, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ph := first.Phases()
	sorted, reversed := 0.0, 0.0
	for i := range ph {
		a, err := first.PredictPhase(ph[i], 4, 1000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := first.PredictPhase(ph[len(ph)-1-i], 4, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sorted, reversed = sorted+a, reversed+b
	}
	if sorted == reversed {
		t.Fatalf("phase times are not order-sensitive: %.17g both ways", sorted)
	}
	for k := 0; k < 50; k++ {
		m, err := FitSeg(pt, 600, 1400)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictTime(4, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(sorted) {
			t.Fatalf("fit %d: PredictTime = %.17g, want the sorted-order sum %.17g", k, got, sorted)
		}
	}
}

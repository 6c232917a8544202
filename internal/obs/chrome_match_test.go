package obs_test

import (
	"fmt"
	"math"
	"testing"

	"pasp/internal/experiments"
	"pasp/internal/faults"
	"pasp/internal/npb"
	"pasp/internal/obs"
	"pasp/internal/trace"
)

// TestChromeTraceMatchesOracle holds the append-built exporters to the
// fmt-based ones byte for byte: ChromeTrace on hand-built logs that reach
// every formatting edge and on every kernel at N ∈ {2, 4, 8, 16}, clean and
// under chaos; SpansChromeTrace on a recorded span tree with edge values.
func TestChromeTraceMatchesOracle(t *testing.T) {
	check := func(t *testing.T, got, want []byte) {
		t.Helper()
		if string(got) != string(want) {
			t.Fatalf("export differs from the oracle\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
	for name, l := range map[string]*trace.Log{
		"empty":     {},
		"synthetic": obs.SyntheticLog(),
		"edges":     obs.EdgeCaseLog(),
	} {
		t.Run(name, func(t *testing.T) {
			for _, proc := range []string{"pasp", `p"<&>\` + "\x00\xff"} {
				check(t, obs.ChromeTrace(l, proc), obs.OracleChromeTrace(l, proc))
			}
		})
	}

	t.Run("spans", func(t *testing.T) {
		r := obs.NewRecorder()
		camp := r.StartSpan(-1, `campaign:"ft"<&>`, 0, obs.A("kernel", `ft\x`), obs.F("cells", 4), obs.A("ü\x01", "bad\xff"))
		r.BeginRun(2, 0.5, obs.F("n", 2))
		r.Rank(0).Phase("init", 0.5)
		r.Rank(0).Phase("exchange\n", 1.5)
		r.Rank(0).Finish(3)
		r.Rank(1).Phase("init", 0.5)
		r.Rank(1).Finish(1e9)
		r.EndRun(3)
		r.EndSpan(camp, 1e-9)
		spans := append(r.Spans(), obs.Span{Name: "huge", Rank: 7, Start: math.Inf(1), End: math.NaN()})
		for _, in := range [][]obs.Span{nil, spans, obs.NestSpans(spans)} {
			check(t, obs.SpansChromeTrace(in, "pachaos"), obs.OracleSpansChromeTrace(in, "pachaos"))
		}
	})

	// The quick suite's classes, with CG's band and MG's size narrowed so
	// they split over 16 ranks, as in npb's differential matrix.
	s := experiments.Quick()
	s.CG.Band = 4
	s.MG = npb.MG{Size: 63, Cycles: 1}
	chaos := faults.Config{Seed: 7, LatencyJitterFrac: 0.5, DropProb: 0.05, DegradeProb: 0.1,
		DegradeFactor: 2, StragglerFrac: 0.25, StragglerSlowdown: 1.5}
	for _, k := range s.KernelNames() {
		for _, n := range []int{2, 4, 8, 16} {
			for mode, cfg := range map[string]faults.Config{"clean": {}, "chaos": chaos} {
				t.Run(fmt.Sprintf("%s/n%d/%s", k, n, mode), func(t *testing.T) {
					run := s
					run.Platform.Faults = cfg
					res, err := run.RunKernelOnce(k, n, 1400)
					if err != nil {
						t.Fatal(err)
					}
					check(t, obs.ChromeTrace(res.Trace, "pasp "+k), obs.OracleChromeTrace(res.Trace, "pasp "+k))
				})
			}
		}
	}
}

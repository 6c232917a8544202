package mpi

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// obsProgram is the observed test workload: a 2-rank job with three labeled
// phases covering compute, eager ping-pong at several message sizes, and a
// collective, so spans, the message histogram and every exporter get
// exercised.
func obsProgram(c *Ctx) error {
	data := []float64{1, 2, 3, 4}
	c.SetPhase("warmup")
	if err := c.Compute(machine.W(1e6, 0, 0, 0)); err != nil {
		return err
	}
	c.SetPhase("exchange")
	for r := 0; r < 4; r++ {
		vbytes := 32 << uint(2*r) // 32 B … 2 KiB, spanning histogram buckets
		if c.Rank() == 0 {
			if err := c.Send(1, 7, data, vbytes); err != nil {
				return err
			}
			got, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			c.Free(got)
		} else {
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			c.Free(got)
			if err := c.Send(0, 8, data, vbytes); err != nil {
				return err
			}
		}
	}
	c.SetPhase("reduce")
	out, err := c.Allreduce([]float64{float64(c.Rank())}, Sum, 8)
	if err != nil {
		return err
	}
	c.Free(out)
	return nil
}

// obsWorld builds the observed 2-rank world; cfg zero means fault-free.
func obsWorld(cfg faults.Config) World {
	w := testWorld(2, 1400)
	w.Faults = cfg
	return w
}

// obsChaosCfg is a fixed seed with every injection class enabled, so the
// chaos golden exercises Fault and Retry instants in the export.
var obsChaosCfg = faults.Config{
	Seed:              42,
	LatencyJitterFrac: 1,
	DropProb:          0.2,
	DegradeProb:       0.2,
	DegradeFactor:     2,
	StragglerFrac:     0.5,
	StragglerSlowdown: 1.5,
}

// checkGolden compares got against the named testdata file, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/mpi -run %s -update` to create)", err, t.Name())
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from golden; run with -update if the change is intended.\ngot:\n%s", name, got)
	}
}

// TestObsGoldenChromeTrace pins the Chrome trace-event export of the tiny
// ping-pong run byte-for-byte — fault-free and under a chaos seed — and
// proves the bytes do not depend on goroutine parallelism.
func TestObsGoldenChromeTrace(t *testing.T) {
	cases := map[string]faults.Config{
		"pingpong_clean.trace.json": {},
		"pingpong_chaos.trace.json": obsChaosCfg,
	}
	for name, cfg := range cases {
		w := obsWorld(cfg)
		w.Obs = obs.NewRecorder()
		res, err := Run(w, obsProgram)
		if err != nil {
			t.Fatal(err)
		}
		data := obs.ChromeTrace(res.Trace, "pasp")
		if n, err := obs.ValidateChromeTrace(data); err != nil || n == 0 {
			t.Fatalf("%s: exported trace invalid: %v", name, err)
		}
		checkGolden(t, name, data)

		prev := goruntime.GOMAXPROCS(1)
		w2 := obsWorld(cfg)
		w2.Obs = obs.NewRecorder()
		res2, err := Run(w2, obsProgram)
		goruntime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if string(obs.ChromeTrace(res2.Trace, "pasp")) != string(data) {
			t.Errorf("%s: export differs under GOMAXPROCS=1", name)
		}
	}
}

// TestObsLeavesRunBitIdentical is the nil-injector contract from the other
// side: attaching a recorder must not change a single bit of the simulated
// outcome — timeline, makespan, energy.
func TestObsLeavesRunBitIdentical(t *testing.T) {
	for name, cfg := range map[string]faults.Config{"clean": {}, "chaos": obsChaosCfg} {
		base, err := Run(obsWorld(cfg), obsProgram)
		if err != nil {
			t.Fatal(err)
		}
		w := obsWorld(cfg)
		w.Obs = obs.NewRecorder()
		observed, err := Run(w, obsProgram)
		if err != nil {
			t.Fatal(err)
		}
		if base.Trace.TimelineCSV() != observed.Trace.TimelineCSV() {
			t.Errorf("%s: attaching a recorder changed the timeline", name)
		}
		//palint:ignore floateq -- bit-identity is the property under test, not a tolerance comparison
		if base.Seconds != observed.Seconds || base.Joules != observed.Joules {
			t.Errorf("%s: attaching a recorder changed the outcome: %g s %g J vs %g s %g J",
				name, base.Seconds, base.Joules, observed.Seconds, observed.Joules)
		}
	}
}

// TestObsRunMetrics checks the registry is filled from the aggregated
// result: message counters match RankStats, virtual-second counters match
// the trace, and the histogram saw every message.
func TestObsRunMetrics(t *testing.T) {
	w := obsWorld(faults.Config{})
	rec := obs.NewRecorder()
	w.Obs = rec
	res, err := Run(w, obsProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Metrics().Snapshot()
	wantMsgs, wantBytes := 0, 0
	for _, r := range res.PerRank {
		wantMsgs += r.Msgs
		wantBytes += r.MsgBytes
	}
	if got := s.Counter("mpi.msgs"); got != float64(wantMsgs) { //palint:ignore floateq -- exact integer counts
		t.Errorf("mpi.msgs = %g, want %d", got, wantMsgs)
	}
	if got := s.Counter("mpi.wire_bytes"); got != float64(wantBytes) { //palint:ignore floateq -- exact integer counts
		t.Errorf("mpi.wire_bytes = %g, want %d", got, wantBytes)
	}
	if got := s.Counter("mpi.runs"); got != 1 { //palint:ignore floateq -- exact integer counts
		t.Errorf("mpi.runs = %g, want 1", got)
	}
	byKind := res.Trace.TotalByKind()
	if got := s.Counter("mpi.virtual_seconds.compute"); math.Abs(got-byKind[0]) > 1e-12 {
		t.Errorf("compute seconds counter = %g, trace says %g", got, byKind[0])
	}
	var mkGauge float64
	for _, g := range s.Gauges {
		if g.Name == "mpi.makespan_seconds" {
			mkGauge = g.Value
		}
	}
	if mkGauge != res.Seconds { //palint:ignore floateq -- the gauge must carry the result value verbatim
		t.Errorf("makespan gauge = %g, want %g", mkGauge, res.Seconds)
	}
	for _, h := range s.Histograms {
		if h.Name == "mpi.msg_bytes" && h.Count != int64(wantMsgs) {
			t.Errorf("msg_bytes histogram saw %d messages, want %d", h.Count, wantMsgs)
		}
	}
}

// TestObsSpanHierarchy checks the run → rank → phase span tree matches the
// program's phase structure and the run's timing.
func TestObsSpanHierarchy(t *testing.T) {
	w := obsWorld(faults.Config{})
	rec := obs.NewRecorder()
	w.Obs = rec
	res, err := Run(w, obsProgram)
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("first span = %+v, want the run span", spans[0])
	}
	if spans[0].End != res.Seconds { //palint:ignore floateq -- the span must carry the makespan verbatim
		t.Errorf("run span ends at %g, makespan is %g", spans[0].End, res.Seconds)
	}
	perRank := map[int][]string{}
	for _, s := range spans {
		if s.Rank >= 0 && s.Parent >= 0 && spans[s.Parent].Rank == s.Rank {
			perRank[s.Rank] = append(perRank[s.Rank], s.Name)
		}
	}
	want := []string{"main", "warmup", "exchange", "reduce"}
	for rank := 0; rank < 2; rank++ {
		got := perRank[rank]
		if len(got) != len(want) {
			t.Errorf("rank %d phases = %v, want %v", rank, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d phase %d = %q, want %q", rank, i, got[i], want[i])
			}
		}
	}
}

// TestObsEnergyAttributionSums is the exporter's conservation law on a real
// run: summing the per-(rank,phase) attribution — idle tails included —
// recovers the run's total energy to within float re-association, clean and
// under chaos.
func TestObsEnergyAttributionSums(t *testing.T) {
	for name, cfg := range map[string]faults.Config{"clean": {}, "chaos": obsChaosCfg} {
		w := obsWorld(cfg)
		res, err := Run(w, obsProgram)
		if err != nil {
			t.Fatal(err)
		}
		rankEnds := make([]float64, len(res.PerRank))
		for i, r := range res.PerRank {
			rankEnds[i] = r.Seconds
		}
		rep := obs.AttributeEnergy(res.Trace, w.Prof, w.State, res.Seconds, rankEnds)
		if math.Abs(rep.TotalJoules-res.Joules) > 1e-9*res.Joules {
			t.Errorf("%s: attributed %.15g J, run total %.15g J", name, rep.TotalJoules, res.Joules)
		}
	}
}
